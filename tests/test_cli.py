import json

import pytest

from circlelab.cli import main, parse_config


def test_construct_then_seminorm_then_stieltjes(tmp_path, capsys):
    out = tmp_path / "system.json"
    assert main(["construct", "--alpha", "0.3333333333333333", "--blocks", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "system", "u", "v", "f"}
    assert len(payload["system"]["a"]) == 10

    assert main(["seminorm", "--in", str(out), "--field", "f", "--grid", "4096"]) == 0
    report = json.loads(capsys.readouterr().out.strip().split("\n", 1)[-1].rsplit("}", 1)[0] + "}")
    assert report["s"] == 0.5 and report["N"] == 4096
    assert report["spectral"] > 0 and report["integral"] > 0

    assert main(["stieltjes", "--system", str(out), "--n", "6"]) == 0
    text = capsys.readouterr().out
    assert '"lower_bound"' in text

    csv_path = tmp_path / "pairing.csv"
    assert main(["stieltjes", "--system", str(out), "--n", "6", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k,w_k,contribution,lower_bound_term"
    assert len(lines) == 11  # ten tents from two blocks


def test_seminorm_reports_the_exact_value_beside_the_truncated_one(tmp_path, capsys):
    from circlelab import PiecewiseLinearFunction, pl_seminorm

    out = tmp_path / "system.json"
    assert main(["construct", "--blocks", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["seminorm", "--in", str(out), "--field", "v"]) == 0
    report = json.loads(capsys.readouterr().out)
    v = PiecewiseLinearFunction.from_dict(json.loads(out.read_text())["v"])
    assert report["max_freq"] == (1 << 14) // 4
    assert report["exact"] == pl_seminorm(v)
    assert report["exact"] >= report["spectral"]


def test_seminorm_accepts_bare_pl(tmp_path):
    from circlelab import CircleInterval, triangle

    path = tmp_path / "tent.json"
    path.write_text(json.dumps(triangle(CircleInterval(1.0, 2.0)).to_dict()))
    assert main(["seminorm", "--in", str(path), "--grid", "1024"]) == 0


def test_alpha_gate():
    with pytest.raises(SystemExit):
        main(["construct", "--alpha", "0.5", "--blocks", "1", "--out", "/tmp/x.json"])
    with pytest.raises(SystemExit):
        main(["construct", "--alpha", "0.7", "--blocks", "1", "--out", "/tmp/x.json"])


def test_exploratory_allows_half(tmp_path):
    out = tmp_path / "half.json"
    assert main(["construct", "--alpha", "0.5", "--blocks", "1", "--out", str(out), "--exploratory"]) == 0


def test_lacunary_command(capsys):
    assert main(["lacunary", "--terms", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seminorm_sq"] == 10.0


def test_verify_quick_exit_code():
    assert main(["verify", "--quick", "--blocks", "2"]) == 0


def test_obstruct_writes_files(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "obstruct", "--blocks", "1", "--knots", "8", "--budget", "30",
        "--seed", "3", "--out", str(out), "--format", "both",
    ])
    assert code == 0
    assert (out / "obstruction.json").exists()
    assert (out / "obstruction.csv").exists()
    text = capsys.readouterr().out
    assert "violations=0" in text


def test_obstruct_rejects_a_budget_below_the_restarts(tmp_path):
    with pytest.raises(ValueError, match="budget"):
        main(["obstruct", "--blocks", "1", "--budget", "0", "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# settings\n"
        "omega.kind=power\n"
        "omega.alpha=0.25\n"
        "blocks=2\n"
        "placement.gap_rule=equal\n"
    )
    out = tmp_path / "sys.json"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["alpha"] == 0.25
    assert payload["config"]["blocks"] == 2
    # explicit flag wins over the config value
    out2 = tmp_path / "sys2.json"
    assert main(["construct", "--config", str(cfg), "--blocks", "1", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["config"]["blocks"] == 1


def test_config_rejects_other_gap_rules(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("placement.gap_rule=random\n")
    with pytest.raises(ValueError):
        parse_config(cfg)


def test_config_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    with pytest.raises(ValueError):
        parse_config(cfg)


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("blokcs=2\n")
    with pytest.raises(ValueError, match="blokcs"):
        parse_config(cfg)


def test_stieltjes_csv_writes_only_its_target(tmp_path):
    system = tmp_path / "system.json"
    assert main(["construct", "--blocks", "1", "--out", str(system)]) == 0
    bystander = tmp_path / "stieltjes.csv"
    bystander.write_text("keep me\n")
    target = tmp_path / "pairing.csv"
    assert main(["stieltjes", "--system", str(system), "--n", "6", "--csv", str(target)]) == 0
    assert bystander.read_text() == "keep me\n"
    assert target.read_text().splitlines()[0] == "k,w_k,contribution,lower_bound_term"


def test_stieltjes_rejects_a_system_with_fields_of_different_lengths(tmp_path):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"a": [1.0, 2.0], "delta": [0.01], "w": [0.5]}))
    with pytest.raises(ValueError, match="delta has 1 entries, a has 2"):
        main(["stieltjes", "--system", str(system), "--n", "6"])
