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


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("circlelab: error: ") and captured.err.count("\n") == 1
    return captured.err


def test_alpha_gate(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["construct", "--alpha", "0.5", "--blocks", "1", "--out", str(out)]) == 2
    assert "alpha must lie in (0, 1/2)" in _one_error_line(capsys)
    assert main(["construct", "--alpha", "0.6", "--blocks", "1", "--out", str(out), "--exploratory"]) == 2
    assert "--exploratory allows alpha in (0, 1/2]" in _one_error_line(capsys)


def test_construct_rejects_alpha_above_half(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["construct", "--alpha", "0.7", "--blocks", "1", "--out", str(out)]) == 2
    assert "got 0.7" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "--alpha", "0.45", "--blocks", "3", "--out", "{tmp}/x.json"],
        ["obstruct", "--alpha", "0.45", "--blocks", "3", "--out", "{tmp}/run"],
        ["obstruct", "--blocks", "12", "--budget", "4", "--out", "{tmp}/run"],
    ],
)
def test_a_construction_too_large_to_place_is_rejected(tmp_path, capsys, args):
    # alpha = 0.45 gives 2^26 tents in block 3, alpha = 1/3 gives 2^23 in block 12
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    assert "flattened sequence exceeds 10000000 entries at block" in _one_error_line(capsys)
    assert not any(tmp_path.iterdir())


def test_commands_that_need_no_optimizer_do_not_import_it(tmp_path):
    import os
    import subprocess
    import sys

    import circlelab

    src = os.path.dirname(os.path.dirname(circlelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from circlelab.cli import main\n"
        "print('scipy.optimize' in sys.modules)\n"
        f"main(['construct', '--blocks', '3', '--out', {str(tmp_path / 'x.json')!r}])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    imported_before, wrote, imported_after = out.stdout.splitlines()
    assert wrote.startswith("wrote ") and imported_before == imported_after == "False"


def test_missing_input_files_are_rejected(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["seminorm", "--in", str(missing)]) == 2
    assert _one_error_line(capsys) == f"circlelab: error: cannot read {missing}: No such file or directory\n"
    assert main(["stieltjes", "--system", str(missing), "--n", "6"]) == 2
    assert "cannot read" in _one_error_line(capsys)


def test_seminorm_rejects_a_file_without_the_field(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"w": [1.0]}))
    assert main(["seminorm", "--in", str(path), "--field", "v"]) == 2
    assert "no PL function 'v'" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1.0], "triangle system must be a JSON object, got list"),
        ({"a": [1.0]}, "triangle system is missing field(s) 'delta', 'w'"),
    ],
)
def test_stieltjes_rejects_a_system_of_the_wrong_shape(tmp_path, capsys, payload, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    assert main(["stieltjes", "--system", str(path), "--n", "6"]) == 2
    assert _one_error_line(capsys) == f"circlelab: error: {message}\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"knots": [0.1]}, "PL function is missing field(s) 're', 'im'"),
        ({"knots": {"a": 1}, "re": [1.0], "im": [0.0]}, "PL function field 'knots' is not numeric"),
    ],
)
def test_seminorm_rejects_a_pl_function_of_the_wrong_shape(tmp_path, capsys, payload, message):
    path = tmp_path / "pl.json"
    path.write_text(json.dumps(payload))
    assert main(["seminorm", "--in", str(path)]) == 2
    assert _one_error_line(capsys).startswith(f"circlelab: error: {message}")


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


def test_obstruct_rejects_a_budget_below_the_restarts(tmp_path, capsys):
    assert main(["obstruct", "--blocks", "1", "--budget", "0", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "circlelab: error: budget must be at least restarts = 4, got 0\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, message",
    [
        (["obstruct", "--blocks", ",", "--out", "{tmp}/run"], "need at least one block count"),
        (["obstruct", "--blocks", "1", "--seed", "-1", "--out", "{tmp}/run"], "seed must be a non-negative integer, got -1"),
        (["verify", "--quick", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["verify", "--quick", "--alt-seed", "-1"], "alt_seed must be a non-negative integer, got -1"),
    ],
)
def test_an_empty_block_list_or_a_negative_seed_is_rejected(tmp_path, capsys, args, message):
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    assert _one_error_line(capsys) == f"circlelab: error: {message}\n"
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


def test_stieltjes_rejects_a_system_with_fields_of_different_lengths(tmp_path, capsys):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"a": [1.0, 2.0], "delta": [0.01], "w": [0.5]}))
    assert main(["stieltjes", "--system", str(system), "--n", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("circlelab: error: ") and err.count("\n") == 1
    assert "delta has 1 entries, a has 2" in err


@pytest.mark.parametrize(
    "text, field, value",
    [
        ('{"a": [1.0], "delta": [0.01], "w": [null]}', "weight", "nan"),
        ('{"a": [1.0], "delta": [null], "w": [0.5]}', "delta", "nan"),
        ('{"a": [1e400], "delta": [0.01], "w": [0.5]}', "a", "inf"),
    ],
)
def test_stieltjes_rejects_a_system_with_a_non_finite_entry(tmp_path, capsys, text, field, value):
    system = tmp_path / "system.json"
    system.write_text(text)
    assert main(["stieltjes", "--system", str(system), "--n", "6"]) == 2
    assert _one_error_line(capsys) == f"circlelab: error: {field} must be finite, got {value}\n"


def test_a_small_placement_from_a_long_sequence(tmp_path, capsys):
    from circlelab import ModulusSpec, build_delta_sequence, place_intervals

    out = tmp_path / "x.json"
    assert main(["construct", "--blocks", "12", "--truncation", "100", "--out", str(out)]) == 0
    expected = place_intervals(build_delta_sequence(ModulusSpec.power(1.0 / 3.0), 4), 100).to_dict()
    assert json.loads(out.read_text())["system"] == expected
    assert "100 tents from 12 blocks" in capsys.readouterr().out
    # placing every tent of the same sequence is still refused
    assert main(["obstruct", "--blocks", "12", "--budget", "4", "--out", str(tmp_path / "run")]) == 2
    assert "10000000 entries at block 12" in _one_error_line(capsys)


@pytest.mark.parametrize("s", ["nan", "inf", "-inf", "0"])
def test_seminorm_rejects_an_order_that_is_not_finite_and_positive(tmp_path, capsys, s):
    from circlelab import CircleInterval, triangle

    path = tmp_path / "tent.json"
    path.write_text(json.dumps(triangle(CircleInterval(1.0, 2.0)).to_dict()))
    assert main(["seminorm", "--in", str(path), f"--s={s}"]) == 2
    assert "order s must be finite and positive, got" in _one_error_line(capsys)


# Every output file goes through one writer: each of the five outputs
# creates missing parent directories, and a path through an existing file
# is rejected input.
_OUTPUTS = {
    "construct": ["construct", "--blocks", "1", "--out", "{out}"],
    "seminorm": ["seminorm", "--in", "{system}", "--grid", "1024", "--out", "{out}"],
    "stieltjes-json": ["stieltjes", "--system", "{system}", "--n", "6", "--out", "{out}"],
    "stieltjes-csv": ["stieltjes", "--system", "{system}", "--n", "6", "--csv", "{out}"],
    "obstruct": [
        "obstruct", "--blocks", "1", "--knots", "8", "--budget", "8", "--seed", "3",
        "--format", "both", "--out", "{out}",
    ],
}


def _output_args(name, tmp_path, out):
    system = tmp_path / "system.json"
    if not system.exists():
        assert main(["construct", "--blocks", "1", "--out", str(system)]) == 0
    return [a.format(out=out, system=system) for a in _OUTPUTS[name]]


@pytest.mark.parametrize("name", sorted(_OUTPUTS))
def test_every_output_creates_its_parent_directories(tmp_path, capsys, name):
    out = tmp_path / "new" / "a" / "out"
    assert main(_output_args(name, tmp_path, out)) == 0
    if name == "obstruct":
        assert (out / "obstruction.json").is_file() and (out / "obstruction.csv").is_file()
    else:
        assert out.is_file()


@pytest.mark.parametrize("name", sorted(_OUTPUTS))
def test_an_output_path_through_a_file_is_rejected(tmp_path, capsys, name):
    args = _output_args(name, tmp_path, tmp_path / "afile" / "out")
    (tmp_path / "afile").write_text("keep me\n")
    capsys.readouterr()
    assert main(args) == 2
    err = _one_error_line(capsys)
    assert err.startswith(f"circlelab: error: cannot write {tmp_path / 'afile' / 'out'}")
    assert err.endswith(": Not a directory\n")
    assert (tmp_path / "afile").read_text() == "keep me\n"


@pytest.mark.parametrize("name", ["seminorm", "stieltjes-json"])
def test_stdout_is_the_file_written_with_out(tmp_path, capsys, name):
    out = tmp_path / "report.json"
    args = _output_args(name, tmp_path, out)
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def _obstruct(out, fmt="both"):
    return main([
        "obstruct", "--blocks", "1,2", "--knots", "8", "--budget", "60", "--seed", "3",
        "--format", fmt, "--out", str(out),
    ])


def test_obstruct_writes_json_and_csv_records(tmp_path, capsys):
    from circlelab import ModulusSpec
    from circlelab.experiments import ObstructionRecord, run_obstruction

    assert _obstruct(tmp_path) == 0
    records = run_obstruction(ModulusSpec.power(1.0 / 3.0), [1, 2], knots=8, budget=60, seed=3)
    payload = json.loads((tmp_path / "obstruction.json").read_text())
    assert len(payload["records"]) == 2
    restored = [ObstructionRecord.from_dict(d) for d in payload["records"]]
    assert [r.to_dict() for r in restored] == [r.to_dict() for r in records]
    lines = (tmp_path / "obstruction.csv").read_text().splitlines()
    assert lines[0] == "J,K,sup_lower_bound,min_product,evals"
    assert lines[1:] == [
        f"{r.blocks},{r.tents},{r.sup_lower_bound!r},{r.best_objective!r},{r.evals}" for r in records
    ]


def test_obstruct_files_are_byte_stable(tmp_path, capsys):
    assert _obstruct(tmp_path / "a") == 0
    assert _obstruct(tmp_path / "b") == 0
    for name in ("obstruction.json", "obstruction.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_obstruct_rejects_an_unknown_format(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _obstruct(tmp_path, "xml")
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, message",
    [
        (["seminorm", "--in", "{tent}", "--grid", "1048577"], "grid must be at most 1048576, got 1048577"),
        (["seminorm", "--in", "{tent}", "--max-freq", "1048577"], "max_freq must be at most 1048576, got 1048577"),
        (["seminorm", "--in", "{tent}", "--s", "400"], "the order-s seminorm overflows float64 at s = 400.0"),
        (["obstruct", "--blocks", "1", "--knots", "1025", "--out", "{tmp}/run"], "knots must lie in [2, 1024], got 1025"),
    ],
)
def test_a_size_past_its_cap_or_an_overflowing_order_is_rejected(tmp_path, capsys, args, message):
    # each size is one past its cap and is refused before anything is built
    from circlelab import CircleInterval, triangle

    tent = tmp_path / "tent.json"
    tent.write_text(json.dumps(triangle(CircleInterval(1.0, 2.0)).to_dict()))
    assert main([a.format(tmp=tmp_path, tent=tent) for a in args]) == 2
    assert _one_error_line(capsys) == f"circlelab: error: {message}\n"
    assert sorted(tmp_path.iterdir()) == [tent]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the grid objective undercounts the J = 7 tents, so the audit flags every evaluation",
)
def test_obstruct_at_seven_blocks_reports_no_violation(tmp_path, capsys):
    assert main(["obstruct", "--blocks", "7", "--budget", "40", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert "violations=0" in capsys.readouterr().out


def test_stieltjes_csv_rows_are_the_report_arrays(tmp_path, capsys):
    from circlelab import TriangleSystem, pairing_report

    system = tmp_path / "system.json"
    assert main(["construct", "--blocks", "2", "--out", str(system)]) == 0
    csv_path = tmp_path / "pairing.csv"
    assert main(["stieltjes", "--system", str(system), "--n", "6", "--csv", str(csv_path)]) == 0
    report = pairing_report(TriangleSystem.from_dict(json.loads(system.read_text())["system"]), 6)
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, report.per_interval.size + 1))
    # repr floats round-trip exactly
    assert [[float(x) for x in row[1:]] for row in rows] == [
        list(t) for t in zip(report.weights.tolist(), report.per_interval.tolist(), report.lb_terms.tolist())
    ]
