"""Command-line interface, and the package's only file I/O.

Subcommands: verify, construct, seminorm, stieltjes, obstruct, lacunary.
Flags may also be given through ``--config FILE`` as flat KEY=VALUE lines
(flags on the command line win).  Exit code 0 means all checks passed, 1
that a check failed and 2 that the input was rejected.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .core import PiecewiseLinearFunction, sample
from .fourier import pl_spectrum
from .seminorm import ModulusSpec, pl_seminorm, sobolev_integral, sobolev_spectral
from .construction import TriangleSystem, build_delta_sequence, build_f, build_u, build_v, place_intervals
from .stieltjes import pairing_report

_THIRD = 1.0 / 3.0
# Cap of seminorm --grid and --max-freq (not of the library): at either, a
# J = 4 profile peaks 41 or 64 MB above a default run's 62 MB (ru_maxrss).
_MAX_SIZE = 1 << 20

_ALIASES = {"alpha": "omega.alpha"}
_CONFIG_KEYS = {
    "alpha", "omega.alpha", "omega.kind", "placement.gap_rule", "blocks", "knots", "seed",
    "alt_seed", "truncation", "s", "grid", "max_freq", "budget", "terms",
}


def parse_config(path: str | Path) -> dict:
    """Flat KEY=VALUE lines; '#' starts a comment; keys mirror the flags.
    An unknown key is an error, so a typo never falls back to a default."""
    out = {}
    for raw_line in _read_input(path).splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} in line {raw_line!r}")
        out[key] = value
    if out.get("omega.kind", "power") != "power":
        raise ValueError("only omega.kind=power is supported on the command line")
    if out.get("placement.gap_rule", "equal") != "equal":
        raise ValueError("only placement.gap_rule=equal is supported")
    return out


def _resolve(args, cfg: dict, name: str, default, cast):
    value = getattr(args, name, None)
    if value is not None:
        return value
    for key in (name, _ALIASES.get(name)):
        if key in cfg:
            return cast(cfg[key])
    return default


def _read_input(path: str | Path) -> str:
    """Text of an input file; one that cannot be read is rejected input."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_output(path: str | Path, text: str) -> Path:
    """Write an output file, making its parent directories; an unwritable path is rejected input."""
    path = Path(path)
    try:
        if not path.parent.exists():  # an existing file there is reported by the write
            path.parent.mkdir(parents=True)
        path.write_text(text, newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def _json_text(payload) -> str:
    """The JSON text of every output, on stdout and in files alike."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    """CSV with '\\n' line ends and floats written by ``repr``."""
    out = io.StringIO()
    rows = ([repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows)
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def _check_alpha(alpha: float, exploratory: bool) -> float:
    if exploratory:
        if not (0.0 < alpha <= 0.5):
            raise ValueError(f"--exploratory allows alpha in (0, 1/2], got {alpha}")
    elif not (0.0 < alpha < 0.5):
        raise ValueError(
            f"alpha must lie in (0, 1/2) for construction commands, got {alpha} "
            "(alpha = 1/2 is available under --exploratory, with no verified claims)"
        )
    return alpha


def _load_pl(path: str, which: str) -> PiecewiseLinearFunction:
    """A bare PL function, or field ``which`` of a ``construct`` output."""
    payload = json.loads(_read_input(path))
    if isinstance(payload, dict) and "knots" not in payload:
        if which not in payload:
            raise ValueError(f"no PL function {which!r} in {path}")
        payload = payload[which]
    return PiecewiseLinearFunction.from_dict(payload)


def _add_common(p):
    p.add_argument("--config", help="KEY=VALUE config file mirroring the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlelab",
        description="Seminorms, tent systems and change of variable on the circle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every invariant suite")
    p.add_argument("--alpha", type=float)
    p.add_argument("--blocks", type=int)
    p.add_argument("--knots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alt-seed", dest="alt_seed", type=int)
    p.add_argument("--quick", action="store_true", help="reduced sample counts (smoke run)")
    _add_common(p)

    p = sub.add_parser("construct", help="build the tent system and profiles")
    p.add_argument("--alpha", type=float)
    p.add_argument("--blocks", type=int)
    p.add_argument("--truncation", type=int, help="tent count (default: all from the blocks)")
    p.add_argument("--out", required=True)
    p.add_argument("--exploratory", action="store_true")
    _add_common(p)

    p = sub.add_parser("seminorm", help="seminorms of a stored PL function (exact too at s = 1/2)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--field", default="f", choices=["f", "u", "v"])
    p.add_argument("--max-freq", dest="max_freq", type=int)
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("stieltjes", help="pairing report for a stored system")
    p.add_argument("--system", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--csv")
    _add_common(p)

    p = sub.add_parser("obstruct", help="run the obstruction experiment")
    p.add_argument("--alpha", type=float)
    p.add_argument("--blocks", help="comma-separated block counts, e.g. 1,2,3")
    p.add_argument("--knots", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="json", choices=["json", "csv", "both"])
    p.add_argument("--exploratory", action="store_true")
    _add_common(p)

    p = sub.add_parser("lacunary", help="dyadic-frequency fixture report")
    p.add_argument("--terms", type=int)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Invalid input (a ``ValueError``, also raised for a
    file that cannot be read or written) is reported as one
    ``circlelab: error:`` line on stderr with exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if getattr(args, "config", None) else {}
        return _run(args, cfg)
    except ValueError as exc:
        print(f"circlelab: error: {exc}", file=sys.stderr)
        return 2


def _run(args, cfg: dict) -> int:
    if args.command == "verify":
        from .experiments import VerifyConfig, verify_all
        config = VerifyConfig(
            alpha=_resolve(args, cfg, "alpha", _THIRD, float),
            blocks=_resolve(args, cfg, "blocks", 4, int),
            homeo_knots=_resolve(args, cfg, "knots", 32, int),
            seed=_resolve(args, cfg, "seed", 7, int),
            alt_seed=_resolve(args, cfg, "alt_seed", 42, int),
            quick=bool(args.quick),
        )
        report = verify_all(config)
        for result in report.results:
            print(result.line())
        print("all suites passed" if report.passed else "FAILURES present")
        return 0 if report.passed else 1

    if args.command == "construct":
        alpha = _check_alpha(_resolve(args, cfg, "alpha", _THIRD, float), args.exploratory)
        blocks = _resolve(args, cfg, "blocks", 4, int)
        omega = ModulusSpec.power(alpha)
        seq = build_delta_sequence(omega, blocks, strict=not args.exploratory)
        count = _resolve(args, cfg, "truncation", seq.tents, int)
        sys_ = place_intervals(seq, count)
        payload = {
            "config": {"alpha": alpha, "blocks": blocks, "truncation": int(count)},
            "system": sys_.to_dict(),
            "u": build_u(sys_).to_dict(),
            "v": build_v(sys_).to_dict(),
            "f": build_f(sys_).to_dict(),
        }
        _write_output(args.out, _json_text(payload))
        print(f"wrote {args.out}: {count} tents from {blocks} blocks (alpha={alpha})")
        return 0

    if args.command == "seminorm":
        f = _load_pl(args.infile, args.field)
        s = _resolve(args, cfg, "s", 0.5, float)
        grid = _resolve(args, cfg, "grid", 1 << 14, int)
        max_freq = _resolve(args, cfg, "max_freq", grid // 4, int)
        for name, size in (("grid", grid), ("max_freq", max_freq)):
            if size > _MAX_SIZE:
                raise ValueError(f"{name} must be at most {_MAX_SIZE}, got {size}")
        spectral = sobolev_spectral(pl_spectrum(f, max_freq), s)
        integral = sobolev_integral(sample(f, grid))
        payload = {"spectral": spectral, "max_freq": max_freq, "integral": integral, "s": s, "N": grid}
        if s == 0.5:
            payload["exact"] = pl_seminorm(f)
        text = _json_text(payload)
        if args.out:
            _write_output(args.out, text)
        print(text, end="")
        return 0

    if args.command == "stieltjes":
        payload = json.loads(_read_input(args.system))
        if isinstance(payload, dict) and "system" in payload:
            payload = payload["system"]
        sys_ = TriangleSystem.from_dict(payload)
        report = pairing_report(sys_, args.n)
        text = _json_text(report.to_dict())
        if args.out:
            _write_output(args.out, text)
        if args.csv:
            columns = np.column_stack([report.weights, report.per_interval, report.lb_terms]).tolist()
            rows = ([k, *row] for k, row in enumerate(columns, 1))
            _write_output(args.csv, _csv_text(["k", "w_k", "contribution", "lower_bound_term"], rows))
        print(text, end="")
        ok = bool(np.all(report.per_interval >= report.lb_terms - 1e-12))
        return 0 if ok else 1

    if args.command == "obstruct":
        from .experiments import run_obstruction
        alpha = _check_alpha(_resolve(args, cfg, "alpha", _THIRD, float), args.exploratory)
        blocks_raw = _resolve(args, cfg, "blocks", "1,2,3", str)
        block_counts = [int(tok) for tok in str(blocks_raw).split(",") if tok.strip()]
        records = run_obstruction(
            ModulusSpec.power(alpha),
            block_counts,
            knots=_resolve(args, cfg, "knots", 32, int),
            budget=_resolve(args, cfg, "budget", 2000, int),
            seed=_resolve(args, cfg, "seed", 7, int),
            strict=not args.exploratory,
        )
        rows = ([r.blocks, r.tents, r.sup_lower_bound, r.best_objective, r.evals] for r in records)
        texts = {
            "json": _json_text({"records": [r.to_dict() for r in records]}),
            "csv": _csv_text(["J", "K", "sup_lower_bound", "min_product", "evals"], rows),
        }
        for fmt in ["json", "csv"] if args.format == "both" else [args.format]:
            print(f"wrote {_write_output(Path(args.out) / f'obstruction.{fmt}', texts[fmt])}")
        violations = sum(r.violations for r in records)
        for r in records:
            print(
                f"blocks={r.blocks} tents={r.tents} lower bound={r.sup_lower_bound:.6f} "
                f"best product={r.best_objective:.6f} evals={r.evals} violations={r.violations}"
            )
        return 0 if violations == 0 else 1

    if args.command == "lacunary":
        from .experiments import lacunary_fixture
        terms = _resolve(args, cfg, "terms", 9, int)
        report = lacunary_fixture(terms)
        print(_json_text(report.to_dict()), end="")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
