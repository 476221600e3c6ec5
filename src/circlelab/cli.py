"""Command-line interface.

Subcommands: verify, construct, seminorm, stieltjes, obstruct, lacunary.
Flags may also be given through ``--config FILE`` as flat KEY=VALUE lines
(flags on the command line win).  Exit code 0 means all checks passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import PiecewiseLinearFunction, sample
from .fourier import pl_spectrum
from .seminorm import ModulusSpec, sobolev_integral, sobolev_spectral
from .construction import TriangleSystem, build_delta_sequence, build_f, build_u, build_v, place_intervals
from .stieltjes import pairing_report
from .experiments import VerifyConfig, emit, lacunary_fixture, run_obstruction, verify_all, write_pairing_csv

_THIRD = 1.0 / 3.0

_ALIASES = {"alpha": "omega.alpha"}
_CONFIG_KEYS = {
    "alpha", "omega.alpha", "omega.kind", "placement.gap_rule", "blocks", "knots", "seed",
    "alt_seed", "truncation", "s", "grid", "max_freq", "budget", "terms",
}


def parse_config(path: str | Path) -> dict:
    """Flat KEY=VALUE lines; '#' starts a comment; keys mirror the flags.
    An unknown key is an error, so a typo never falls back to a default."""
    out = {}
    for raw_line in Path(path).read_text().splitlines():
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


def _check_alpha(alpha: float, exploratory: bool) -> float:
    if exploratory:
        if not (0.0 < alpha <= 0.5):
            raise SystemExit(f"--exploratory allows alpha in (0, 1/2], got {alpha}")
    elif not (0.0 < alpha < 0.5):
        raise SystemExit(
            f"alpha must lie in (0, 1/2) for construction commands, got {alpha} "
            "(alpha = 1/2 is available under --exploratory, with no verified claims)"
        )
    return alpha


def _load_pl(path: str, which: str) -> PiecewiseLinearFunction:
    payload = json.loads(Path(path).read_text())
    if "knots" in payload:
        return PiecewiseLinearFunction.from_dict(payload)
    if which in payload:
        return PiecewiseLinearFunction.from_dict(payload[which])
    raise SystemExit(f"no PL function {which!r} in {path}")


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

    p = sub.add_parser("seminorm", help="both seminorms of a stored PL function")
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
    args = build_parser().parse_args(argv)
    cfg = parse_config(args.config) if getattr(args, "config", None) else {}

    if args.command == "verify":
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
        count = _resolve(args, cfg, "truncation", seq.deltas.size, int)
        sys_ = place_intervals(seq, count)
        payload = {
            "config": {"alpha": alpha, "blocks": blocks, "truncation": int(count)},
            "system": sys_.to_dict(),
            "u": build_u(sys_).to_dict(),
            "v": build_v(sys_).to_dict(),
            "f": build_f(sys_).to_dict(),
        }
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}: {count} tents from {blocks} blocks (alpha={alpha})")
        return 0

    if args.command == "seminorm":
        f = _load_pl(args.infile, args.field)
        s = _resolve(args, cfg, "s", 0.5, float)
        grid = _resolve(args, cfg, "grid", 1 << 14, int)
        max_freq = _resolve(args, cfg, "max_freq", grid // 4, int)
        spectral = sobolev_spectral(pl_spectrum(f, max_freq), s)
        integral = sobolev_integral(sample(f, grid))
        payload = {"spectral": spectral, "integral": integral, "s": s, "N": grid}
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n")
        print(text)
        return 0

    if args.command == "stieltjes":
        payload = json.loads(Path(args.system).read_text())
        sys_ = TriangleSystem.from_dict(payload["system"] if "system" in payload else payload)
        report = pairing_report(sys_, args.n)
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n")
        if args.csv:
            write_pairing_csv(report, args.csv)
        print(text)
        ok = bool(np.all(report.per_interval >= report.lb_terms - 1e-12))
        return 0 if ok else 1

    if args.command == "obstruct":
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
        formats = ["json", "csv"] if args.format == "both" else [args.format]
        for fmt in formats:
            for path in emit(records, fmt, args.out):
                print(f"wrote {path}")
        violations = sum(r.violations for r in records)
        for r in records:
            print(
                f"blocks={r.blocks} tents={r.tents} lower bound={r.sup_lower_bound:.6f} "
                f"best product={r.best_objective:.6f} evals={r.evals} violations={r.violations}"
            )
        return 0 if violations == 0 else 1

    if args.command == "lacunary":
        terms = _resolve(args, cfg, "terms", 9, int)
        report = lacunary_fixture(terms)
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
