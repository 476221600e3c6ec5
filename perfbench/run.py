"""circlelab benchmark: time, accuracy and per-module spans of the obstruction
search and of ``verify``.

    python3 perfbench/run.py --workload obstruct-sweep --seed 7 --seconds 36 --trace 0

Run from the repository root.  The workload runs in this one process with
BLAS and OpenMP pinned to one thread.  Within ``--seconds`` the workload
call is repeated and the median call is reported.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced calls and
prints the per-module metrics, with the tracing overhead.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts audited objective evaluations (obstruct) or suites
(verify); ``failed`` counts audited lower-bound violations or failed suites.
A workload call that raises counts as all-failed and reports no timing.
See README.md for the workloads, the metrics and which layer moves which.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SPEC_FILE = ROOT / "BENCHMARK.json"  # metric names and units

ALPHA = 1.0 / 3.0
KNOTS = 32
RESTARTS = 4
SETUP_REPEATS = 7  # set-up probes per untraced run
PROBES_PER_CALL = 2  # probes run before each workload call until SETUP_REPEATS
ORACLE_MAX_BLOCKS = 5  # exact products of the best map are recomputed up to here
BOUND_STEP = 1.0 / (18.0 * math.pi)  # least increment of sup_lower_bound per block


@dataclass(frozen=True)
class Workload:
    kind: str  # "obstruct" or "verify"
    blocks: tuple
    budget: int = 0  # objective evaluations per block count, a multiple of RESTARTS


# 160 evaluations give each restart 40: the 33-point initial simplex in 32
# dimensions plus a few Nelder-Mead steps, so one sweep call fits a run.
WORKLOADS = {
    "obstruct-sweep": Workload("obstruct", (1, 2, 3, 4, 5, 6), budget=160),
    "obstruct-deep": Workload("obstruct", (7,), budget=160),
    "verify-deep": Workload("verify", (7,)),
}


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------


def import_package():
    """Import circlelab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "circlelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no circlelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import circlelab

    if Path(circlelab.__file__).resolve().parent != (SRC / "circlelab").resolve():
        raise SystemExit(f"error: imported circlelab from {circlelab.__file__}, not {SRC}")
    return circlelab


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "circlelab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_header(args) -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count() or 1
    blas_threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    if not 1 <= blas_threads <= nproc:
        raise SystemExit(f"error: BLAS threads {blas_threads} not within 1..{nproc}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else nproc,
        "blas_threads": blas_threads,
        "load": "single process",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
    }


# --------------------------------------------------------------------------
# workload calls
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload call returned, reduced to what the checks need."""

    records: list = field(default_factory=list)  # obstruct
    suites: list = field(default_factory=list)  # verify: (name, passed)
    duality: list = field(default_factory=list)  # verify: (y, report)

    def attempted(self) -> int:
        if self.suites:
            return len(self.suites)
        return sum(r.evals for r in self.records)

    def failed(self) -> int:
        if self.suites:
            return sum(1 for _, passed in self.suites if not passed)
        return sum(r.violations for r in self.records)


def call_workload(wl: Workload, seed: int) -> Outcome:
    from circlelab import ModulusSpec, experiments

    if wl.kind == "obstruct":
        records = experiments.run_obstruction(
            ModulusSpec.power(ALPHA), list(wl.blocks), knots=KNOTS, budget=wl.budget,
            seed=seed, restarts=RESTARTS,
        )
        return Outcome(records=records)
    captured = []
    original = experiments.duality_check

    def capture(x, y, *a, **kw):
        report = original(x, y, *a, **kw)
        captured.append((y, report))
        return report

    experiments.duality_check = capture
    try:
        # The workload seed drives alt_seed (seed 7 gives the default 42).
        # VerifyConfig.seed keeps its default, so the duality audit checks the
        # same 200 random pairs as `circlelab verify`: they carry most of the
        # time and all of products_rel_err, whose maximum over pairs would
        # otherwise vary several-fold from seed to seed.
        report = experiments.verify_all(
            experiments.VerifyConfig(blocks=wl.blocks[0], alt_seed=seed + 35)
        )
    finally:
        experiments.duality_check = original
    return Outcome(suites=[(r.name, bool(r.passed)) for r in report.results], duality=captured)


def warm_up(wl: Workload) -> None:
    """Fill numpy's FFT plan cache and load lazily imported code."""
    from circlelab import ModulusSpec, experiments

    if wl.kind == "obstruct":
        experiments.run_obstruction(ModulusSpec.power(ALPHA), [1], knots=KNOTS, budget=8, restarts=RESTARTS)
    else:
        experiments.verify_all(experiments.VerifyConfig(blocks=1, quick=True))


def timed_call(wl: Workload, seed: int, tracer=None):
    import spans as tracing

    restore = None
    if tracer is not None:
        tracer.blocks = wl.blocks[0]  # obstruct spans update it per J
        restore = tracing.install(tracer, wl.kind == "obstruct")
    try:
        start = time.perf_counter()
        root = tracer.open("workload") if tracer is not None else None
        try:
            outcome = call_workload(wl, seed)
        finally:
            if tracer is not None:
                tracer.close(root)
        elapsed = time.perf_counter() - start
    finally:
        if restore is not None:
            restore()
    return elapsed, outcome


def setup_seconds(wl: Workload, count: int) -> list:
    """Set-up time of ``count`` fresh processes, one after another."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.kind, ",".join(map(str, wl.blocks))]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# --------------------------------------------------------------------------
# correctness and accuracy
# --------------------------------------------------------------------------


def check_obstruct(wl: Workload, outcomes: list, problems: list) -> None:
    import reference

    stored = reference.load()
    first = outcomes[0].records
    if [r.blocks for r in first] != list(wl.blocks):
        problems.append(f"records cover blocks {[r.blocks for r in first]}, expected {list(wl.blocks)}")
        return
    for rec in first:
        ref = stored[rec.blocks]
        if rec.n_grid != ref["n_grid"]:
            problems.append(f"J={rec.blocks}: n-grid {rec.n_grid} != stored {ref['n_grid']}")
        if not math.isclose(rec.sup_lower_bound, ref["sup_lower_bound"], rel_tol=1e-12):
            problems.append(
                f"J={rec.blocks}: sup_lower_bound {rec.sup_lower_bound!r} != stored {ref['sup_lower_bound']!r}"
            )
        if rec.blocks > 1:
            step = rec.sup_lower_bound - stored[rec.blocks - 1]["sup_lower_bound"]
            if step < BOUND_STEP - 1e-12:
                problems.append(f"J={rec.blocks}: sup_lower_bound grew by {step:.6f} < 1/(18 pi)")
        if rec.evals != wl.budget + 1:
            problems.append(f"J={rec.blocks}: {rec.evals} evaluations, expected budget + 1 = {wl.budget + 1}")
        if rec.best_objective != max(rec.achieved_products):
            problems.append(f"J={rec.blocks}: best_objective is not the max of achieved_products")
    for other in outcomes[1:]:
        if [_record_key(r) for r in other.records] != [_record_key(r) for r in first]:
            problems.append("records differ between repeated calls with the same seed")
            break


def _record_key(rec) -> tuple:
    return (rec.blocks, rec.evals, rec.violations, rec.best_objective, tuple(rec.best_raw))


def products_error_obstruct(outcome: Outcome, problems: list) -> tuple:
    """Largest |reported - exact| / exact over identity products (stored
    references) and achieved products of the best map (oracle, J <= 5)."""
    import oracle
    import reference

    from circlelab import superpose, truncate_un

    stored = reference.load()
    worst, where = 0.0, ""
    for rec in outcome.records:
        ref = stored[rec.blocks]
        pairs = [("identity", n, rep, ex) for n, rep, ex in zip(rec.n_grid, rec.identity_products, ref["identity_products"])]
        if rec.blocks <= ORACLE_MAX_BLOCKS:
            _, u, v, _ = reference.build_system(rec.blocks)
            uh = superpose(u, rec.best_homeo)
            v_norm = oracle.pl_seminorm(superpose(v, rec.best_homeo))
            exact = [v_norm * oracle.pl_seminorm(truncate_un(uh, n)) for n in rec.n_grid]
            pairs += [("best", n, rep, ex) for n, rep, ex in zip(rec.n_grid, rec.achieved_products, exact)]
        for kind, n, reported, exact in pairs:
            bound = rec.lower_bounds[rec.n_grid.index(n)]
            if exact < bound * (1.0 - 1e-9):
                problems.append(f"J={rec.blocks} n={n}: exact {kind} product {exact} below lower bound {bound}")
            err = _rel_err(reported, exact, f"J={rec.blocks} n={n}: {kind} product", problems)
            if err > worst:
                worst, where = err, f"J={rec.blocks} {kind} n={n}"
    return worst, where


def _rel_err(reported: float, exact: float, what: str, problems: list) -> float:
    """|reported - exact| / exact; a value that is not finite is a problem
    and an infinite error, so NaN cannot compare as small."""
    if not (math.isfinite(reported) and math.isfinite(exact)):
        problems.append(f"{what}: reported {reported!r}, exact {exact!r}, not finite")
        return math.inf
    return abs(reported - exact) / exact


def check_verify(outcomes: list, problems: list) -> None:
    first = outcomes[0]
    if not first.suites:
        problems.append("verify reported no suites")
    for other in outcomes[1:]:
        if other.suites != first.suites:
            problems.append("suite results differ between repeated calls with the same seed")
            break
    if not first.duality:
        problems.append("the duality suite made no duality_check calls")


def products_error_verify(outcome: Outcome, problems: list) -> tuple:
    """Largest relative error of the duality audit's right side
    ||x|| * ||y||: ||x|| is exact for a trigonometric polynomial, ||y|| is
    the truncated spectral sum, compared with the oracle."""
    import oracle

    worst, where = 0.0, ""
    for i, (y, rep) in enumerate(outcome.duality):
        exact = rep.x_seminorm * oracle.pl_seminorm(y)
        err = _rel_err(rep.rhs, exact, f"duality pair {i}: ||x|| * ||y||", problems)
        if err > worst:
            worst, where = err, f"duality pair {i} ({y.n_knots} knots)"
    return worst, where


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


BUILD_SPANS = (
    "construction.build_delta_sequence",
    "construction.place_intervals",
    "construction.build_u",
    "construction.build_v",
)


def layer_metrics(spans) -> dict:
    """Per-layer values of one traced workload call."""
    import spans as tracing

    rows: dict = {}
    for span, own in zip(spans, tracing.self_times(spans)):
        row = rows.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
        for key, value in span.attrs.items():  # knots_out, work, improving
            row[key] = row.get(key, 0) + value

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    durations = sorted(s.duration for s in spans if s.name == "experiments.objective")
    calls = len(durations)
    return {
        "experiments.objective.calls": calls,
        "experiments.objective.p50_ms": 1e3 * _quantile(durations, 0.50),
        "experiments.objective.p99_ms": 1e3 * _quantile(durations, 0.99),
        "experiments.objective.self_s": get("experiments.objective", "self_s"),
        "homeo.from_increments.total_s": get("homeo.from_increments", "total_s"),
        "homeo.superpose.calls": get("homeo.superpose", "calls"),
        "homeo.superpose.total_s": get("homeo.superpose", "total_s"),
        "homeo.superpose.knots_out": get("homeo.superpose", "knots_out"),
        "construction.truncate_un.calls": get("construction.truncate_un", "calls"),
        "construction.truncate_un.total_s": get("construction.truncate_un", "total_s"),
        "construction.truncate_un.knots_out": get("construction.truncate_un", "knots_out"),
        "construction.build.total_s": sum(get(n, "total_s") for n in BUILD_SPANS),
        "stieltjes.pairing_report.calls": get("stieltjes.pairing_report", "calls"),
        "stieltjes.pairing_report.total_s": get("stieltjes.pairing_report", "total_s"),
        "fourier.pl_spectrum.calls": get("fourier.pl_spectrum", "calls"),
        "fourier.pl_spectrum.total_s": get("fourier.pl_spectrum", "total_s"),
        "fourier.pl_spectrum.work": get("fourier.pl_spectrum", "work"),
        "stieltjes.duality_check.total_s": get("stieltjes.duality_check", "total_s"),
        "seminorm.lip_check.total_s": get("seminorm.lip_check", "total_s"),
        "seminorm.sobolev_integral.total_s": get("seminorm.sobolev_integral", "total_s"),
        "core.pl_call.calls": get("core.pl_call", "calls"),
        "core.pl_call.total_s": get("core.pl_call", "total_s"),
        "scipy.minimize.self_s": get("scipy.minimize", "self_s"),
        "scipy.minimize.improving_ratio": get("experiments.objective", "improving") / calls if calls else 0.0,
    }


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def measure(wl: Workload, args) -> tuple:
    """Repeat the workload call within ``args.seconds`` of call time; a
    further call is started only if the median call still fits.  An
    untraced run also times ``SETUP_REPEATS`` set-up probes, a few before
    each call and the rest at the end, so that they sample the whole run
    rather than one moment of a shared machine's load."""
    import spans as tracing

    untraced, traced, outcomes, layers, tracers, setup = [], [], [], [], [], []
    spent = 0.0
    while True:
        if not args.trace:
            setup += setup_seconds(wl, min(PROBES_PER_CALL, SETUP_REPEATS - len(setup)))
        elapsed, outcome = timed_call(wl, args.seed)
        spent += elapsed
        untraced.append(elapsed)
        outcomes.append(outcome)
        step = statistics.median(untraced)
        if args.trace:
            tracer = tracing.Tracer()
            elapsed, outcome = timed_call(wl, args.seed, tracer)
            spent += elapsed
            traced.append(elapsed)
            outcomes.append(outcome)
            layers.append(layer_metrics(tracer.spans))
            tracers.append(tracer)
            step += statistics.median(traced)
        if spent + step > args.seconds:
            break
    if not args.trace:
        setup += setup_seconds(wl, SETUP_REPEATS - len(setup))
    return untraced, traced, outcomes, layers, tracers, setup


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="circlelab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]

    import_package()
    spec = json.loads(SPEC_FILE.read_text())
    header = run_header(args)
    print("header " + json.dumps(header, sort_keys=True), flush=True)

    try:
        warm_up(wl)
        untraced, traced, outcomes, layers, tracers, setup = measure(wl, args)
    except Exception:  # a refusal is reported as all-failed, never timed
        traceback.print_exc(file=sys.stderr)
        attempted = (wl.budget + 1) * len(wl.blocks) if wl.kind == "obstruct" else 1
        emit(False, attempted, attempted, {})
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list = []
    if wl.kind == "obstruct":
        check_obstruct(wl, outcomes, problems)
        rel_err, where = products_error_obstruct(outcomes[0], problems)
    else:
        check_verify(outcomes, problems)
        rel_err, where = products_error_verify(outcomes[0], problems)
    attempted = max(1, sum(o.attempted() for o in outcomes))
    failed = sum(o.failed() for o in outcomes)
    for problem in problems:
        print(f"check failed: {problem}", flush=True)

    wall_s = statistics.median(untraced)
    per_call = outcomes[0].attempted()
    print(f"calls {len(untraced)} untraced, {len(traced)} traced; "
          f"untraced walls {[round(t, 4) for t in untraced]}; attempted per call {per_call}")
    print(f"metric fail_rate {failed / attempted:.6g} 1 (failed {failed} of {attempted})")
    if args.trace:
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced) - wall_s
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracers[-1].dump(path, header)
        print(f"spans of the last traced call: {path.relative_to(ROOT)} ({len(tracers[-1].spans)} spans)")
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup),
            "evals_per_s": per_call / wall_s,
            "products_rel_err": rel_err,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        print(f"products_rel_err worst at {where}; set-up samples {[round(s, 4) for s in setup]}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    emit(not problems, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
