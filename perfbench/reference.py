"""Stored exact references for the obstruction workloads.

For each block count J of the criterion-9 construction (omega = power(1/3))
this records the certified lower bounds and the exact identity-map
products ||v|| * ||u_n||, n on the grid {ceil(3/w_k)}, from the Clausen-C3
oracle.  Neither depends on the code under test beyond the construction
itself, which the stored ``sup_lower_bound`` pins.

Regenerate with ``python3 perfbench/reference.py`` (about a minute on one
core); ``tests/test_bench_reference.py`` recomputes and compares every J.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
BLOCKS = tuple(range(1, 8))
ALPHA = 1.0 / 3.0


def build_system(blocks: int):
    """The criterion-9 construction at one block count: the tent system, u,
    v and the n-grid {ceil(3/w_k)} the obstruction search truncates u at."""
    from circlelab import ModulusSpec, build_delta_sequence, build_u, build_v, place_intervals

    seq = build_delta_sequence(ModulusSpec.power(ALPHA), blocks)
    system = place_intervals(seq, seq.deltas.size)
    n_grid = sorted({math.ceil(3.0 / w) for w in system.weight.tolist()})
    return system, build_u(system), build_v(system), n_grid


def identity_reference(blocks: int) -> dict:
    """Exact lower bounds and identity-map products at one block count."""
    from circlelab import TWO_PI, pairing_report, truncate_un

    import oracle

    system, u, v, n_grid = build_system(blocks)
    bounds = [abs(pairing_report(system, n, u=u, v=v).value.real) / TWO_PI for n in n_grid]
    v_norm = oracle.pl_seminorm(v)
    un_norms = [oracle.pl_seminorm(truncate_un(u, n)) for n in n_grid]
    return {
        "blocks": blocks,
        "tents": int(system.count),
        "n_grid": n_grid,
        "lower_bounds": bounds,
        "sup_lower_bound": max(bounds),
        "v_seminorm": v_norm,
        "un_seminorms": un_norms,
        "identity_products": [v_norm * s for s in un_norms],
    }


def load() -> dict:
    """Stored references keyed by block count."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {int(k): v for k, v in data["blocks"].items()}


def main() -> int:
    payload = {
        "alpha": ALPHA,
        "oracle": "Clausen-C3 pair sum (oracle.py)",
        "blocks": {str(j): identity_reference(j) for j in BLOCKS},
    }
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
