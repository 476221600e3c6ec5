"""Span recorder for the traced benchmark run.

A span records name, start, end, parent and request id.  Spans are opened
by wrappers that ``install`` puts around circlelab's public functions at
every name a package module looks them up by, so the package itself is not
edited.  Spans stay in memory and are written out when the run ends.

Self time is a span's duration minus the part of it covered by its child
spans.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

PACKAGE_MODULES = (
    "core",
    "fourier",
    "seminorm",
    "construction",
    "stieltjes",
    "homeo",
    "experiments",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with a stack of open spans (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._open: list = []
        self.blocks = 0
        self.request_index: object = 0

    @property
    def request(self) -> str:
        return f"J{self.blocks}/{self.request_index}"

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.request))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, attrs=None, before=None):
        """``fn`` inside a span; ``attrs(args, kwargs, result)`` adds counters
        and ``before(args, kwargs)`` updates the request context."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if attrs is not None:
                self.spans[index].attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "request": s.request}
                row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals,
    clipped to the parent's interval."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children.get(i, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def _install_targets(tracer: Tracer, obstruct: bool) -> dict:
    """Wrapper for each public function, keyed by the id of the original."""
    import scipy.optimize

    from circlelab import construction, experiments, fourier, homeo, seminorm, stieltjes

    def knots_out(args, kwargs, result):
        return {"knots_out": int(result.n_knots)}

    def spectrum_work(args, kwargs, result):
        f = args[0]
        return {"work": int(f.n_knots) * int(result.max_freq)}

    def set_blocks(args, kwargs):
        tracer.blocks = int(args[1] if len(args) > 1 else kwargs["blocks"])
        tracer.request_index = 0

    wrap = {
        construction.build_delta_sequence: tracer.wrap(
            construction.build_delta_sequence, "construction.build_delta_sequence",
            before=set_blocks if obstruct else None,
        ),
        construction.place_intervals: tracer.wrap(construction.place_intervals, "construction.place_intervals"),
        construction.build_u: tracer.wrap(construction.build_u, "construction.build_u"),
        construction.build_v: tracer.wrap(construction.build_v, "construction.build_v"),
        construction.truncate_un: tracer.wrap(construction.truncate_un, "construction.truncate_un", knots_out),
        stieltjes.pairing_report: tracer.wrap(stieltjes.pairing_report, "stieltjes.pairing_report"),
        stieltjes.duality_check: tracer.wrap(stieltjes.duality_check, "stieltjes.duality_check"),
        homeo.from_increments: tracer.wrap(homeo.from_increments, "homeo.from_increments"),
        homeo.superpose: tracer.wrap(homeo.superpose, "homeo.superpose", knots_out),
        fourier.pl_spectrum: tracer.wrap(fourier.pl_spectrum, "fourier.pl_spectrum", spectrum_work),
        seminorm.lip_check: tracer.wrap(seminorm.lip_check, "seminorm.lip_check"),
        seminorm.sobolev_integral: tracer.wrap(seminorm.sobolev_integral, "seminorm.sobolev_integral"),
        scipy.optimize.minimize: _traced_minimize(tracer, scipy.optimize.minimize),
    }
    if not obstruct:
        for name, fn in vars(experiments).items():
            if name.startswith("check_") and callable(fn):
                wrap[fn] = tracer.wrap(fn, "experiments.suite", before=_suite_request(tracer, name))
    return {id(fn): wrapper for fn, wrapper in wrap.items()}


def _suite_request(tracer: Tracer, suite: str):
    def before(args, kwargs):
        tracer.request_index = suite

    return before


def _traced_minimize(tracer: Tracer, minimize):
    """scipy's minimize with its objective callback wrapped in
    ``experiments.objective`` spans.  An evaluation is improving when it
    lowers the best value the same callback has returned so far."""

    # keyed by id with the callback kept alive, so ids are not reused
    best: dict = {}

    @functools.wraps(minimize)
    def traced(fun, x0, *args, **kwargs):
        entry = best.setdefault(id(fun), [fun, math.inf])

        def objective(x, *fargs):
            tracer.request_index += 1
            index = tracer.open("experiments.objective")
            try:
                value = fun(x, *fargs)
            finally:
                tracer.close(index)
            improving = value < entry[1]
            if improving:
                entry[1] = value
            tracer.spans[index].attrs["improving"] = bool(improving)
            return value

        index = tracer.open("scipy.minimize")
        try:
            return minimize(objective, x0, *args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def install(tracer: Tracer, obstruct: bool):
    """Wrap circlelab's public functions at every package name that refers
    to them, and ``PiecewiseLinearFunction.__call__``.  Returns a function
    that restores the originals.  Install a fresh tracer for each traced
    workload call."""
    import importlib

    from circlelab.core import PiecewiseLinearFunction

    wrappers = _install_targets(tracer, obstruct)
    saved = []
    for short in PACKAGE_MODULES:
        module = importlib.import_module(f"circlelab.{short}")
        for name, value in list(vars(module).items()):
            if id(value) in wrappers:
                saved.append((module, name, value))
                setattr(module, name, wrappers[id(value)])
    if not any(module.__name__ == "circlelab.experiments" and name == "minimize" for module, name, _ in saved):
        raise RuntimeError("circlelab.experiments no longer calls scipy's minimize by that name")
    original_call = PiecewiseLinearFunction.__call__
    PiecewiseLinearFunction.__call__ = tracer.wrap(original_call, "core.pl_call")

    def restore():
        PiecewiseLinearFunction.__call__ = original_call
        for module, name, value in saved:
            setattr(module, name, value)

    return restore
