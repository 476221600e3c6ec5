"""Output checks of run.py that do not need a workload call."""

import math

import run


def test_rel_err_of_finite_values():
    problems = []
    assert run._rel_err(1.1, 1.0, "x", problems) == 1.1 - 1.0
    assert problems == []


def test_rel_err_flags_values_that_are_not_finite():
    for reported, exact in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        problems = []
        assert run._rel_err(reported, exact, "x", problems) == math.inf
        assert len(problems) == 1
