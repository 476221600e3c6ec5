"""The stored references are what the oracle and the construction give."""

import pytest

import reference


@pytest.mark.parametrize("blocks", reference.BLOCKS)
def test_stored_reference_regenerates(blocks):
    stored = reference.load()[blocks]
    fresh = reference.identity_reference(blocks)
    assert fresh["n_grid"] == stored["n_grid"]
    assert fresh["tents"] == stored["tents"]
    assert fresh["lower_bounds"] == pytest.approx(stored["lower_bounds"], rel=1e-12)
    assert fresh["identity_products"] == pytest.approx(stored["identity_products"], rel=1e-12)
    # the inequality the obstruction rests on: no product falls below its bound
    for product, bound in zip(stored["identity_products"], stored["lower_bounds"]):
        assert product >= bound
