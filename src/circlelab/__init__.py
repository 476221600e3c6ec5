"""circlelab: seminorms, tent systems, and change of variable on the circle."""

from .core import (
    TWO_PI,
    CircleInterval,
    GridFunction,
    PiecewiseLinearFunction,
    reduce_angle,
    sample,
    total_variation,
    triangle,
)
from .fourier import (
    SpectrumCoeffs,
    harmonic,
    pl_mean,
    pl_spectrum,
    synthesize,
)
from .seminorm import (
    EquivalenceEstimate,
    LipReport,
    ModulusSpec,
    default_delta_grid,
    equivalence_scan,
    harmonic_shift_weight,
    lip_check,
    modulus_of_continuity,
    pl_seminorm,
    sobolev_integral,
    sobolev_spectral,
)
from .construction import (
    ConstructionError,
    DeltaSequence,
    TriangleSystem,
    build_delta_sequence,
    build_f,
    build_u,
    build_v,
    place_intervals,
    truncate_un,
)
from .stieltjes import (
    DualityReport,
    StieltjesReport,
    duality_check,
    fourier_pairing,
    pairing_closed_form,
    pairing_report,
    rs_integral,
)
from .homeo import (
    PLHomeomorphism,
    from_increments,
    random_homeomorphism,
    superpose,
)

__version__ = "0.1.0"
