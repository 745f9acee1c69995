"""Spectral inequalities and null-control for finite Hermite expansions.

Core objects: the graded Hermite basis of E_N, sensor-set geometry and
coverings, Gram matrices over sensor sets, the sharp spectral constant
lambda_min(G_S), closed-form theoretical lower bounds, and HUM null-control
for the Hermite semigroup restricted to E_N.
"""

from .errors import (
    ConfigError,
    InputError,
    NonControllableError,
    NonObservableError,
    QuadratureError,
    ResolutionError,
    VerificationError,
)
from .rng import SplitMix64
from .basis import (
    BasisIndexSet,
    HermiteVector,
    derivative_operator,
    eval_phi,
    eval_phi_table,
    multi_indices,
)
from .geometry import (
    BallDensitySpec,
    CoveringFamily,
    CubeDensitySpec,
    Region,
    SensorSet,
    besicovitch_covering,
    example_finite_measure_set,
    lattice_covering,
)
from .bounds import (
    BoundParams,
    BoundValue,
    bernstein_CB_log,
    cobs_bound_log,
    concentration_radius,
    delta_choice,
    thm_balls_bound,
    thm_cubes_bound,
    thm_general_bound,
    unit_ball_volume,
)
from .gram import (
    GramMatrix,
    gram_fullspace_weighted,
    gram_over_set,
    scaling_identity_check,
)
from .spectral import (
    CellClassification,
    CellContext,
    SpectralReport,
    classify_cells,
    counterexample_growth,
    derivative_columns,
    estimate_Mk,
    good_cell_Mk_bound_log,
    jacobi_eigh,
    mass_intersection_check,
    spectral_constant,
    spectral_report,
)
from .control import (
    ControlProblem,
    ControlResult,
    hum_control,
    observability_gramian,
    observability_gramian_quadrature,
)

__version__ = "0.1.0"
