"""Numerical laboratory for expanding Markov maps, roofs, and suspensions.

The package builds the chain interval map -> first-return induction ->
transfer operator -> skew-product attractor -> suspension semiflow, with
exact rational arithmetic wherever the data allows and seeded Monte Carlo
where it does not.
"""

from .errors import (
    BinMisalignment,
    BoundaryPoint,
    BracketUndefined,
    ConfigError,
    CrossingBudgetExceeded,
    DepthOverflow,
    GeometryViolation,
    InadmissibleItinerary,
    InexactBranch,
    InsufficientDepth,
    InvalidRoof,
    MixlabError,
    NoConvergence,
    NoReturn,
    NotAffineMarkov,
    WindowTooShort,
)
from .markov_maps import (
    AffineBranch,
    ExpandingMarkovMap,
    InducedMap,
    TailStatistics,
    ValidationReport,
    doubling_map,
    expanding_circle_map,
    tail_statistics,
    three_branch_map,
)
from .roof import (
    CohomologyReport,
    RoofFunction,
    Witness,
    certify_coboundary,
    constant_roof,
    per_branch_polynomial_roof,
    polynomial_roof,
    witness_search,
)
from .skew_product import (
    AffineFiberFamily,
    Disintegration,
    HyperbolicSkewProduct,
    SandwichEstimate,
    eta_integral,
    sandwich_estimate,
    validate_contraction,
    validate_invariance,
)
from .solenoid import SolenoidModel, attractor_sample, check_domination
from .suspension import (
    CorrelationSeries,
    DecayFit,
    SuspensionSemiflow,
    correlation,
    default_observables,
    fit_rate,
    suspend,
    svg_log_plot,
    temporal_distance,
)
from .transfer_operator import (
    InvariantDensity,
    PolynomialOperator,
    UlamOperator,
    apply_exact,
    build_ulam,
    cell_density,
    duality_check,
    invariant_density,
    polynomial_operator,
    resonance,
    resonances,
    spectral_gap,
)

__version__ = "0.1.0"
