"""Band-concentration beam synthesis and capacity analysis for uniform linear arrays."""

__version__ = "0.1.0"

from .array_model import (  # noqa: E402
    ArrayConfig,
    PatternSample,
    angle_to_phase,
    array_factor,
    band_power,
    directivity_gain,
    pattern_nulls,
    phase_to_angle,
    sample_pattern,
    steering_vector,
    write_pattern_csv,
)
from .capacity import (  # noqa: E402
    CapacityEstimates,
    CapacityScenario,
    ComparisonRow,
    LowerBoundResult,
    OrderingReport,
    capacity_approximation,
    capacity_lower_bound,
    capacity_sample,
    capacity_upper_bound,
    compare_synthesizers,
    estimate_capacity,
    mean_capacity_mc,
    outage_capacity_mc,
    verify_ordering,
    write_comparison_csv,
)
from .codebook import (  # noqa: E402
    Codebook,
    CodebookFormatError,
    best_codeword,
    build_codebook,
    load_codebook,
    save_codebook,
)
from .concentration import (  # noqa: E402
    ConcentrationMatrix,
    PhaseRegion,
    angular_concentration_matrix,
    concentration_matrix,
    interval_concentration_matrix,
    min_eigenvalue,
)
from .linalg import (  # noqa: E402
    ConvergenceError,
    EigenDecomposition,
    NotPositiveDefiniteError,
    cholesky,
    eigh_hermitian,
    eigh_symmetric,
    quadratic_form,
)
from .quadrature import QuadratureError, adaptive_simpson  # noqa: E402
from .synthesizers import (  # noqa: E402
    DegenerateWidthError,
    SteeringLimitError,
    SymmetryClassError,
    SynthesisResult,
    binomial_weights,
    chebyshev_weights,
    dft_weights,
    slepian_weights,
    slepian_weights_general,
    steer,
    weight_symmetry_class,
    write_weights_csv,
)
