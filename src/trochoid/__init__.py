"""Random matrices and digraphs with cyclic correlations.

Generators for dense and sparse cyclic ensembles, the hypotrochoid /
polytrochoid laws predicting their spectral boundaries and interior
densities, and tools that verify the predictions on computed spectra.
"""

from .boundaries import (
    BoundaryCurve,
    HypotrochoidParams,
    MixedCycleParams,
    PolytrochoidParams,
    SparseCyclicParams,
    dense_hypotrochoid,
    dense_polytrochoid,
    mixed_cycle_asymptotic,
    mixed_cycle_boundary,
    solve_segment_depth,
    sparse_hypotrochoid,
)
from .correlations import DenseCyclicSpec, generate_dense_cyclic, induce_cyclic_correlations
from .digraphs import (
    CycleSpecies,
    MixedCyclicSpec,
    PoissonCyclicSpec,
    RegularCyclicSpec,
    generate_mixed_cyclic,
    generate_poisson_cyclic,
    generate_regular_cyclic,
)
from .ensembles import (
    DenseMatrix,
    SparseDigraph,
    adjacency_matrix,
    generate_base_iid,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ContinuationError,
    EigensolverError,
    GenerationError,
    InvalidSpecError,
    TrochoidError,
)
from .interior import DensityField, GridSpec, interior_density
from .moments import (
    empirical_mixed_moment,
    empirical_pure_moment,
    fuss_catalan_prediction,
    mixed_moment_candidates,
    tree_walk_prediction,
)
from .pipeline import Calibration, calibrate_flip_prob, run_generate, run_moments, run_verify
from .spectra import (
    ContainmentReport,
    Spectrum,
    compute_eigenvalues,
    containment,
    detect_deterministic_outliers,
    digraph_spectrum,
    phase_certificate,
    rotation_symmetry_residual,
)

__version__ = "0.1.0"
