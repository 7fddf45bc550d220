"""Simulator for embedded-matrix circuits with amplitude amplification.

A real symmetric matrix is scaled and embedded into an almost-unitary
block operator, realized as a structured circuit (a row encoding built
from Householder blocks, or a linear combination of unitaries), and
applied to state vectors with oblivious amplitude amplification. The
package also measures how close an embedding is to its nearest orthogonal
matrix, reproduces random-matrix amplification experiments, and chains
circuits to apply matrix products and truncated exp and cos factorizations.
"""

from .amplification import (
    VARIANTS,
    IterationTrace,
    TraceRecord,
    iteration_count,
    oblivious_aa,
    standard_aa,
)
from .circuit import (
    CircuitU,
    StateVector,
    apply_circuit,
    apply_good_reflection,
    apply_image_reflection,
    build_lcu_encoding,
    build_row_encoding,
    collapse_good,
    dense_matrix_of,
    encode,
    prepare_input,
)
from .embedding import (
    ClosenessReport,
    Embedding,
    build_estimated_embedding,
    build_exact_embedding,
    c2_from_eigenvalues,
    closeness,
    mu_normalize,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    NoGoodAmplitudeError,
    NumericalError,
    PolarDegenerateError,
    RowNormError,
    SimulatorError,
    SpectralRadiusError,
    SymmetryError,
    UnitNormError,
    ValidationError,
    ZeroMatrixError,
)
from .experiments import (
    EnsembleRecord,
    ExperimentConfig,
    TraceResult,
    emit_outputs,
    random_input,
    random_symmetric,
    run_ensemble,
    run_trace,
)
from .linalg import (
    EigenPair,
    householder_from_vector,
    polar_symmetric,
    read_matrix,
    read_vector,
    spectral_norm_symmetric,
    sym_eigen,
    write_matrix,
)
from .matfunc import (
    ProductPlan,
    StageRecord,
    chained_product_circuit,
    cos_product_factors,
    custom_product_plan,
    exp_product_factors,
    matrix_function_oracle,
    product_of_factors,
)
from .metrics import FIDELITY_MODES, fidelity
from .rng import SplitMix64, derive_seed, mix64

__version__ = "0.1.0"

__all__ = [
    "CircuitU",
    "ClosenessReport",
    "ConvergenceError",
    "DimensionError",
    "EigenPair",
    "Embedding",
    "EnsembleRecord",
    "ExperimentConfig",
    "FIDELITY_MODES",
    "IterationTrace",
    "NoGoodAmplitudeError",
    "NumericalError",
    "PolarDegenerateError",
    "ProductPlan",
    "RowNormError",
    "SimulatorError",
    "SpectralRadiusError",
    "SplitMix64",
    "StageRecord",
    "StateVector",
    "SymmetryError",
    "TraceRecord",
    "TraceResult",
    "UnitNormError",
    "VARIANTS",
    "ValidationError",
    "ZeroMatrixError",
    "apply_circuit",
    "apply_good_reflection",
    "apply_image_reflection",
    "build_estimated_embedding",
    "build_exact_embedding",
    "build_lcu_encoding",
    "build_row_encoding",
    "c2_from_eigenvalues",
    "chained_product_circuit",
    "closeness",
    "collapse_good",
    "cos_product_factors",
    "custom_product_plan",
    "dense_matrix_of",
    "derive_seed",
    "emit_outputs",
    "encode",
    "exp_product_factors",
    "fidelity",
    "householder_from_vector",
    "iteration_count",
    "matrix_function_oracle",
    "mix64",
    "mu_normalize",
    "oblivious_aa",
    "polar_symmetric",
    "prepare_input",
    "product_of_factors",
    "random_input",
    "random_symmetric",
    "read_matrix",
    "read_vector",
    "run_ensemble",
    "run_trace",
    "spectral_norm_symmetric",
    "standard_aa",
    "sym_eigen",
    "write_matrix",
    "__version__",
]
