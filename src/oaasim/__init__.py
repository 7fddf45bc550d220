"""Simulator for embedded-matrix circuits with amplitude amplification.

A real symmetric matrix is scaled and embedded into an almost-unitary
block operator, realized as a structured circuit (a row encoding built
from Householder blocks, or a linear combination of unitaries), and
applied to state vectors with oblivious amplitude amplification. The
package also measures how close an embedding is to its nearest orthogonal
matrix, reproduces random-matrix amplification experiments, and chains
circuits to apply matrix products and truncated exp and cos factorizations.
"""

import types as _types

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
    SymmetryError,
    UnitNormError,
    ValidationError,
    ZeroMatrixError,
)
from .experiments import (
    EnsembleRecord,
    ExperimentConfig,
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
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"

# the public names are exactly those imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
__all__.append("__version__")
