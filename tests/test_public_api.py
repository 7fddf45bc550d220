"""Every public entry point meets generated arguments with a documented
refusal: only SimulatorError subclasses escape, no warning is raised, and
every float or float array returned (also inside a returned tuple, list or
record) is finite; see CARRIES_INPUT for the one result that may only
carry non-finite values it was given.

TABLE has one row per function in oaasim.__all__, plus the constructors of
ExperimentConfig, ProductPlan, SplitMix64 and StateVector: the function and
a strategy of its positional and keyword arguments. Array arguments draw
from ARRAYS, which mixes small valid arrays (symmetric, row-normalized,
orthogonal, unit vectors, at scales from subnormal to near overflow) with
text, complex values, ragged nesting, integers beyond the float range,
empty shapes and NaN or infinite entries. List arguments (unitaries,
factors, results) draw lists or a non-list (None, a number). Circuits,
states, plans, configs and records are built from small valid pieces;
names (variant, mode, format) are drawn as text or as a numpy string
array. Counts that size a loop or an allocation (k, trials, dims, order,
length, truncation, count) draw only invalid values. Paths name files in
a pytest temporary directory, and file contents are generated. Every other
public name is listed in EXCLUDED, so a new public name without a row fails
test_every_public_name_has_a_row.
"""

import ast
import copy
import dataclasses
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oaasim
from oaasim import (
    ExperimentConfig,
    ProductPlan,
    SimulatorError,
    SplitMix64,
    StateVector,
    build_lcu_encoding,
    cos_product_factors,
    custom_product_plan,
    encode,
    exp_product_factors,
    run_ensemble,
    run_trace,
)
from oaasim.experiments import EXPERIMENT_KINDS

EXCLUDED = {
    # exception classes
    "ConvergenceError", "DimensionError", "NoGoodAmplitudeError", "NumericalError",
    "PolarDegenerateError", "RowNormError", "SimulatorError", "SymmetryError",
    "UnitNormError", "ValidationError", "ZeroMatrixError",
    # record and container types
    "CircuitU", "ClosenessReport", "EigenPair", "Embedding", "EnsembleRecord",
    "IterationTrace", "StageRecord", "TraceRecord",
    # constants
    "VARIANTS", "FIDELITY_MODES", "__version__",
}

# signed zeros, subnormals, near-overflow values and non-finite values
EDGE = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-200, 0.5, -1.0, 1.0, 1e200,
        1.7e308, -1.7e308, math.nan, math.inf, -math.inf]
ELEMENTS = st.one_of(st.sampled_from(EDGE), st.floats(-2.0, 2.0),
                     st.floats(allow_nan=True, allow_infinity=True))
SIZES = (1, 2, 4, 8)
JUNK = st.sampled_from([
    "ab", "", "1.5", None, True, 3, 10**400, 1j, [], [[]], [[1.0], [1.0, 2.0]], [["a"]],
    [object()], [1.0, 1j], {"a": 1}, np.array([1j, 1.0]), np.zeros((2, 2, 2)),
    np.zeros((0,)), np.zeros((0, 0)), np.eye(2, dtype=int), np.eye(2, dtype=bool),
    np.array([[1.0, None]], dtype=object),
])
# invalid for every count: negative, non-integer, bool, text, None
BAD_COUNTS = st.sampled_from([-1, -(2**70), 2.5, True, False, "3", None, 1e9,
                              np.float64(4.0), [2], 1j])
BAD_DIMS = st.one_of(
    BAD_COUNTS, st.sampled_from(["16", b"16", (), (2, 2), [4, 4]]),
    st.lists(st.sampled_from([0, 1, 3, 6, 12, -4, 2.0, True, "2", None]), min_size=1,
             max_size=3))
NAMES = st.sampled_from(oaasim.VARIANTS + oaasim.FIDELITY_MODES
                        + ("exp", "cos", "csv", "svg", "ensemble", "trace"))
TEXT = st.one_of(NAMES, st.text(max_size=4), st.lists(NAMES, max_size=2).map(np.array))


@st.composite
def valid_arrays(draw):
    """Symmetric, row-normalized, orthogonal or unit-vector arrays, or a
    float grid of any small shape; half of them scaled by a power of two
    from 2^-1100 (all subnormal or zero) to 2^1023 (near overflow)."""
    n = draw(st.sampled_from(SIZES))
    kind = draw(st.sampled_from(("symmetric", "normalized", "orthogonal", "unit", "grid")))
    grid = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    sym = np.triu(grid) + np.triu(grid, 1).T
    with np.errstate(all="ignore"):
        vec = grid[0] / np.linalg.norm(grid[0])
        if kind == "symmetric":
            a = sym
        elif kind == "normalized":
            a = sym / np.sqrt((sym * sym).sum(axis=1).max())
        elif kind == "orthogonal":
            a = np.eye(n) - 2.0 * np.outer(vec, vec)
        elif kind == "unit":
            a = vec if draw(st.booleans()) else np.concatenate([vec, np.zeros(n)])
        else:
            shape = draw(st.sampled_from(((), (n,), (n, n), (n, 2 * n), (2 * n, 2 * n))))
            a = draw(arrays(float, shape, elements=ELEMENTS))
        power = st.one_of(st.sampled_from((0, -1074, -520, 520, 1023)), st.integers(-1100, 1023))
        return np.ldexp(a, draw(power))


ARRAYS = st.one_of(JUNK, valid_arrays(), valid_arrays().map(lambda a: a.tolist()))
NOT_LISTS = st.sampled_from([None, 5])
ARRAY_LISTS = st.one_of(st.lists(ARRAYS, max_size=3), NOT_LISTS)

SMALL = np.array([[0.25, -0.125], [-0.125, 0.5]])
ENCODED = [encode(SMALL, [0.6, 0.8]), encode(np.diag([0.5, -0.25, 0.125, 1.0]), np.eye(4)[1])]
CIRCUITS = st.sampled_from([enc.circuit for enc in ENCODED]
                           + [build_lcu_encoding([np.eye(2), np.diag([1.0, -1.0])], [0.6, 0.8])])
GRIDS = st.sampled_from(((2, 2), (4, 4), (8, 8), (4, 2))).flatmap(
    lambda shape: arrays(float, shape, elements=ELEMENTS))
# fresh copies: no example sees what another wrote
STATES = st.one_of(st.sampled_from([enc.state.grid for enc in ENCODED]), GRIDS).map(
    lambda grid: StateVector(grid.copy()))
PLANS = st.sampled_from([exp_product_factors(SMALL, 1), cos_product_factors(SMALL, 1),
                         custom_product_plan([SMALL, -SMALL])])
CONFIGS = st.builds(ExperimentConfig, dims=st.just((2,)), trials=st.just(1),
                    variant=st.sampled_from(oaasim.VARIANTS),
                    fidelity_mode=st.sampled_from(oaasim.FIDELITY_MODES),
                    experiment=st.sampled_from(EXPERIMENT_KINDS))
_CFG = dict(dims=(2, 4), trials=2)
_RECORDS = (run_ensemble(ExperimentConfig(**_CFG))
            + run_trace(ExperimentConfig(**_CFG, experiment="trace")) + ["not a record"])
RESULTS = st.one_of(st.lists(st.sampled_from(_RECORDS), max_size=4), NOT_LISTS)
SEEDS = st.one_of(st.integers(-(2**65), 2**65), BAD_COUNTS, st.just(2**64 - 1))


class _Path:
    """A file name in a fresh directory under the temporary directory;
    with data, the file is written with it first."""

    def __init__(self, name, data=None):
        self.name, self.data = name, data

    def resolve(self, tmp):
        path = Path(tempfile.mkdtemp(dir=tmp)) / self.name
        if self.data is not None:
            path.write_bytes(self.data)
        return path


FILE_TEXT = st.one_of(
    st.binary(max_size=24),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.lists(ELEMENTS, max_size=9)).map(
        lambda t: (f"{t[0]} {t[1]}\n" + " ".join(map(repr, t[2])) + "\n").encode()),
    arrays(float, st.sampled_from(((1, 1), (2, 2), (2, 3))), elements=ELEMENTS).map(
        lambda a: (f"{a.shape[0]} {a.shape[1]}\n"
                   + "\n".join(" ".join(map(repr, row)) for row in a.tolist()) + "\n").encode()),
)


# results that hold the amplitudes they are given: StateVector keeps its
# grid (NaN states are built on purpose elsewhere). Its results are checked
# for finite inputs only.
CARRIES_INPUT = {"StateVector"}


def row(fn, *args, **kwargs):
    """fn with positional argument strategies args and optional keyword
    argument strategies kwargs."""
    return fn, st.tuples(st.tuples(*args), st.fixed_dictionaries({}, optional=kwargs))


def _sm64(seed, count):
    rng = SplitMix64(seed)
    return rng.uniform(), rng.uniform_signed_array(count)


TABLE = {
    "ExperimentConfig": row(ExperimentConfig, dims=BAD_DIMS, trials=BAD_COUNTS, seed=SEEDS,
                            variant=TEXT, fidelity_mode=TEXT, experiment=TEXT),
    "ProductPlan": row(ProductPlan, ARRAY_LISTS),
    "SplitMix64": row(_sm64, SEEDS, BAD_COUNTS),
    "StateVector": row(StateVector, ARRAYS),
    "apply_circuit": row(oaasim.apply_circuit, CIRCUITS, STATES, inverse=st.booleans()),
    "build_estimated_embedding": row(oaasim.build_estimated_embedding, ARRAYS,
                                     mu=st.one_of(ARRAYS, st.floats())),
    "build_lcu_encoding": row(oaasim.build_lcu_encoding, ARRAY_LISTS, ARRAYS),
    "build_row_encoding": row(oaasim.build_row_encoding, ARRAYS),
    "chained_product_circuit": row(oaasim.chained_product_circuit, PLANS, ARRAYS,
                                   variant=TEXT),
    "closeness": row(oaasim.closeness, ARRAYS),
    "collapse_good": row(oaasim.collapse_good, CIRCUITS, STATES),
    "cos_product_factors": row(oaasim.cos_product_factors, ARRAYS, BAD_COUNTS),
    "custom_product_plan": row(oaasim.custom_product_plan, ARRAY_LISTS),
    "dense_matrix_of": row(oaasim.dense_matrix_of, CIRCUITS),
    "derive_seed": row(lambda seed, indices: oaasim.derive_seed(seed, *indices), SEEDS,
                       st.lists(SEEDS, max_size=3)),
    "emit_outputs": row(oaasim.emit_outputs, RESULTS, TEXT,
                        st.sampled_from([_Path("out"), _Path("out.csv")])),
    "encode": row(encode, ARRAYS, ARRAYS, fidelity_mode=TEXT),
    "exp_product_factors": row(oaasim.exp_product_factors, ARRAYS, BAD_COUNTS),
    "fidelity": row(oaasim.fidelity, ARRAYS, ARRAYS),
    "householder_from_vector": row(oaasim.householder_from_vector, ARRAYS),
    "iteration_count": row(oaasim.iteration_count,
                           st.one_of(st.integers(-5, 2**70), BAD_COUNTS)),
    "matrix_function_oracle": row(oaasim.matrix_function_oracle, ARRAYS, TEXT),
    "mu_normalize": row(oaasim.mu_normalize, ARRAYS),
    "oblivious_aa": row(oaasim.oblivious_aa, CIRCUITS, STATES, BAD_COUNTS, TEXT, ARRAYS),
    "polar_symmetric": row(oaasim.polar_symmetric, ARRAYS),
    "prepare_input": row(oaasim.prepare_input, CIRCUITS, ARRAYS),
    "product_of_factors": row(oaasim.product_of_factors, ARRAY_LISTS),
    "random_input": row(oaasim.random_input, BAD_COUNTS, st.just(SplitMix64(1))),
    "random_symmetric": row(oaasim.random_symmetric, BAD_COUNTS, st.just(SplitMix64(1))),
    "read_matrix": row(oaasim.read_matrix, FILE_TEXT.map(lambda data: _Path("in.txt", data))),
    "run_ensemble": row(oaasim.run_ensemble, CONFIGS),
    "run_trace": row(oaasim.run_trace, CONFIGS),
    "spectral_norm_symmetric": row(oaasim.spectral_norm_symmetric, ARRAYS),
    "standard_aa": row(oaasim.standard_aa, CIRCUITS, ARRAYS, BAD_COUNTS, ARRAYS),
    "sym_eigen": row(oaasim.sym_eigen, ARRAYS),
    "write_matrix": row(oaasim.write_matrix, st.just(_Path("w.txt")), ARRAYS),
}


def floats_in(value):
    """Every float and float array in value, also inside a tuple, list or
    record."""
    if isinstance(value, (float, np.floating)):
        yield np.float64(value)
    elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from floats_in(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from floats_in(getattr(value, field.name))


def reads_finite(argument) -> bool:
    """False only when the argument, or a state's grid, reads as a float
    array with a non-finite entry (None in an object array reads as NaN)."""
    grid = argument.grid if isinstance(argument, StateVector) else argument
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return bool(np.isfinite(np.asarray(grid, dtype=float)).all())
        except (TypeError, ValueError, OverflowError):
            return True


def test_every_public_name_has_a_row():
    assert not set(TABLE) & EXCLUDED
    assert set(TABLE) | EXCLUDED == set(oaasim.__all__)


PACKAGE = Path(oaasim.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _names_read(paths):
    """Every name the files read (as a name or an attribute), except the
    reads of a module-level function or class inside its own definition."""
    read = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Attribute)}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
            read |= names
    return read


def test_every_private_helper_has_a_reader_in_the_package():
    # a module-level private function or class that only tests read is dead code
    paths = sorted(PACKAGE.glob("*.py"))
    defined = {node.name for path in paths for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    assert sorted(defined - _names_read(paths)) == []


def test_every_public_function_and_class_has_a_reader():
    # a public name that only its own tests read is dead code; the
    # acceptance tests count as a reader, the other tests do not
    paths = ([path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
             + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    public = {name for name in oaasim.__all__ if callable(getattr(oaasim, name))}
    assert sorted(public - _names_read(paths)) == []


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(TABLE))
@settings(max_examples=30)
@given(data=st.data())
def test_public_entry_point_refuses_cleanly(name, data, fuzz_dir):
    fn, arguments = TABLE[name]
    args, kwargs = data.draw(arguments)
    args = [a.resolve(fuzz_dir) if isinstance(a, _Path) else a for a in args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args, **kwargs)
        except SimulatorError:
            return
    if name not in CARRIES_INPUT or all(map(reads_finite, [*args, *kwargs.values()])):
        assert all(np.isfinite(x).all() for x in floats_in(result)), result


def _text_cases():
    enc = encode(SMALL, [0.6, 0.8])
    plan = exp_product_factors(SMALL, 1)
    return {
        "mu_normalize": lambda: oaasim.mu_normalize("ab"),
        "closeness": lambda: oaasim.closeness("ab"),
        "fidelity": lambda: oaasim.fidelity("ab", [1.0, 0.0]),
        "householder_from_vector": lambda: oaasim.householder_from_vector("ab"),
        "prepare_input": lambda: oaasim.prepare_input(enc.circuit, "ab"),
        "StateVector": lambda: StateVector("ab"),
        "write_matrix": lambda: oaasim.write_matrix(Path("never-written.txt"), "ab"),
        "build_row_encoding": lambda: oaasim.build_row_encoding("ab"),
        "build_lcu_encoding": lambda: build_lcu_encoding([np.eye(2)], "ab"),
        "chained_product_circuit": lambda: oaasim.chained_product_circuit(plan, "ab"),
        "standard_aa": lambda: oaasim.standard_aa(enc.circuit, "ab", 1, enc.target),
        "oblivious_aa": lambda: oaasim.oblivious_aa(enc.circuit, enc.state, 1, "literal", "ab"),
    }


@pytest.mark.parametrize("name", sorted(_text_cases()))
def test_text_array_argument_is_refused(name):
    # each let numpy's ValueError escape before every array argument was
    # converted by linalg._float_array
    with pytest.raises(oaasim.ValidationError, match="is not an array of real numbers"):
        _text_cases()[name]()


@pytest.mark.parametrize("array", [1j * np.eye(2), [[1.0], [1.0, 2.0]], [[10**400]],
                                   [[object()]]],
                         ids=["complex", "ragged", "huge-integer", "object"])
def test_unreadable_array_is_refused(array):
    # a ComplexWarning, ValueError, OverflowError or TypeError escaped
    with pytest.raises(oaasim.ValidationError, match="is not an array of real numbers"):
        oaasim.closeness(array)


@pytest.mark.parametrize("not_a_list", [None, 5])
@pytest.mark.parametrize("name", ["ProductPlan", "build_lcu_encoding", "custom_product_plan",
                                  "emit_outputs", "product_of_factors"])
def test_list_argument_refuses_a_non_list(name, not_a_list, tmp_path):
    # each let a bare TypeError escape from iterating its list argument
    calls = {
        "ProductPlan": lambda: ProductPlan(not_a_list),
        "build_lcu_encoding": lambda: build_lcu_encoding(not_a_list, [1.0]),
        "custom_product_plan": lambda: custom_product_plan(not_a_list),
        "emit_outputs": lambda: oaasim.emit_outputs(not_a_list, "csv", tmp_path / "out.csv"),
        "product_of_factors": lambda: oaasim.product_of_factors(not_a_list),
    }
    with pytest.raises(oaasim.ValidationError, match="must be a list"):
        calls[name]()


@pytest.mark.parametrize("name", ["ExperimentConfig", "chained_product_circuit", "emit_outputs",
                                  "encode", "matrix_function_oracle", "oblivious_aa"])
def test_choice_argument_refuses_an_array(name, tmp_path):
    # each let numpy's ValueError escape from comparing an array with its names
    choice = np.array(["literal", "adjoint"])
    enc = ENCODED[0]
    calls = {
        "ExperimentConfig": lambda: ExperimentConfig(variant=choice),
        "chained_product_circuit": lambda: oaasim.chained_product_circuit(
            custom_product_plan([SMALL]), [0.6, 0.8], choice),
        "emit_outputs": lambda: oaasim.emit_outputs(_RECORDS[:1], choice, tmp_path / "out.csv"),
        "encode": lambda: encode(SMALL, [0.6, 0.8], choice),
        "matrix_function_oracle": lambda: oaasim.matrix_function_oracle(SMALL, choice),
        "oblivious_aa": lambda: oaasim.oblivious_aa(enc.circuit, enc.state, 1, choice,
                                                    enc.target),
    }
    with pytest.raises(oaasim.ValidationError, match="must be one of"):
        calls[name]()


@pytest.mark.parametrize("record", [custom_product_plan([SMALL]), oaasim.sym_eigen(SMALL),
                                    ENCODED[0].embedding, ENCODED[0], ENCODED[0].state],
                         ids=lambda r: type(r).__name__)
def test_array_records_compare_by_identity(record):
    # the generated __eq__ compared arrays, so an equal copy raised numpy's
    # ValueError, and the generated __hash__ (None for StateVector) a TypeError
    twin = copy.deepcopy(record)
    assert record == record and record in [record]
    assert record != twin and twin not in [record]
    assert len({record, twin, record}) == 2
