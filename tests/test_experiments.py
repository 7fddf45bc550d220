"""Experiment harness: configuration validation, seeded determinism, CSV
and SVG emission."""

import json
import re
import struct
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oaasim.circuit
import oaasim.experiments
from oaasim import (
    VARIANTS,
    EnsembleRecord,
    ConvergenceError,
    ExperimentConfig,
    NoGoodAmplitudeError,
    NumericalError,
    SplitMix64,
    StageRecord,
    TraceRecord,
    ValidationError,
    build_estimated_embedding,
    build_row_encoding,
    chained_product_circuit,
    cos_product_factors,
    derive_seed,
    emit_outputs,
    encode,
    exp_product_factors,
    iteration_count,
    mu_normalize,
    oblivious_aa,
    prepare_input,
    random_input,
    random_symmetric,
    run_ensemble,
    run_trace,
)
from oaasim.experiments import EXPERIMENT_KINDS, _run_trial, csv_lines

SMALL = dict(dims=(8, 16), trials=3, seed=5)


def test_config_validation():
    ExperimentConfig()  # defaults are valid
    with pytest.raises(ValidationError):
        ExperimentConfig(dims=())
    with pytest.raises(ValidationError):
        ExperimentConfig(dims=(6,))  # even but not a power of two
    with pytest.raises(ValidationError):
        ExperimentConfig(dims=(7,))
    with pytest.raises(ValidationError, match="embedded dimension 12 must be a power of two$"):
        ExperimentConfig(dims=(12,))
    with pytest.raises(ValidationError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(variant="reverse")
    with pytest.raises(ValidationError):
        ExperimentConfig(fidelity_mode="exact")
    with pytest.raises(ValidationError):
        ExperimentConfig(experiment="sweep")


@pytest.mark.parametrize("bad", [
    dict(trials=2.5), dict(seed=2.5), dict(trials=True), dict(seed="1"),
    dict(dims=("16",)), dict(dims=(16.7,)), dict(dims=(16.0,)), dict(dims=(True,)),
])
def test_config_refuses_non_integer_counts(bad):
    with pytest.raises(ValidationError, match="must be an integer"):
        ExperimentConfig(**bad)


@pytest.mark.parametrize("dims", ["16", b"16", "16,32"])
def test_config_refuses_text_dims(dims):
    # "16" was read as the digits "1" and "6"
    with pytest.raises(ValidationError, match="dims must be a sequence of integers"):
        ExperimentConfig(dims=dims)


def test_config_refuses_a_bare_dimension_and_out_of_range_seeds():
    # dims=16 raised TypeError; seed -1 ran as seed 2**64 - 1
    with pytest.raises(ValidationError, match="sequence"):
        ExperimentConfig(dims=16)
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="seed must be"):
            ExperimentConfig(seed=seed)
    assert ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_each_matrix_is_encoded_once(monkeypatch):
    # fixed-matrix trials share their dimension's circuit, and a chain
    # encodes each distinct factor object once
    calls = []

    def counting(u):
        calls.append(u.shape[0])
        return build_row_encoding(u)

    monkeypatch.setattr(oaasim.circuit, "build_row_encoding", counting)

    def count(run, *args):
        calls.clear()
        run(*args)
        return len(calls)

    fixed = ExperimentConfig(experiment="fixed-matrix", **SMALL)
    assert count(run_ensemble, fixed) == len(SMALL["dims"])
    ensemble = ExperimentConfig(experiment="ensemble", **SMALL)
    assert count(run_ensemble, ensemble) == len(SMALL["dims"]) * SMALL["trials"]
    a = np.diag([0.3, -0.2])
    vec = np.array([1.0, 0.0])
    assert count(chained_product_circuit, exp_product_factors(a, 16), vec) == 1
    assert count(chained_product_circuit, cos_product_factors(a, 8), vec) == 16


def test_config_refuses_duplicate_dims():
    with pytest.raises(ValidationError, match="distinct"):
        ExperimentConfig(dims=(4, 4))
    with pytest.raises(ValidationError, match="distinct"):
        ExperimentConfig(dims=(8, 16, 8))


def test_config_accepts_numpy_integers():
    cfg = ExperimentConfig(dims=(np.int64(4), 8), trials=np.int32(2), seed=np.int64(3))
    assert cfg.dims == (4, 8) and cfg.trials == 2 and cfg.seed == 3
    assert all(type(v) is int for v in (*cfg.dims, cfg.trials, cfg.seed))
    assert run_ensemble(cfg) == run_ensemble(ExperimentConfig(dims=(4, 8), trials=2, seed=3))


def test_random_draws_refuse_bad_sizes():
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ValidationError):
            random_input(bad, SplitMix64(1))
        with pytest.raises(ValidationError):
            random_symmetric(bad, SplitMix64(1))


def test_random_symmetric_layout_and_bounds():
    gen = SplitMix64(1)
    draws = SplitMix64(1).uniform_signed_array(3)
    a = random_symmetric(2, gen)
    # upper triangle drawn row by row, then mirrored
    assert a[0, 0] == draws[0]
    assert a[0, 1] == draws[1]
    assert a[1, 0] == draws[1]
    assert a[1, 1] == draws[2]
    big = random_symmetric(20, SplitMix64(2))
    assert np.array_equal(big, big.T)
    assert np.abs(big).max() < 1.0
    assert np.array_equal(big, random_symmetric(20, SplitMix64(2)))


def test_random_input_unit_norm():
    vec = random_input(16, SplitMix64(3))
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(vec, random_input(16, SplitMix64(3)))


def test_random_input_redraws_a_zero_draw_once(monkeypatch):
    draws = iter([np.zeros(2), np.array([3.0, -4.0]), np.zeros(2)])
    monkeypatch.setattr(SplitMix64, "uniform_signed_array", lambda self, count: next(draws))
    assert np.array_equal(random_input(2, SplitMix64(1)), [0.6, -0.8])
    draws = iter([np.zeros(2), np.zeros(2), np.array([3.0, -4.0])])
    with pytest.raises(NumericalError, match="zero vector twice"):
        random_input(2, SplitMix64(1))


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_run_stays_below_the_size_estimate(variant):
    # the constant of the size ceiling covers the measured peak of one trial
    # and of one encode + oblivious_aa, each at embedded dimension 256
    dim = 256
    cfg = ExperimentConfig(dims=(dim,), trials=1, variant=variant)
    a, vec = random_symmetric(dim // 2, SplitMix64(1)), random_input(dim, SplitMix64(2))

    def amplify():
        enc = encode(a, vec)
        oblivious_aa(enc.circuit, enc.state, iteration_count(dim), variant, enc.target,
                     return_final_state=True)

    for run in (lambda: _run_trial(cfg, dim, 0, None), amplify):
        assert _traced_peak(run) < oaasim.circuit.RUN_BYTES_PER_DIM2 * dim * dim


def test_ensemble_records_order_and_determinism():
    cfg = ExperimentConfig(experiment="ensemble", variant="adjoint", **SMALL)
    serial = run_ensemble(cfg)
    assert [(r.dim, r.trial) for r in serial] == [
        (d, t) for d in (8, 16) for t in range(3)
    ]
    assert run_ensemble(cfg) == serial
    for rec in serial:
        assert 0.0 <= rec.final_probability <= 1.0 + 1e-12
        assert 0.0 <= rec.final_fidelity <= 1.0 + 1e-12
        assert rec.ef == pytest.approx((1.0 - rec.c2) ** 2, abs=1e-12)
        assert rec.k_used == (2 if rec.dim == 8 else 3)


# row encodings of orders 2-256, both variants, the final states too at 256
# after an even and an odd k (the iterate's -1 is applied once, at the end),
# and a small ensemble; every float printed in hex so that equal output means
# bit-identical records
BLAS_RECORDS_SCRIPT = """
import json
from dataclasses import astuple
from oaasim import (VARIANTS, ExperimentConfig, SplitMix64,
                    build_estimated_embedding, closeness, encode,
                    iteration_count, mu_normalize, oblivious_aa, polar_symmetric,
                    random_input, random_symmetric, run_ensemble, sym_eigen)

def hexed(record):
    return [x.hex() if isinstance(x, float) else x for x in astuple(record)]

out = []
for order in (1, 2, 4, 8, 16, 32, 64, 128):
    a = random_symmetric(order, SplitMix64(order))
    enc = encode(a, random_input(order, SplitMix64(order + 1000)))
    for variant in VARIANTS:
        trace = oblivious_aa(enc.circuit, enc.state, iteration_count(2 * order),
                             variant, enc.target)
        out.append([hexed(r) for r in trace.records])
    pair = sym_eigen(a)
    factors = (pair.values, pair.vectors, *polar_symmetric(a))
    out.append([[x.hex() for x in m.ravel().tolist()] for m in factors])
cfg = ExperimentConfig(dims=(16, 32), trials=2, seed=7, variant="adjoint")
out.append([hexed(r) for r in run_ensemble(cfg)])
for order in (8, 16, 32, 64, 128):  # closeness at embedded dims 16 to 256
    normalized, mu = mu_normalize(random_symmetric(order, SplitMix64(order + 2000)))
    report = closeness(build_estimated_embedding(normalized, mu).u)
    out.append([report.c2.hex(), report.cF.hex(), report.phi.hex()])
enc = encode(random_symmetric(128, SplitMix64(3000)), random_input(128, SplitMix64(3001)))
for variant in VARIANTS:  # the structured adjoint state; literal's axis-1 GEMM
    for k in (11, 12):
        trace, final = oblivious_aa(enc.circuit, enc.state, k, variant, enc.target,
                                    return_final_state=True)
        out.append([hexed(r) for r in trace.records]
                   + [x.hex() for x in final.grid.ravel().tolist()])
pair = sym_eigen(random_symmetric(256, SplitMix64(256)))
print(json.dumps([out, pair.values.tolist(), pair.vectors.tolist()]))
"""


def test_records_independent_of_blas_threads(run_child):
    # bitwise up to order 128 and for closeness up to embedded order 256;
    # LAPACK eigh at order 256 is reproducible across BLAS thread counts
    # only within a tolerance
    outputs = [json.loads(run_child(BLAS_RECORDS_SCRIPT, threads)) for threads in (1, 2)]
    (exact, values, vectors), (exact_2, values_2, vectors_2) = outputs
    assert len(exact) == 34
    assert exact == exact_2
    values, values_2 = np.array(values), np.array(values_2)
    assert np.abs(values - values_2).max() <= 1e-14 * np.abs(values).max()
    assert np.abs(np.array(vectors) - np.array(vectors_2)).max() <= 1e-12


def test_ensemble_record_is_trace_peak():
    # re-derive one trial by hand: same derived seeds, same circuit, then
    # pick the highest-probability record from the raw trace
    cfg = ExperimentConfig(dims=(16,), trials=1, seed=5, variant="adjoint")
    rec = run_ensemble(cfg)[0]

    a = random_symmetric(8, SplitMix64(derive_seed(5, 16, 0, 0)))
    normalized, mu = mu_normalize(a)
    emb = build_estimated_embedding(normalized, mu)
    circ = build_row_encoding(emb.u)
    vec = random_input(16, SplitMix64(derive_seed(5, 16, 0, 1)))
    state = prepare_input(circ, vec)
    trace = oblivious_aa(circ, state, iteration_count(16), "adjoint", emb.u @ vec)
    probs = [r.probability for r in trace.records]
    best = trace.records[int(np.argmax(probs))]
    assert rec.final_probability == best.probability
    assert rec.final_fidelity == best.fidelity
    assert rec.k_used == iteration_count(16)


def test_fixed_matrix_shares_closeness_per_dim():
    cfg = ExperimentConfig(experiment="fixed-matrix", variant="adjoint", **SMALL)
    records = run_ensemble(cfg)
    for dim in (8, 16):
        c2s = {r.c2 for r in records if r.dim == dim}
        assert len(c2s) == 1
    # trials still differ through their inputs
    fids = {r.final_fidelity for r in records if r.dim == 8}
    assert len(fids) == 3
    # the ensemble draws a different matrix per trial
    ens = run_ensemble(ExperimentConfig(experiment="ensemble", variant="adjoint", **SMALL))
    assert len({r.c2 for r in ens if r.dim == 8}) == 3
    # trial 0 uses the same derived seeds in both kinds
    assert ens[0].c2 == records[0].c2


def test_trace_runs_two_past_the_marker():
    cfg = ExperimentConfig(experiment="trace", variant="adjoint", **SMALL)
    results = run_trace(cfg)
    assert [r.dim for r in results] == [8, 16]
    for res in results:
        assert res.k_marker == (2 if res.dim == 8 else 3)
        assert len(res.trace.records) == res.k_marker + 3
        assert res.trace.records[0].fidelity == pytest.approx(1.0, abs=1e-12)


def test_kind_mismatch_rejected():
    with pytest.raises(ValidationError,
                       match=re.escape("experiment must be one of ('trace',), got 'ensemble'")):
        run_trace(ExperimentConfig(experiment="ensemble", **SMALL))
    with pytest.raises(ValidationError, match=re.escape(
            "experiment must be one of ('ensemble', 'fixed-matrix'), got 'trace'")):
        run_ensemble(ExperimentConfig(experiment="trace", **SMALL))


def test_a_failed_trial_names_its_dim_trial_and_seed(monkeypatch):
    # the failure depends on the trial's seeded input alone, so the place
    # the message names is enough to re-run that trial by itself
    def picky(length, rng):
        vec = random_input(length, rng)
        if vec[0] > 0.2:
            raise NoGoodAmplitudeError(f"first entry {vec[0]!r}")
        return vec

    monkeypatch.setattr(oaasim.experiments, "random_input", picky)
    cfg = ExperimentConfig(experiment="ensemble", variant="adjoint", **SMALL)
    with pytest.raises(NoGoodAmplitudeError) as failed:
        run_ensemble(cfg)
    place = re.fullmatch(r"dim (\d+) trial (\d+) \(seed (\d+)\): (first entry .*)",
                         str(failed.value))
    assert place, str(failed.value)
    dim, trial, seed = map(int, place.groups()[:3])
    assert (dim, trial, seed) == (8, 1, SMALL["seed"])
    alone = ExperimentConfig(dims=(dim,), trials=1, seed=seed, variant="adjoint")
    with pytest.raises(NoGoodAmplitudeError) as again:
        _run_trial(alone, dim, trial, None)
    assert str(again.value) == place.group(4)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_a_shared_matrix_failure_names_trial_0(kind, monkeypatch):
    # a fixed-matrix or trace dimension encodes trial 0's matrix for every trial
    def refuse(order, rng):
        raise ConvergenceError(f"order {order}")

    monkeypatch.setattr(oaasim.experiments, "random_symmetric", refuse)
    cfg = ExperimentConfig(experiment=kind, **SMALL)
    with pytest.raises(ConvergenceError, match=r"^dim 8 trial 0 \(seed 5\): order 4$"):
        (run_trace if kind == "trace" else run_ensemble)(cfg)


def test_csv_lines_round_trip(tmp_path):
    cfg = ExperimentConfig(experiment="ensemble", variant="adjoint", **SMALL)
    records = run_ensemble(cfg)
    lines = csv_lines([asdict(r) for r in records])
    assert lines[0] == "trial,dim,c2,ef,final_fidelity,final_probability,k_used"
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert int(first[0]) == records[0].trial
    assert int(first[1]) == records[0].dim
    # repr round-trips the floats exactly
    assert float(first[2]) == records[0].c2
    assert float(first[4]) == records[0].final_fidelity

    traces = run_trace(ExperimentConfig(experiment="trace", **SMALL))
    trace_lines = emit_outputs(traces, "csv", tmp_path / "trace.csv")[0].read_text().split("\n")
    assert trace_lines[0] == "dim,iteration,probability,fidelity,k_marker"
    row = trace_lines[1].split(",")
    assert row[0] == "8" and row[1] == "0" and row[4] == "2"


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308)
FLOATS = st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)


def _records(cls):
    by_field = {f.name: st.integers(0, 2**31) if f.type == "int" else FLOATS for f in fields(cls)}
    return st.lists(st.builds(cls, **by_field), min_size=1, max_size=4)


@given(st.sampled_from((EnsembleRecord, TraceRecord, StageRecord)).flatmap(_records))
def test_csv_lines_header_and_exact_floats(records):
    # header is the record's field names; every value reads back bit-exactly
    names = [f.name for f in fields(type(records[0]))]
    lines = csv_lines([asdict(r) for r in records])
    assert lines[0].split(",") == names
    assert len(lines) == 1 + len(records)
    for line, rec in zip(lines[1:], records):
        for text, name in zip(line.split(","), names, strict=True):
            value = getattr(rec, name)
            if isinstance(value, int):
                assert int(text) == value
            else:
                assert struct.pack("<d", float(text)) == struct.pack("<d", value)


def test_emit_outputs_csv_and_svg(tmp_path):
    cfg = ExperimentConfig(experiment="ensemble", variant="adjoint", **SMALL)
    records = run_ensemble(cfg)
    csv_path = tmp_path / "out" / "ensemble.csv"
    written = emit_outputs(records, "csv", csv_path)
    assert written == [csv_path]
    text = csv_path.read_text()
    assert text.startswith("trial,dim,c2,ef,final_fidelity,final_probability,k_used\n")
    assert len(text.strip().split("\n")) == 7

    svg_written = emit_outputs(records, "svg", tmp_path / "plots")
    assert [p.name for p in svg_written] == ["ensemble_dim8.svg", "ensemble_dim16.svg"]
    first_bytes = svg_written[0].read_text()
    assert first_bytes.startswith("<svg")
    assert "</svg>" in first_bytes
    # byte-identical on rerun
    emit_outputs(records, "svg", tmp_path / "plots")
    assert svg_written[0].read_text() == first_bytes

    traces = run_trace(ExperimentConfig(experiment="trace", **SMALL))
    trace_svgs = emit_outputs(traces, "svg", tmp_path / "plots")
    assert [p.name for p in trace_svgs] == ["trace_dim8.svg", "trace_dim16.svg"]
    assert "stroke-dasharray" in trace_svgs[0].read_text()


def test_emit_rejects_bad_arguments(tmp_path):
    with pytest.raises(ValidationError):
        emit_outputs([], "csv", tmp_path / "x.csv")
    rec = EnsembleRecord(0, 8, 0.1, 0.81, 0.9, 0.7, 2)
    with pytest.raises(ValidationError):
        emit_outputs([rec], "pdf", tmp_path / "x.pdf")
    # records of two kinds, or no records, raised AttributeError or TypeError
    trace = run_trace(ExperimentConfig(dims=(2,), trials=1, experiment="trace"))[0]
    for results in ([rec, trace], [trace, rec], ["not a record"]):
        for fmt in ("csv", "svg"):
            with pytest.raises(ValidationError, match="EnsembleRecord or all TraceResult"):
                emit_outputs(results, fmt, tmp_path / "mixed")


def test_projected_mode_runs():
    cfg = ExperimentConfig(
        dims=(8,), trials=2, seed=9, variant="adjoint",
        fidelity_mode="projected", experiment="ensemble",
    )
    records = run_ensemble(cfg)
    for rec in records:
        assert 0.0 <= rec.final_probability <= 1.0
        assert 0.0 <= rec.final_fidelity <= 1.0 + 1e-12
