"""Command line behavior: exit codes, config echo, payload formats, and
deterministic experiment output."""

import argparse
import contextlib
import inspect
import io
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaasim import (FIDELITY_MODES, VARIANTS, ExperimentConfig, SplitMix64,
                    chained_product_circuit, encode, random_input, random_symmetric,
                    write_matrix)
from oaasim import circuit
from oaasim.cli import build_parser, main
from oaasim.experiments import EXPERIMENT_KINDS
from oaasim.linalg import _read_vector
from oaasim.matfunc import FUNCTIONS


def write_unchecked(path, m):
    """Write m in the matrix file format, non-finite entries included:
    write_matrix refuses to write those."""
    a = np.asarray(m, dtype=float).reshape(len(m), -1)
    rows = [" ".join(repr(float(x)) for x in row) for row in a]
    path.write_text(f"{a.shape[0]} {a.shape[1]}\n" + "\n".join(rows) + "\n")


@pytest.fixture()
def matrix_file(tmp_path):
    a = random_symmetric(4, SplitMix64(3))
    path = tmp_path / "a.txt"
    write_matrix(path, a)
    return path


@pytest.fixture()
def input_file(tmp_path):
    vec = random_input(4, SplitMix64(5))
    path = tmp_path / "in.txt"
    write_matrix(path, vec)
    return path


def test_embed_reports_closeness(tmp_path, matrix_file, capsys):
    out = tmp_path / "u.txt"
    code = main(["embed", "--matrix", str(matrix_file), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert "config:" in captured.err
    keys = [line.split("=")[0] for line in captured.out.strip().split("\n")]
    assert keys == ["mu", "c2", "cF", "phi", "ef", "u_written"]
    u = np.loadtxt(str(out), skiprows=1)
    assert u.shape == (8, 8)
    assert np.allclose(u, u.T, atol=1e-15)


def test_embed_near_overflow_matches_the_scaled_matrix(tmp_path, capsys):
    # 1e308 entries printed mu=inf, c2=4.9e-32 and ef=1.0 and exited 0
    reports = []
    for name, entry in (("huge", 1e308), ("unit", math.ldexp(1e308, -1023))):
        path = tmp_path / f"{name}.txt"
        write_matrix(path, np.full((2, 2), entry))
        out = tmp_path / f"{name}_u.txt"
        assert main(["embed", "--matrix", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        reports.append((float(lines[0].split("=")[1]), lines[1:5], out.read_text()))
    (huge_mu, huge_lines, huge_u), (unit_mu, unit_lines, unit_u) = reports
    assert huge_mu == math.ldexp(unit_mu, 1023)
    assert huge_lines == unit_lines and huge_u == unit_u


@pytest.mark.parametrize("power", [664, -664])
def test_amplify_input_scale_is_immaterial(tmp_path, matrix_file, power, capsys):
    # entries near 1e200 overflowed the input norm and near 1e-200
    # underflowed it; scaling by a power of two must change nothing
    vec = random_input(4, SplitMix64(5))
    outputs = []
    for name, entries in (("plain", vec), ("scaled", np.ldexp(vec, power))):
        path = tmp_path / f"{name}.txt"
        write_matrix(path, entries)
        code = main(["amplify", "--matrix", str(matrix_file), "--input", str(path),
                     "--variant", "adjoint"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_experiment_rejects_seed_outside_64_bits(tmp_path, capsys):
    # seed -1 ran and gave the records of seed 2**64 - 1
    for seed in ("-1", str(2**64)):
        code = main(["experiment", "--kind", "ensemble", "--dims", "8", "--trials", "1",
                     "--seed", seed, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "seed must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_embed_exact_is_an_argument_error(tmp_path, capsys):
    # the exact square-root embedding is gone; --exact ran it
    path = tmp_path / "ones.txt"
    write_matrix(path, np.ones((4, 4)))
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--matrix", str(path), "--exact", "--out", str(tmp_path / "u.txt")])
    assert exc.value.code == 1
    assert "unrecognized arguments: --exact" in capsys.readouterr().err
    assert not (tmp_path / "u.txt").exists()


def test_amplify_stdout_trace(matrix_file, input_file, capsys):
    code = main([
        "amplify", "--matrix", str(matrix_file), "--input", str(input_file),
        "--variant", "adjoint",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "iteration,probability,fidelity"
    # default iteration count for an order-8 operator is 2
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert int(last[0]) == 2
    assert 0.0 <= float(last[1]) <= 1.0


def test_amplify_out_file_and_k(tmp_path, matrix_file, input_file, capsys):
    out = tmp_path / "trace.csv"
    code = main([
        "amplify", "--matrix", str(matrix_file), "--input", str(input_file),
        "--k", "0", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert out.read_text().strip().split("\n")[0] == "iteration,probability,fidelity"
    assert len(out.read_text().strip().split("\n")) == 2
    assert "final_probability=" in captured.out
    assert "final_fidelity=" in captured.out


def test_amplify_one_by_one_literal(tmp_path, capsys):
    # the literal iterate empties the good states at k = 1; the trace
    # still comes out, with that iteration recorded as zero
    matrix = tmp_path / "one.txt"
    vec = tmp_path / "one_in.txt"
    write_matrix(matrix, np.array([[0.5]]))
    write_matrix(vec, np.array([1.0]))
    code = main(["amplify", "--matrix", str(matrix), "--input", str(vec),
                 "--variant", "literal"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "iteration,probability,fidelity"
    assert len(lines) == 3
    assert lines[2] == "1,0.0,0.0"


def test_amplify_rejects_negative_k(matrix_file, input_file, capsys):
    code = main([
        "amplify", "--matrix", str(matrix_file), "--input", str(input_file),
        "--k", "-1",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_amplify_rejects_nan_matrix(tmp_path, input_file, capsys):
    a = random_symmetric(4, SplitMix64(3))
    a[1, 2] = a[2, 1] = float("nan")
    path = tmp_path / "nan.txt"
    write_unchecked(path, a)
    code = main(["amplify", "--matrix", str(path), "--input", str(input_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert "non-finite" in captured.err
    assert captured.out == ""


def test_amplify_rejects_nan_input(tmp_path, matrix_file, capsys):
    vec = random_input(4, SplitMix64(5))
    vec[2] = float("nan")
    path = tmp_path / "nan_in.txt"
    write_unchecked(path, vec)
    code = main(["amplify", "--matrix", str(matrix_file), "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "non-finite" in captured.err
    assert captured.out == ""


def test_argument_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["amplify"])  # missing required arguments
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


def test_parser_serves_calls_after_an_error(matrix_file, input_file, capsys):
    argv = ["amplify", "--matrix", str(matrix_file), "--input", str(input_file)]
    build_parser.cache_clear()
    assert main(argv) == 0
    first = capsys.readouterr().out
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["amplify"])
    assert info.value.code == 1
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert build_parser.cache_info().misses == 1


def test_every_choice_defaults_to_the_first_entry_of_its_tuple():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    variants = {name: p.get_default("variant") for name, p in commands.items()}
    modes = {name: p.get_default("fidelity") for name, p in commands.items()}
    assert variants == {"embed": None, "amplify": VARIANTS[0], "experiment": VARIANTS[0],
                        "product": VARIANTS[0], "matfunc": VARIANTS[0]}
    assert modes == {"embed": None, "amplify": FIDELITY_MODES[0],
                     "experiment": FIDELITY_MODES[0], "product": None, "matfunc": None}
    cfg = ExperimentConfig()
    assert (cfg.variant, cfg.fidelity_mode, cfg.experiment) == (
        VARIANTS[0], FIDELITY_MODES[0], EXPERIMENT_KINDS[0])
    assert inspect.signature(encode).parameters["fidelity_mode"].default == FIDELITY_MODES[0]
    assert inspect.signature(chained_product_circuit).parameters["variant"].default == VARIANTS[0]


def test_every_cli_choice_is_its_library_tuple():
    # the command line keeps no list of names of its own
    tuples = {"kind": EXPERIMENT_KINDS, "variant": VARIANTS, "fidelity": FIDELITY_MODES,
              "fn": FUNCTIONS}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    seen = set()
    for name, parser in commands.items():
        for action in parser._actions:
            if action.choices is not None:
                assert action.choices is tuples[action.dest], (name, action.dest)
                seen.add(action.dest)
    assert seen == set(tuples)


def test_fixed_matrix_kind_keeps_its_library_name(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["experiment", "--kind", "fixed-matrix", "--dims", "8", "--trials", "2",
                 "--out", str(out)]) == 0
    assert " kind=fixed-matrix " in capsys.readouterr().err
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*")) == [
        "fixed-matrix.csv", "fixed-matrix/ensemble_dim8.svg"]
    with pytest.raises(SystemExit) as info:
        main(["experiment", "--kind", "fixed", "--out", str(out)])
    assert info.value.code == 1
    assert "argument --kind: invalid choice: 'fixed'" in capsys.readouterr().err


def test_each_kind_keeps_its_charts_in_one_directory(tmp_path, capsys):
    # both ensemble-record kinds name their charts ensemble_dim*.svg: in one
    # directory the second run overwrote the first run's charts
    out = tmp_path / "run"
    for kind in EXPERIMENT_KINDS[:2]:
        assert main(["experiment", "--kind", kind, "--dims", "8", "--trials", "2", "--seed", "3",
                     "--out", str(out)]) == 0
    written = capsys.readouterr().out.split()
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*")) == [
        "ensemble.csv", "ensemble/ensemble_dim8.svg",
        "fixed-matrix.csv", "fixed-matrix/ensemble_dim8.svg"]
    assert written[1] == f"written={out / 'ensemble' / 'ensemble_dim8.svg'}"
    ensemble, fixed = (out / kind / "ensemble_dim8.svg" for kind in EXPERIMENT_KINDS[:2])
    assert ensemble.read_bytes() != fixed.read_bytes()


def test_missing_file_exits_one(capsys):
    code = main(["embed", "--matrix", "/nonexistent/a.txt"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_experiment_outputs_and_determinism(tmp_path, capsys):
    args = [
        "experiment", "--kind", "trace", "--dims", "8,16", "--trials", "1",
        "--seed", "11", "--variant", "adjoint",
    ]
    code = main(args + ["--out", str(tmp_path / "run1")])
    captured = capsys.readouterr()
    assert code == 0
    assert "seed=11" in captured.err
    csv1 = (tmp_path / "run1" / "trace.csv").read_text()
    assert csv1.startswith("dim,iteration,probability,fidelity,k_marker")
    assert (tmp_path / "run1" / "trace" / "trace_dim8.svg").exists()
    assert (tmp_path / "run1" / "trace" / "trace_dim16.svg").exists()

    code = main(args + ["--out", str(tmp_path / "run2")])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "run2" / "trace.csv").read_text() == csv1
    svg1 = (tmp_path / "run1" / "trace" / "trace_dim8.svg").read_bytes()
    assert (tmp_path / "run2" / "trace" / "trace_dim8.svg").read_bytes() == svg1


def test_experiment_ensemble_csv_shape(tmp_path, capsys):
    code = main([
        "experiment", "--kind", "ensemble", "--dims", "8", "--trials", "2",
        "--seed", "4", "--variant", "adjoint", "--out", str(tmp_path / "ens"),
    ])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "ens" / "ensemble.csv").read_text().strip().split("\n")
    assert lines[0] == "trial,dim,c2,ef,final_fidelity,final_probability,k_used"
    assert len(lines) == 3


def test_experiment_rejects_bad_dims(tmp_path, capsys):
    code = main([
        "experiment", "--kind", "ensemble", "--dims", "9", "--trials", "1",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    code = main([
        "experiment", "--kind", "ensemble", "--dims", "abc", "--trials", "1",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1


def test_allocation_failure_exits_one(tmp_path, capsys, monkeypatch):
    # a dim-2^30 ensemble asks for 1 EiB, beyond the address space, so the
    # allocation fails at once; never try a size that could be allocated.
    # With the size ceiling off, numpy's MemoryError still exits 1
    monkeypatch.setattr(circuit, "_physical_memory", lambda: math.inf)
    out = tmp_path / "x"
    code = main([
        "experiment", "--kind", "ensemble", "--dims", "1073741824", "--trials", "1",
        "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: Unable to allocate" in err and "Traceback" not in err
    assert not out.exists()


def test_a_size_beyond_physical_memory_exits_one(tmp_path, capsys, monkeypatch, matrix_file,
                                                input_file):
    # the memory read is patched small: never look for the ceiling by allocating
    monkeypatch.setattr(circuit, "_physical_memory", lambda: 5000)
    out = tmp_path / "x"
    assert main(["experiment", "--kind", "ensemble", "--dims", "8,16", "--trials", "1",
                 "--out", str(out)]) == 1
    assert ("error: embedded dimension 16 needs an estimated 24,576 bytes, "
            "more than the 5,000 bytes of physical memory") in capsys.readouterr().err
    assert not out.exists()
    # an order-4 matrix embeds at dimension 8
    assert main(["amplify", "--matrix", str(matrix_file), "--input", str(input_file),
                 "--out", str(out)]) == 1
    assert ("error: embedded dimension 8 needs an estimated 6,144 bytes, "
            "more than the 5,000 bytes of physical memory") in capsys.readouterr().err
    assert not out.exists()


def test_order_errors_name_the_given_order(tmp_path, capsys):
    a3, v3 = tmp_path / "a3.txt", tmp_path / "v3.txt"
    write_matrix(a3, random_symmetric(3, SplitMix64(7)))
    write_matrix(v3, random_input(3, SplitMix64(8)))
    for argv in (["amplify", "--matrix", str(a3), "--input", str(v3)],
                 ["product", "--factors", str(a3), str(a3)],
                 ["matfunc", "--fn", "exp", "--matrix", str(a3), "--trunc", "2"]):
        assert main(argv) == 1
        assert "error: matrix order 3 is not a power of two" in capsys.readouterr().err
    code = main(["experiment", "--kind", "ensemble", "--dims", "12", "--trials", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error: embedded dimension 12 must be a power of two" in capsys.readouterr().err


def test_product_chain(tmp_path, capsys):
    h = np.full((4, 4), 0.5)
    np.fill_diagonal(h, 0.5)
    w = np.eye(4) - 2.0 * np.outer([0.6, 0.8, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0])
    f1 = tmp_path / "w1.txt"
    write_matrix(f1, w)
    code = main([
        "product", "--factors", str(f1), str(f1), "--variant", "adjoint",
        "--out", str(tmp_path / "prod"),
    ])
    captured = capsys.readouterr()
    assert code == 0
    stages = (tmp_path / "prod" / "stages.csv").read_text().strip().split("\n")
    assert stages[0] == "stage,probability,fidelity,mu_scale"
    assert len(stages) == 3
    final = _read_vector(tmp_path / "prod" / "final_vector.txt")
    assert final.size == 8
    fid_line = [l for l in captured.out.split("\n") if l.startswith("final_fidelity_vs_oracle=")]
    assert len(fid_line) == 1
    # an involution applied twice returns the input
    assert float(fid_line[0].split("=")[1]) == pytest.approx(1.0, abs=1e-9)


def test_a_failed_chain_names_its_stage(tmp_path, capsys):
    # the literal iterate on the 2x2 identity empties the good states of stage 0
    eye = tmp_path / "eye.txt"
    write_matrix(eye, np.eye(2))
    assert main(["product", "--factors", str(eye), str(eye), "--variant", "literal"]) == 2
    assert "numerical error: stage 0 of 2: amplitude mass " in capsys.readouterr().err


def test_matfunc_stdout(matrix_file, capsys):
    code = main([
        "matfunc", "--fn", "exp", "--matrix", str(matrix_file),
        "--trunc", "3", "--variant", "adjoint",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "stage,probability,fidelity,mu_scale"
    assert len([l for l in lines if l[0].isdigit()]) == 3
    assert lines[-1].startswith("final_fidelity_vs_oracle=")


def test_matfunc_rejects_bad_truncation(matrix_file, capsys):
    code = main([
        "matfunc", "--fn", "cos", "--matrix", str(matrix_file), "--trunc", "0",
    ])
    assert code == 1


def test_matfunc_refuses_an_overflowing_cos_factor(tmp_path, capsys):
    # the finite input was blamed: "matrix has a non-finite entry"
    path = tmp_path / "big.txt"
    write_matrix(path, np.diag([1e308, 1.0]))
    code = main(["matfunc", "--fn", "cos", "--matrix", str(path), "--trunc", "2",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: cos factor I -+ 2 A (j = 0) overflows a float" in err
    assert "non-finite" not in err


def test_plan_rejects_zero_or_mismatched_input(tmp_path, matrix_file, capsys):
    zero, short = tmp_path / "zero.txt", tmp_path / "short.txt"
    write_matrix(zero, np.zeros(4))
    write_matrix(short, random_input(3, SplitMix64(6)))
    base = ["matfunc", "--fn", "exp", "--matrix", str(matrix_file), "--trunc", "2"]
    assert main(base + ["--input", str(zero)]) == 1
    assert "is zero" in capsys.readouterr().err
    assert main(base + ["--input", str(short)]) == 1
    assert "does not match the factor order 4" in capsys.readouterr().err


def test_module_entry_point_help(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "oaasim", "--help"],
        env=child_env(1), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "embed" in proc.stdout
    assert "amplify" in proc.stdout


def test_product_rejects_zero_reference(tmp_path, capsys):
    # diag(0, 1) diag(1, 0) maps every input to zero, so the oracle
    # fidelity is undefined: exit 1 rather than print nan
    p1, p2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
    write_matrix(p1, np.diag([1.0, 0.0]))
    write_matrix(p2, np.diag([0.0, 1.0]))
    code = main(["product", "--factors", str(p1), str(p2)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "fidelity of a zero vector is undefined" in captured.err


def test_non_utf8_matrix_file_exits_one(tmp_path, capsys):
    # the bytes ff fe 00 01 escaped read_matrix as a UnicodeDecodeError
    path = tmp_path / "a.txt"
    path.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x01]))
    assert main(["embed", "--matrix", str(path), "--out", str(tmp_path / "u.txt")]) == 1
    assert f"error: {path}: not a text file" in capsys.readouterr().err


def test_embed_refuses_a_tiny_asymmetric_matrix_as_the_input(tmp_path, capsys):
    # it was refused only after scaling, as "a_normalized is not symmetric"
    path = tmp_path / "a.txt"
    write_matrix(path, np.array([[1e-200, 5e-200], [-3e-200, 2e-200]]))
    assert main(["embed", "--matrix", str(path), "--out", str(tmp_path / "u.txt")]) == 1
    assert "error: matrix is not symmetric" in capsys.readouterr().err


def test_product_reference_near_overflow(tmp_path, capsys):
    # the product is finite, but the reference applied to the input is not
    factor, vec = tmp_path / "w.txt", tmp_path / "v.txt"
    write_matrix(factor, np.full((2, 2), 8.66e153))
    write_matrix(vec, np.ones(2))
    assert main(["product", "--factors", str(factor), str(factor), "--input", str(vec)]) == 0
    fid = float(capsys.readouterr().out.split("final_fidelity_vs_oracle=")[1])
    assert 0.0 < fid <= 1.0


@pytest.mark.parametrize("command, diagonal, vec", [
    # exp(A) underflowed to the zero matrix: "fidelity of a zero vector"
    ("matfunc", [-1000.0, -2000.0], None),
    # refused as "exp overflows: eigenvalue 800.0 is above 709"
    ("matfunc", [800.0, 1.0], None),
    # exp(A) e1 = exp(-1000) e1 underflows; the top eigenvalue 0 does not carry e1
    ("matfunc", [0.0, -1000.0], [0.0, 1.0]),
    # the product underflowed to zero, or was refused as overflowing a float
    ("product", [1e-200, 2e-200], None),
    ("product", [1e200, 1.0], None),
], ids=["exp-diag-neg", "exp-diag-big", "exp-diag-zero-neg", "product-diag-tiny",
        "product-diag-huge"])
def test_chain_reference_of_any_scale(tmp_path, capsys, command, diagonal, vec):
    # the chain runs at any scale, and so does its classical reference now
    path = tmp_path / "a.txt"
    write_matrix(path, np.diag(diagonal))
    if command == "matfunc":
        argv = ["matfunc", "--fn", "exp", "--matrix", str(path), "--trunc", "4"]
    else:
        argv = ["product", "--factors", str(path), str(path)]
    if vec is not None:
        write_matrix(tmp_path / "v.txt", np.array(vec))
        argv += ["--input", str(tmp_path / "v.txt")]
    assert main(argv + ["--variant", "adjoint"]) == 0
    fid = float(capsys.readouterr().out.split("final_fidelity_vs_oracle=")[1])
    assert fid == pytest.approx(1.0, abs=1e-12)


@st.composite
def file_bytes(draw, rows, cols, symmetric=False):
    """A rows x cols matrix file, most often well formed (and then
    symmetric when asked), else with a NaN, ragged, empty or random bytes.
    Entries are zero or of magnitude 10^x, x in [-300, 300] around a drawn
    center, so one file may be all tiny, all huge or mixed."""
    kind = draw(st.sampled_from(("good",) * 6 + ("nan", "ragged", "empty", "bytes")))
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    if kind == "empty":
        return draw(st.sampled_from((b"", b"2 2\n", b"1 1\n\n")))
    center, spread = draw(st.integers(-300, 300)), draw(st.sampled_from((0, 2, 20, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    powers = np.clip(center + spread * (rng.random((rows, cols)) - 0.5), -300, 300)
    grid = rng.choice((-1.0, 0.0, 1.0, 1.0), (rows, cols)) * 10.0**powers
    if symmetric:
        grid = np.triu(grid) + np.triu(grid, 1).T
    grid = grid.tolist()
    if kind == "nan":
        grid[draw(st.integers(0, rows - 1))][0] = math.nan
    if kind == "ragged" and cols > 1:
        grid[draw(st.integers(0, rows - 1))].pop()
    body = "\n".join(" ".join(repr(x) for x in row) for row in grid)
    return f"{rows} {cols}\n{body}\n".encode()


@st.composite
def cli_files(draw):
    """Bytes of two matrix files and a vector file, mostly of one order n
    (the vector of length n or 2n) and mostly symmetric."""
    n = draw(st.integers(1, 8))

    def matrix():
        rows = draw(st.sampled_from((n, n, n, draw(st.integers(1, 8)))))
        return draw(file_bytes(rows, rows, draw(st.sampled_from((True,) * 5 + (False,)))))

    length = draw(st.sampled_from((n, n, 2 * n, draw(st.integers(1, 16)))))
    shape = draw(st.sampled_from(((length, 1), (1, length))))
    return {"a": matrix(), "b": matrix(), "v": draw(file_bytes(*shape))}


@st.composite
def cli_calls(draw):
    """Arguments of one CLI call; {a}, {b}, {v} and {out} stand for two
    matrix files, a vector file and an output directory."""
    command = draw(st.sampled_from(("embed", "amplify", "product", "matfunc", "experiment")))
    variant = ["--variant", draw(st.sampled_from(("literal", "adjoint")))]
    fidelity = ["--fidelity", draw(st.sampled_from(("embedded", "projected")))]
    out = ["--out", "{out}/result"] if draw(st.booleans()) else []
    vec = ["--input", "{v}"] if draw(st.booleans()) else []
    if command == "embed":
        return ["embed", "--matrix", "{a}", "--out", "{out}/u.txt"]
    if command == "amplify":
        k = ["--k", str(draw(st.integers(-1, 20)))] if draw(st.booleans()) else []
        return ["amplify", "--matrix", "{a}", "--input", "{v}"] + k + variant + fidelity + out
    if command == "product":
        return ["product", "--factors", "{a}", "{b}"] + vec + variant + out
    if command == "matfunc":
        return (["matfunc", "--fn", draw(st.sampled_from(("exp", "cos"))), "--matrix", "{a}",
                 "--trunc", str(draw(st.integers(0, 4)))] + vec + variant + out)
    return ["experiment", "--kind", draw(st.sampled_from(EXPERIMENT_KINDS)),
            "--dims", draw(st.sampled_from(("2", "4,2", "8", "2,4,8", "3", "2,2", ""))),
            "--trials", str(draw(st.sampled_from((1, 2, 2, 0)))),
            "--seed", str(draw(st.sampled_from((0, 5, 2**64 - 1, -1, 2**64)))),
            "--out", "{out}/exp"] + variant + fidelity


@settings(max_examples=300)
@given(cli_calls(), cli_files())
def test_cli_exits_cleanly_on_generated_files(argv, files):
    # exit 0, 1 or 2 with no escaping exception (warnings are errors in
    # tier-1), and every number printed on success is finite
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, f"{name}.txt") for name in files}
        for name, data in files.items():
            paths[name].write_bytes(data)
        argv = [arg.format(out=tmp, **paths) for arg in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        for token in re.split(r"[=,\s]+", stdout.getvalue()):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(token)), token
