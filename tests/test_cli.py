"""Command line behavior: exit codes, config echo, payload formats, and
deterministic experiment output."""

import math
import subprocess
import sys

import numpy as np
import pytest

from oaasim import SplitMix64, random_input, random_symmetric, read_vector, write_matrix
from oaasim.cli import build_parser, main


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


def test_embed_exact_outside_radius_is_numerical_failure(tmp_path, capsys):
    path = tmp_path / "ones.txt"
    write_matrix(path, np.ones((4, 4)))
    code = main(["embed", "--matrix", str(path), "--exact", "--out", str(tmp_path / "u.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical error:" in captured.err


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
    assert (tmp_path / "run1" / "trace_dim8.svg").exists()
    assert (tmp_path / "run1" / "trace_dim16.svg").exists()

    code = main(args + ["--out", str(tmp_path / "run2")])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "run2" / "trace.csv").read_text() == csv1
    svg1 = (tmp_path / "run1" / "trace_dim8.svg").read_bytes()
    assert (tmp_path / "run2" / "trace_dim8.svg").read_bytes() == svg1


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
    final = read_vector(tmp_path / "prod" / "final_vector.txt")
    assert final.size == 8
    fid_line = [l for l in captured.out.split("\n") if l.startswith("final_fidelity_vs_oracle=")]
    assert len(fid_line) == 1
    # an involution applied twice returns the input
    assert float(fid_line[0].split("=")[1]) == pytest.approx(1.0, abs=1e-9)


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
