"""tools/seeded_outputs.py records every call, repeats the committed
reference tests/seeded, and compares two records within a tolerance;
tools/mutants.py names source text that exists and cleans up when
terminated."""

import importlib.util
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "seeded_outputs.py"
REFERENCE = ROOT / "tests" / "seeded"
# roundoff-level entries may flip sign on another BLAS; a drift of 1e-9 fails
RTOL, ATOL = 1e-12, 1e-14


def _load(script=SCRIPT):
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_call_names_are_unique():
    # each call's directory is named by the call alone
    module = _load()
    names = [name for name, _ in module.CALLS]
    assert len(set(names)) == len(names) == 29


def test_seeded_outputs_are_complete_and_repeatable(tmp_path, child_env):
    run = tmp_path / "run"
    subprocess.run([sys.executable, str(SCRIPT), str(run)], env=child_env(1),
                   check=True, capture_output=True, timeout=300)
    # the reference keeps neither the inputs nor the order-128 u.txt (380 KB)
    shutil.rmtree(run / "inputs")
    (run / "embed-estimated-64" / "u.txt").unlink()
    calls = sorted(run.iterdir())
    assert len(calls) == 29
    for call in calls:
        assert {"exit", "stdout", "stderr"} <= {p.name for p in call.iterdir()}
        assert (call / "exit").read_text() == "0\n", call.name
    lines, ok = _load().compare(REFERENCE, run, RTOL, ATOL)
    assert ok, "\n".join(lines)


def test_compare_allows_number_drift_within_rtol(tmp_path):
    for side, value in (("a", "0.25"), ("b", "0.2500000000001")):
        call = tmp_path / side / "embed"
        call.mkdir(parents=True)
        (call / "stdout").write_text(f"mu=3.5\nc2={value}\n")
        (call / "exit").write_text("0\n")
    base = [sys.executable, str(SCRIPT), "--compare", str(tmp_path / "a"), str(tmp_path / "b")]
    near = subprocess.run(base + ["--rtol", "1e-12"], capture_output=True, text=True, timeout=60)
    assert near.returncode == 0, near.stdout
    assert near.stdout.splitlines() == ["embed/stdout: numbers drift by at most 4e-13",
                                        "within rtol 1e-12 atol 0"]
    far = subprocess.run(base + ["--rtol", "1e-13"], capture_output=True, text=True, timeout=60)
    assert far.returncode == 1 and far.stdout.endswith("NOT within rtol 1e-13 atol 0\n")
    floor = subprocess.run(base + ["--rtol", "1e-13", "--atol", "1e-13"],
                           capture_output=True, text=True, timeout=60)
    assert floor.returncode == 0, floor.stdout


def test_compare_atol_forgives_roundoff_but_not_a_drift_of_1e_9():
    module = _load()
    # entries at roundoff level, one of them printed as -0.0
    assert module.relative_drift("p=5.6e-16 q=0.0", "p=-1e-16 q=-0.0", 1e-15) == 0.0
    assert module.relative_drift("p=5.6e-16", "p=-1e-16", 1e-16) > 1.0
    assert module.relative_drift("f=0.5", "f=0.5000000005", 1e-14) == pytest.approx(1e-9)


def test_compare_refuses_text_changes_and_missing_files():
    module = _load()
    assert module.relative_drift("c2=0.5 ef=nan", "c2=0.5 ef=nan") == 0.0
    assert module.relative_drift("c2=0.5", "c2=-0.5") == 2.0
    assert module.relative_drift("c2=0.5", "c2=nan") == math.inf
    assert module.relative_drift("c2=0.5", "c3=0.5") is None
    assert module.relative_drift("c2=0.5", "c2=0.5 flagged") is None
    assert module.relative_drift("1,2", "1,2,3") is None


def test_compare_reports_files_on_one_side(tmp_path):
    module = _load()
    for side, names in (("a", ("exit", "u.txt")), ("b", ("exit",))):
        (tmp_path / side).mkdir()
        for name in names:
            (tmp_path / side / name).write_text("0\n")
    lines, ok = module.compare(tmp_path / "a", tmp_path / "b", 1.0)
    assert not ok and lines == [f"u.txt: only in {tmp_path / 'a'}"]


def test_every_mutant_pattern_matches_its_source_once():
    mutants = _load(ROOT / "tools" / "mutants.py").MUTANTS
    assert len(mutants) == 17
    for name, path, old, new in mutants:
        assert (ROOT / path).read_text().count(old) == 1, name
        assert new != old, name


def test_mutants_removes_its_copy_when_terminated(tmp_path):
    # SIGTERM ended the script at once and left its copy of the checkout in TMPDIR
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / "mutants.py")],
                            env=dict(os.environ, TMPDIR=str(tmp_path)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("*/tree")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp_path.iterdir()) == []
    assert code == 128 + signal.SIGTERM
