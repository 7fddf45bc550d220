"""tools/seeded_outputs.py records every call and repeats itself exactly."""

import filecmp
import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "seeded_outputs.py"


def test_seeded_call_names_are_unique():
    # each call's directory is named by the call alone
    spec = importlib.util.spec_from_file_location("seeded_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = [name for name, _ in module.CALLS]
    assert len(set(names)) == len(names) == 26


def test_seeded_outputs_are_complete_and_repeatable(tmp_path, child_env):
    for name in ("a", "b"):
        subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / name)], env=child_env(1),
                       check=True, capture_output=True, timeout=300)
    calls = sorted(p for p in (tmp_path / "a").iterdir() if p.name != "inputs")
    assert len(calls) == 26
    for call in calls:
        assert {"exit", "stdout", "stderr"} <= {p.name for p in call.iterdir()}
        assert (call / "exit").read_text() == "0\n", call.name
    cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    stack = [cmp]
    while stack:
        node = stack.pop()
        assert not (node.diff_files or node.left_only or node.right_only), node.left
        stack.extend(node.subdirs.values())
