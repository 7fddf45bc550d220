"""tools/seeded_outputs.py records every call and repeats itself exactly."""

import filecmp
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "seeded_outputs.py"


def test_seeded_outputs_are_complete_and_repeatable(tmp_path, child_env):
    for name in ("a", "b"):
        subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / name)], env=child_env(1),
                       check=True, capture_output=True, timeout=300)
    calls = sorted(p for p in (tmp_path / "a").iterdir() if p.name != "inputs")
    assert len(calls) == 24
    for call in calls:
        assert {"exit", "stdout", "stderr"} <= {p.name for p in call.iterdir()}
        want = "2\n" if call.name.endswith("embed-exact-refused") else "0\n"
        assert (call / "exit").read_text() == want, call.name
    cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    stack = [cmp]
    while stack:
        node = stack.pop()
        assert not (node.diff_files or node.left_only or node.right_only), node.left
        stack.extend(node.subdirs.values())
