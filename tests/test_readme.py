"""The README's library example runs as printed and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the first and last prints carry a comment with the value's leading digits
    stated = re.findall(r"# (\d\.\d+)\.\.\.", example)
    assert stated == ["0.7071", "0.3333"]
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(stated[0]) and lines[-1].startswith(stated[1]), lines
