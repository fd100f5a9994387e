"""The benchmark's tracer wraps public names of the package by attribute
lookup; this keeps a refactor from silently breaking the traced run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracer import Tracer
Tracer().install()
"""


def test_tracer_installs_over_every_wrapped_name():
    code = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
