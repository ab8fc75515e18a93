"""Smoke test: every demo runs to completion.

Part of the default suite (``testpaths`` names ``tests`` and ``demos``),
so a change that breaks a demo fails it; ``python -m pytest -q demos``
runs the demos alone.  Each demo runs in its own interpreter, in a
temporary directory, on the sources next to this checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEMOS = sorted(p for p in HERE.glob("*.py") if not p.name.startswith("test_"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
