"""Every exported name has a caller.

A name in ``lfmhd.__all__`` is kept only while something other than the
package's re-export uses it: the library itself, a demo, an acceptance
test of a paper claim, or the benchmark.  Unit tests alone do not count,
so an entry point that only its own unit test calls fails here.
"""

import re
from pathlib import Path

import lfmhd

ROOT = Path(__file__).resolve().parents[1]
CALLERS = (
    [p for p in (ROOT / "src" / "lfmhd").glob("*.py") if p.name != "__init__.py"]
    + sorted((ROOT / "demos").rglob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
    + sorted((ROOT / "perfbench").rglob("*.py"))
)


def _uses(name: str, lines: list[str]) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not definition.match(line) for line in lines)


def test_every_export_has_a_caller():
    lines = [line for path in CALLERS for line in path.read_text().splitlines()]
    unused = [name for name in lfmhd.__all__ if not _uses(name, lines)]
    assert unused == [], f"exported but called only by unit tests: {unused}"
