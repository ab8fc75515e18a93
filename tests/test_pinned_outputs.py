"""The CLI's tables at 8^3 match the pinned copies in ``tests/data/pinned``,
and ``docs/output-schema.md`` names the columns and exit codes the CLI has.

Comment text, column headers, integers, empty cells and labels must match
exactly.  A float cell matches when it lies within ``RTOL`` of the pinned
value, or when both values are at most ``NOISE`` in magnitude.

Why these tolerances: on one machine the tables are byte-identical from run
to run, but BLAS kernels may round differently on another CPU, and the
tables amplify rounding.  Replacing ``A / J`` by ``A * (1 / J)`` in the
geometry build moves the run's converged columns by up to 4.4e-7 relative
(the third iterate's difference energy; the lemma constants by 2e-16) and
rounding-level cells by O(1): ``div_b`` ~1e-11, the self-check ~6e-14,
``psi_max`` at kappa 0.2 ~2e-14.  So ``RTOL`` sits above that amplified
rounding, and every value pinned at or below ``NOISE`` is a rounding-level
quantity whose size, not value, is pinned.  A change to what the scheme
computes moves the tables by far more.

Regenerate the pinned files with ``tests/data/make_pinned_outputs.py``.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from lfmhd import cli

DATA = Path(__file__).resolve().parent / "data"
SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "output-schema.md"

RTOL = 1e-5
NOISE = 1e-9

_INT = re.compile(r"-?\d+$")


def _generator():
    spec = importlib.util.spec_from_file_location("make_pinned_outputs",
                                                  DATA / "make_pinned_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _generator()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    GEN.generate(root)
    return root


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _mismatch(got: str, want: str) -> bool:
    if got == want:
        return False
    g, w = _float(got), _float(want)
    if _INT.match(want) or g is None or w is None:
        return True
    if abs(g) <= NOISE and abs(w) <= NOISE:
        return False
    return not abs(g - w) <= RTOL * abs(w)


def _comment_values(line: str) -> list[str]:
    """The comment split into ``key = value`` parts and its other text."""
    return [part.strip() for part in re.split(r";|=", line)]


def _table_names():
    return [str(rel) for rel in GEN.tables(GEN.PINNED)]


def test_the_same_tables_are_written(fresh):
    assert [str(rel) for rel in GEN.tables(fresh)] == _table_names()


@pytest.mark.parametrize("name", _table_names())
def test_table_matches_pinned(fresh, name):
    got = (fresh / name).read_text().splitlines()
    want = (GEN.PINNED / name).read_text().splitlines()
    assert len(got) == len(want), f"{name}: {len(got)} lines, pinned {len(want)}"
    assert got[1] == want[1], f"{name}: header"
    misses = [(g, w) for g, w in zip(_comment_values(got[0]), _comment_values(want[0]))
              if _mismatch(g, w)]
    assert misses == [], f"{name}: comment line"
    header = want[1].split(",")
    for lineno, (g_row, w_row) in enumerate(zip(got[2:], want[2:]), start=3):
        g_cells, w_cells = g_row.split(","), w_row.split(",")
        assert len(g_cells) == len(w_cells), f"{name}:{lineno}: cell count"
        misses = [(col, g, w) for col, g, w in zip(header, g_cells, w_cells)
                  if _mismatch(g, w)]
        assert misses == [], f"{name}:{lineno}: (column, got, pinned)"


def _schema_sections() -> dict[str, list[list[str]]]:
    """Heading -> the cells of each table row under it (``\\|`` is not a
    cell boundary)."""
    sections: dict[str, list[list[str]]] = {}
    rows: list[list[str]] = []
    for line in SCHEMA.read_text().splitlines():
        if line.startswith("## "):
            rows = sections.setdefault(line[3:].split()[0], [])
        elif line.startswith("|") and not line.startswith("| ---"):
            rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return sections


def test_schema_columns_equal_the_written_headers(fresh):
    sections = _schema_sections()
    headers = {rel.name: (fresh / rel).read_text().splitlines()[1].split(",")
               for rel in GEN.tables(fresh)}
    for table, header in headers.items():
        documented = [name for row in sections[table][1:]
                      for name in re.findall(r"`([^`]+)`", row[0])]
        assert documented == header, table


def test_schema_exit_codes_equal_the_cli_codes():
    rows = _schema_sections()["Exit"][1:]
    documented = [int(code) for code, _ in rows]
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert documented == [0, 1] + codes
    # each refusal's row names the stderr prefix the CLI prints for it
    meaning = {int(code): text for code, text in rows}
    for _, code, label in cli.FAILURES:
        assert f"`{label}: " in meaning[code], (code, label)
