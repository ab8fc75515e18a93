"""Regenerate the pinned 8^3 CSV outputs that ``tests/test_pinned_outputs.py``
compares every run against.

Four commands run on the cheapest legal lattice: ``run`` on magnetic-tube
data (it also writes the trajectory checkpoint), ``kappa-sweep`` over
kappa 0.2 and 0.1, ``check-lemmas``, and ``energy-report`` on the run's
trajectory.  Only the CSV tables are kept.  The script writes next to
itself, so it runs from any directory:

    PYTHONPATH=src python3 tests/data/make_pinned_outputs.py

A change that moves a pinned value regenerates the files and names each
moved column and its largest relative change.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

from lfmhd.cli import main

PINNED = Path(__file__).with_name("pinned")

_GRID = "grid.n1 = 8\ngrid.n2 = 8\ngrid.n3 = 8\n"
CONFIGS = {
    "run": _GRID + "data.preset = magnetic-tube\noutputs.checkpoint = on\n",
    "kappa-sweep": _GRID + "scheme.kappa_list = 0.2 0.1\n",
    "check-lemmas": _GRID,
}


def generate(root: Path) -> None:
    """Run the four commands, each into ``root/<command>``; stdout is dropped."""
    commands = []
    for command, text in CONFIGS.items():
        cfg = root / f"{command}.cfg"
        cfg.write_text(text + f"outputs.directory = {root / command}\n")
        commands.append([command, str(cfg)])
    commands.append(["energy-report", str(root / "run" / "trajectory.ckpt"),
                     "--out", str(root / "energy-report")])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"lfmhd {' '.join(argv)} exited {code}")


def tables(root: Path) -> list[Path]:
    """The CSV tables under ``root``, as paths relative to it, sorted."""
    return sorted(p.relative_to(root) for p in root.glob("*/*.csv"))


def write_pinned() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        generate(root)
        if PINNED.exists():
            shutil.rmtree(PINNED)
        for rel in tables(root):
            (PINNED / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(root / rel, PINNED / rel)
            print(f"wrote {PINNED / rel}")


if __name__ == "__main__":
    write_pinned()
