"""The traced benchmark (``perfbench/``) wraps package functions by name.

Deleting or renaming a function it wraps would otherwise fail only in
the benchmark's traced run; here it fails the test suite.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import lfmhd.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every attribute of the package's modules and classes, and of np.fft."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "lfmhd" or name.startswith("lfmhd."))]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("lfmhd")]
    owners.append(np.fft)
    return [(owner, dict(vars(owner))) for owner in owners]


def test_perfbench_installs_every_wrap_and_undo_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans, layers, child = (importlib.import_module(name)
                            for name in ("spans", "layers", "child"))
    before = _bindings()
    real_energy, real_bicgstab = lfmhd.cli.energy_functionals, lfmhd.linear_step.bicgstab

    patcher = spans.Patcher()
    try:
        layers.install(patcher, spans.Tracer())
        child.install_marks(patcher, [], stop_at_compute=False)
        assert lfmhd.cli.energy_functionals is not real_energy
        assert lfmhd.linear_step.bicgstab is not real_bicgstab
    finally:
        patcher.undo()

    for owner, attrs in before:
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        changed = [name for name, value in attrs.items() if now[name] is not value]
        assert changed == [], (owner, changed)
