"""Span bookkeeping of the traced benchmark run.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Patcher, Tracer, bindings, patch_function  # noqa: E402


class ManualClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_children():
    clock = ManualClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    stats = tracer.stats
    assert (stats["leaf"].calls, stats["leaf"].s, stats["leaf"].self_s) == (2, 4.0, 4.0)
    assert (stats["middle"].s, stats["middle"].self_s) == (5.5, 1.5)
    assert (stats["outer"].s, stats["outer"].self_s) == (8.5, 3.0)
    assert sum(s.self_s for s in stats.values()) == stats["outer"].s


def test_span_closes_when_the_call_raises():
    clock = ManualClock()
    tracer = Tracer(clock)

    def failing():
        clock.advance(1.0)
        raise ValueError("boom")

    traced = tracer.wrap("failing", failing)
    with pytest.raises(ValueError):
        tracer.wrap("outer", traced)()
    assert tracer.stats["failing"].calls == 1
    assert tracer.stats["outer"].self_s == 0.0
    assert tracer._stack == []


def test_recursion_counts_inclusive_time_once():
    clock = ManualClock()
    tracer = Tracer(clock)

    def countdown(n):
        clock.advance(1.0)
        if n:
            traced(n - 1)

    traced = tracer.wrap("countdown", countdown)
    traced(3)
    stat = tracer.stats["countdown"]
    assert (stat.calls, stat.s, stat.self_s) == (4, 4.0, 4.0)


@pytest.fixture()
def traced_lfmhd():
    import lfmhd.cli  # noqa: F401

    clock = ManualClock()
    tracer = Tracer(lambda: clock.advance(1.0) or clock.now)
    patcher = Patcher()
    layers.install(patcher, tracer)
    try:
        yield tracer
    finally:
        patcher.undo()


def test_recursive_diffusion_solve_re_enters_through_module_global(traced_lfmhd):
    from lfmhd import linear_step
    from lfmhd.geometry import build_geometry
    from lfmhd.grid import Grid, GridSpec

    grid = Grid(GridSpec(8, 8, 8))
    a_s = build_geometry(grid, grid.identity_map, 0.1).a_s
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal((3,) + grid.shape)
    rhs[..., [0, -1]] = 0.0
    rhs[2] = 0.0                      # one component takes the zero-rhs exit
    tracer = traced_lfmhd
    stats = tracer.stats
    before = {k: (v.calls, v.s, v.self_s) for k, v in stats.items()}
    linear_step.implicit_diffusion_solve(grid, a_s, rhs, 0.01)

    span = stats["linear_step.diffusion_solve"]
    assert span.calls == 4            # the vector call and three component calls
    counters = tracer.counters
    assert counters["linear_step.diffusion_solve.calls"] == 3
    assert counters["linear_step.diffusion_solve.krylov_solves"] == 2
    assert counters["linear_step.diffusion_solve.krylov_iters"] > 0
    assert counters["linear_step.diffusion_solve.matvecs"] >= counters[
        "linear_step.diffusion_solve.krylov_iters"]
    metrics = layers.metrics(tracer.snapshot())
    assert metrics["linear_step.diffusion_solve.krylov_ratio"][0] == pytest.approx(2 / 3)
    # inclusive time covers the outer call once and equals the self time of
    # everything traced beneath it
    nested = sum(v.self_s - before.get(k, (0, 0.0, 0.0))[2] for k, v in stats.items())
    assert span.s == nested


def test_tracing_leaves_the_solve_bitwise_unchanged():
    from lfmhd import linear_step
    from lfmhd.geometry import build_geometry
    from lfmhd.grid import Grid, GridSpec

    grid = Grid(GridSpec(8, 8, 8))
    a_s = build_geometry(grid, grid.identity_map, 0.1).a_s
    rhs = np.random.default_rng(1).standard_normal((3,) + grid.shape)
    plain = linear_step.implicit_diffusion_solve(grid, a_s, rhs, 0.01)
    patcher = Patcher()
    layers.install(patcher, Tracer())
    try:
        traced = linear_step.implicit_diffusion_solve(grid, a_s, rhs, 0.01)
    finally:
        patcher.undo()
    assert np.array_equal(plain, traced)


def test_every_module_binding_of_an_imported_function_is_patched():
    import lfmhd.cli  # noqa: F401
    from lfmhd import diagnostics, geometry, linear_step, picard, state
    from lfmhd.grid import Grid, GridSpec

    original = geometry.build_geometry
    modules = {module.__name__ for module, _ in bindings(original)}
    assert {"lfmhd.geometry", "lfmhd.linear_step", "lfmhd.picard",
            "lfmhd.diagnostics", "lfmhd.state"} <= modules

    tracer = Tracer()
    patcher = Patcher()
    wrapper = patch_function(patcher, tracer, original, "geometry.build_geometry")
    try:
        for module in (geometry, linear_step, picard, diagnostics, state):
            assert module.build_geometry is wrapper
        # reached through state's own binding, not through geometry's
        state.make_initial_data(Grid(GridSpec(8, 8, 8)), "quiescent")
        assert tracer.stats["geometry.build_geometry"].calls == 1
    finally:
        patcher.undo()
    for module in (geometry, linear_step, picard, diagnostics, state):
        assert module.build_geometry is original


def test_patcher_restores_a_classmethod():
    from lfmhd.linear_step import FrozenCoefficients

    raw = FrozenCoefficients.__dict__["freeze"]
    patcher = Patcher()
    layers.install(patcher, Tracer())
    assert FrozenCoefficients.__dict__["freeze"] is not raw
    patcher.undo()
    assert FrozenCoefficients.__dict__["freeze"] is raw


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    produced = {k: u for k, (_, u) in layers.metrics({"spans": {}, "counters": {}}).items()}
    produced["trace.overhead_s"] = "s"
    assert declared == produced
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_report_checkpoint_is_seeded_and_readable(tmp_path):
    from lfmhd.checkpoint import read_trajectory

    a, b, c = (tmp_path / f"{n}.ckpt" for n in "abc")
    workloads.write_report_checkpoint(a, 5)
    workloads.write_report_checkpoint(b, 5)
    workloads.write_report_checkpoint(c, 6)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    traj = read_trajectory(a)
    assert len(traj) == workloads.REPORT_NODES
    assert traj.dt == workloads.REPORT_DT and traj.kappa == workloads.REPORT_KAPPA
    for s in traj.states:
        for name in ("v", "b", "q"):
            wall = getattr(s, name)[..., [0, -1]]
            assert np.abs(wall).max() < 1e-15
