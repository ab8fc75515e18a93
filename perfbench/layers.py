"""The traced layers of lfmhd and the per-layer metrics built from them.

Each layer is a span around calls into public functions of one
``src/lfmhd`` module, installed from outside the package.  Spans nest:
``self_s`` of a layer excludes the time of every traced layer it calls,
so, for example, ``grid.derivative.self_s`` excludes its FFTs.
"""

from __future__ import annotations

import os

from spans import Patcher, Tracer, patch_function, patch_method

# layers reported as calls and self time, as calls and inclusive time, or as
# inclusive time alone
_SELF_TIMED = (
    "grid.derivative", "grid.dealias", "smoothing.mollify",
    "geometry.build_geometry", "geometry.cov",
    "linear_step.freeze", "linear_step.advance",
)
_INCLUSIVE_TIMED = ("grid.norm", "correction.correction_field",
                    "diagnostics.difference_energy")
_TIME_ONLY = (
    "picard.max_correction_norm",
    "diagnostics.energy_functionals", "diagnostics.nonlinear_residuals",
    "diagnostics.wave_equation_residual", "diagnostics.constraint_residuals",
    "config.load_config", "state.make_initial_data",
)
# counts that must repeat exactly between two traced runs of one seed
REPEATING_COUNTS = ("grid.fft.calls", "geometry.build_geometry.calls",
                    "linear_step.diffusion_solve.krylov_iters", "picard.iterates")
# layers of the solver; none of them may appear on a solver-free workload
SOLVER_LAYERS = ("linear_step.freeze", "linear_step.advance",
                 "linear_step.diffusion_solve", "picard.solve_nonlinear_kappa",
                 "picard.max_correction_norm", "diagnostics.difference_energy")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(counter: str):
    def on_return(tracer, args, kwargs, result):
        tracer.count(counter, os.path.getsize(_arg(args, kwargs, 0, "path")))
    return on_return


def _count_scalar_solve(tracer, args, kwargs, result):
    # the vector form re-enters once per component; count component solves
    if _arg(args, kwargs, 2, "rhs").ndim == 3:
        tracer.count("linear_step.diffusion_solve.calls")


def _count_iterates(tracer, args, kwargs, result):
    logbook = result[1]
    tracer.count("picard.iterates", logbook.iterations)
    tracer.count("picard.iterate.s", sum(logbook.wall_seconds))


def _counting_bicgstab(tracer: Tracer, bicgstab):
    """bicgstab that counts the solves entering it and their iterations."""

    def traced(A, b, *args, callback=None, **kwargs):
        tracer.count("linear_step.diffusion_solve.krylov_solves")

        def count_iteration(xk):
            tracer.count("linear_step.diffusion_solve.krylov_iters")
            if callback is not None:
                callback(xk)

        return bicgstab(A, b, *args, callback=count_iteration, **kwargs)

    return traced


def _count_matvec(tracer, args, kwargs, result):
    # every application of the diffusion operator inside a solve: the
    # Krylov products, the operator's dtype probe and the residual check
    if tracer.parent() == "linear_step.diffusion_solve":
        tracer.count("linear_step.diffusion_solve.matvecs")


def install(patcher: Patcher, tracer: Tracer) -> None:
    """Trace every layer; the whole package must already be imported."""
    import numpy as np

    import lfmhd.cli  # noqa: F401  (binds every module the CLI reaches)
    from lfmhd import (checkpoint, config, correction, diagnostics, geometry,
                       linear_step, picard, smoothing, state)
    from lfmhd.grid import Grid

    def fft_values(tr, args, kwargs, result):
        tr.count("grid.fft.values", np.asarray(args[0]).size)

    for attr in ("fft2", "ifft2"):
        patcher.set(np.fft, attr, tracer.wrap("grid.fft", getattr(np.fft, attr), fft_values))
    for attr in ("derivative", "dealias", "norm"):
        patch_method(patcher, tracer, Grid, attr, f"grid.{attr}")
    patch_function(patcher, tracer, smoothing.mollify, "smoothing.mollify")
    patch_function(patcher, tracer, correction.correction_field, "correction.correction_field")
    patch_function(patcher, tracer, geometry.build_geometry, "geometry.build_geometry")
    for func in (geometry.cov_grad, geometry.cov_grad_vector, geometry.cov_div):
        patch_function(patcher, tracer, func, "geometry.cov")
    patch_function(patcher, tracer, geometry.cov_laplacian, "geometry.cov", _count_matvec)
    patch_method(patcher, tracer, linear_step.FrozenCoefficients, "freeze", "linear_step.freeze")
    patch_function(patcher, tracer, linear_step.advance_linearized, "linear_step.advance")
    patch_function(patcher, tracer, linear_step.implicit_diffusion_solve,
                   "linear_step.diffusion_solve", _count_scalar_solve)
    patcher.set(linear_step, "bicgstab", _counting_bicgstab(tracer, linear_step.bicgstab))
    patch_function(patcher, tracer, picard.solve_nonlinear_kappa,
                   "picard.solve_nonlinear_kappa", _count_iterates)
    patch_function(patcher, tracer, picard.max_correction_norm, "picard.max_correction_norm")
    for attr in ("difference_energy", "energy_functionals", "nonlinear_residuals",
                 "wave_equation_residual", "constraint_residuals"):
        patch_function(patcher, tracer, getattr(diagnostics, attr), f"diagnostics.{attr}")
    for func in (checkpoint.write_trajectory, checkpoint.write_state):
        patch_function(patcher, tracer, func, "checkpoint.write", _file_bytes("checkpoint.write.bytes"))
    for func in (checkpoint.read_trajectory, checkpoint.read_state):
        patch_function(patcher, tracer, func, "checkpoint.read", _file_bytes("checkpoint.read.bytes"))
    patch_function(patcher, tracer, config.load_config, "config.load_config")
    patch_function(patcher, tracer, state.make_initial_data, "state.make_initial_data")


def metrics(snapshot: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a tracer snapshot."""
    spans, counters = snapshot["spans"], snapshot["counters"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def counter(name: str) -> float:
        return counters.get(name, 0)

    out: dict[str, tuple[float, str]] = {
        "grid.fft.calls": (span("grid.fft", "calls"), "count"),
        "grid.fft.values": (counter("grid.fft.values"), "count"),
        "grid.fft.s": (span("grid.fft", "s"), "s"),
    }
    for name in _SELF_TIMED:
        out[f"{name}.calls"] = (span(name, "calls"), "count")
        out[f"{name}.self_s"] = (span(name, "self_s"), "s")
    for name in _INCLUSIVE_TIMED:
        out[f"{name}.calls"] = (span(name, "calls"), "count")
        out[f"{name}.s"] = (span(name, "s"), "s")
    solves = counter("linear_step.diffusion_solve.calls")
    krylov = counter("linear_step.diffusion_solve.krylov_solves")
    out.update({
        "linear_step.diffusion_solve.calls": (solves, "count"),
        "linear_step.diffusion_solve.s": (span("linear_step.diffusion_solve", "s"), "s"),
        "linear_step.diffusion_solve.krylov_iters":
            (counter("linear_step.diffusion_solve.krylov_iters"), "count"),
        "linear_step.diffusion_solve.matvecs":
            (counter("linear_step.diffusion_solve.matvecs"), "count"),
        "linear_step.diffusion_solve.krylov_ratio": (krylov / solves if solves else 0.0, "ratio"),
        "picard.iterates": (counter("picard.iterates"), "count"),
        "picard.iterate.s": (counter("picard.iterate.s"), "s"),
    })
    for name in _TIME_ONLY:
        out[f"{name}.s"] = (span(name, "s"), "s")
    for name in ("checkpoint.write", "checkpoint.read"):
        out[f"{name}.s"] = (span(name, "s"), "s")
        out[f"{name}.bytes"] = (counter(f"{name}.bytes"), "bytes")
    return out
