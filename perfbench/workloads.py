"""The three benchmark workloads: inputs from a seed, and key outputs.

Each workload is one lfmhd subcommand.  The seed goes to ``data.seed`` of
a generated config, or to the generator of the energy-report checkpoint;
lfmhd sees only the generated file.  Every input is built so that the
key outputs do not depend on the seed beyond rounding: the presets and
the checkpoint generator only translate the same smooth fields across
the periodic directions.  That is what lets one committed reference
check any seed.
"""

from __future__ import annotations

import csv
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    solve_phase: str        # marked function whose duration is solve_s
    csv_files: tuple[str, ...]
    config: str = ""        # config template; "" for energy-report


TUBE32 = Workload(
    name="tube32-run",
    subcommand="run",
    solve_phase="solve_nonlinear_kappa",
    csv_files=("energy.csv", "iteration.csv", "residuals.csv"),
    config="""\
grid.n1 = 32
grid.n2 = 32
grid.n3 = 32
data.preset = magnetic-tube
data.amplitude = 0.1
data.seed = {seed}
scheme.kappa = 0.1
scheme.dt = 0.00625
scheme.T = 0.025
scheme.picard_tol = 1e-8
scheme.picard_max_iter = 12
scheme.diffusion_tol = 1e-9
diagnostics.max_time_order = 2
outputs.directory = {out}
outputs.checkpoint = on
""",
)

SWEEP16 = Workload(
    name="quiescent16-sweep",
    subcommand="kappa-sweep",
    solve_phase="kappa_sweep",
    csv_files=("sweep.csv", "energy.csv"),
    config="""\
grid.n1 = 16
grid.n2 = 16
grid.n3 = 16
data.preset = quiescent
data.amplitude = 0.1
data.seed = {seed}
scheme.kappa_list = 0.2 0.1 0.05
scheme.dt = 0.0125
scheme.T = 0.05
scheme.picard_tol = 1e-8
scheme.picard_max_iter = 12
scheme.diffusion_tol = 1e-9
diagnostics.max_time_order = 2
outputs.directory = {out}
outputs.checkpoint = off
""",
)

# report32 runs no solver: its solve_s is the energy-table computation
# inside artifacts_s, which no solver-layer change should move
REPORT32 = Workload(
    name="report32",
    subcommand="energy-report",
    solve_phase="energy_functionals",
    csv_files=("energy.csv",),
)

WORKLOADS = {w.name: w for w in (TUBE32, SWEEP16, REPORT32)}


def command_args(workload: Workload, seed: int, inputs: Path, out: Path) -> list[str]:
    """lfmhd arguments for one command writing to ``out``."""
    if workload.config:
        cfg = inputs / f"{out.name}.cfg"
        cfg.write_text(workload.config.format(seed=seed, out=out))
        return [workload.subcommand, str(cfg)]
    return [workload.subcommand, str(inputs / "trajectory.ckpt"), "--out", str(out)]


# ----------------------------------------------------------------------
# energy-report input: a seeded 32^3 trajectory checkpoint

REPORT_N = 32
REPORT_NODES = 5
REPORT_DT = 0.00625
REPORT_KAPPA = 0.1


def report_trajectory(seed: int, n: int = REPORT_N, nodes: int = REPORT_NODES,
                      dt: float = REPORT_DT) -> list[dict[str, np.ndarray]]:
    """Per-node fields of a smooth trajectory, shape (n, n, n + 1) each.

    The map is the identity plus a smooth perturbation; v, b and q vanish
    on both walls.  The seed draws one tangential translation shared by
    every field and the signs of v, b and q.  Every displacement component
    has zero tangential mean, and the two tangential ones are constant
    along their own direction, so the raw-position term of the map norm
    is zero for any translation too: E_total depends on the seed only
    through rounding.
    """
    rng = np.random.default_rng(seed)
    s1, s2 = rng.uniform(0.0, 1.0, size=2)
    sign_v, sign_b, sign_q = rng.choice([-1.0, 1.0], size=3)
    y1 = np.arange(n) / n
    y2 = np.arange(n) / n
    y3 = np.linspace(0.0, 1.0, n + 1)
    Y1, Y2, Y3 = np.meshgrid(y1, y2, y3, indexing="ij")
    X1 = 2.0 * np.pi * (Y1 + s1)
    X2 = 2.0 * np.pi * (Y2 + s2)
    wall = np.sin(np.pi * Y3)
    bulge = 4.0 * Y3 * (1.0 - Y3)
    q0 = sign_q * 0.05 * wall * np.cos(X1) * np.cos(X2)
    out = []
    for j in range(nodes):
        t = j * dt
        eps = 0.02 * (1.0 + 4.0 * t)
        fields = {"t": np.full(Y1.shape, t)}
        fields["eta1"] = Y1 + eps * np.cos(X2) * np.cos(np.pi * Y3)
        fields["eta2"] = Y2 + eps * np.sin(X1) * np.cos(np.pi * Y3)
        fields["eta3"] = Y3 + eps * bulge * np.cos(X1 + X2)
        for alpha in range(3):
            fields[f"v{alpha + 1}"] = (sign_v * 0.1 * (1.0 + 2.0 * t) * wall
                                       * np.cos(X1 + 2.0 * X2 + alpha))
        for alpha in range(3):
            fields[f"b{alpha + 1}"] = (sign_b * 0.05 * (1.0 - t) * wall
                                       * np.sin(2.0 * X1 - X2 + alpha))
        fields["q"] = q0 * (1.0 + t * t)
        fields["rho0"] = np.exp(q0)
        out.append(fields)
    return out


def write_report_checkpoint(path: Path, seed: int) -> None:
    """Write the trajectory in the documented checkpoint format (version 1)."""
    nodes = report_trajectory(seed)
    shape = nodes[0]["t"].shape
    fields = {
        "meta.kappa": np.full(shape, REPORT_KAPPA),
        "meta.dt": np.full(shape, REPORT_DT),
        "meta.nodes": np.full(shape, float(len(nodes))),
    }
    for j, node in enumerate(nodes):
        for name, value in node.items():
            fields[f"snap{j:03d}.{name}"] = value
    n1, n2, levels = shape
    blob = [b"LFMHD1\x00\x00", struct.pack("<IIIII", 1, n1, n2, levels - 1, len(fields))]
    for name, value in fields.items():
        encoded = name.encode("ascii")
        blob += [struct.pack("<I", len(encoded)), encoded,
                 np.ascontiguousarray(value.transpose(2, 1, 0), dtype="<f8").tobytes()]
    path.write_bytes(b"".join(blob))


def prepare_inputs(workload: Workload, seed: int, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    if workload is REPORT32:
        write_report_checkpoint(inputs / "trajectory.ckpt", seed)


# ----------------------------------------------------------------------
# key outputs


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open() as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def key_outputs(workload: Workload, out: Path) -> dict:
    """The outputs a run is checked on, read back from its CSVs."""
    if workload is TUBE32:
        iteration = _rows(out / "iteration.csv")
        header = (out / "iteration.csv").read_text().splitlines()[0]
        match = re.search(r"self_check = (\S+)", header)
        return {
            "picard_iterates": len(iteration),
            "final_d": float(iteration[-1]["difference_energy"]),
            "self_check": float(match.group(1)) if match else None,
            "final_E_phys": float(_rows(out / "energy.csv")[-1]["E_phys"]),
        }
    if workload is SWEEP16:
        rows = _rows(out / "sweep.csv")
        return {
            "iterations": [int(r["iterations"]) for r in rows],
            "deltas": [float(r["delta_to_prev"]) for r in rows if r["delta_to_prev"]],
            "psi_max": [float(r["psi_max"]) for r in rows],
        }
    return {"final_E_total": float(_rows(out / "energy.csv")[-1]["E_total"])}


def _matches(got, want, rtol: float) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(g, w, rtol) for g, w in zip(got, want)))
    if isinstance(want, int):
        return got == want
    return isinstance(got, float) and abs(got - want) <= rtol * abs(want)


def check_outputs(got: dict, reference: dict) -> list[str]:
    """Names of the key outputs that miss the reference, with both values."""
    misses = []
    for key, ref in reference.items():
        if not _matches(got.get(key), ref["value"], ref.get("rtol", 0.0)):
            misses.append(f"{key}: got {got.get(key)!r}, reference {ref['value']!r}")
    return misses
