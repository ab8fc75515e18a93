"""Binary checkpoints for states and trajectories.

Layout, all integers little-endian u32 unless noted:

    8 bytes   magic ``LFMHD1\\0\\0``
    u32       format version (currently 1)
    3 x u32   grid dims n1, n2, n3 (the lattice holds n3 + 1 levels)
    u32       field count
    per field u32 name length, ASCII name, then n1*n2*(n3+1) float64
              little-endian values, y3-major (y3 slowest, y1 fastest)

Every payload is one scalar lattice; vectors are stored component-wise
(``v1``..``v3``), trajectory snapshots under ``snapNNN.`` prefixes, and
scalar metadata (time, smoothing scale, step, diffusivity) as constant
lattices so the format stays uniform.  The header dims must make a
``GridSpec``; they are checked before any payload is read.  A field with
a NaN or an infinity is refused on read.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .grid import DEALIAS_FRACTION, Grid, GridSpec
from .linear_step import Trajectory
from .state import EquationOfState, FlowState

MAGIC = b"LFMHD1\x00\x00"
VERSION = 1


class CheckpointError(Exception):
    """Raised when a file cannot be read or fails the format validation."""


def _to_wire(field: np.ndarray) -> bytes:
    return np.ascontiguousarray(field.transpose(2, 1, 0), dtype="<f8").tobytes()


def _from_wire(raw: bytes, dims: tuple[int, int, int]) -> np.ndarray:
    n1, n2, n3 = dims
    arr = np.frombuffer(raw, dtype="<f8").reshape(n3 + 1, n2, n1)
    return np.ascontiguousarray(arr.transpose(2, 1, 0))


def write_fields(path: str | Path, dims: tuple[int, int, int],
                 fields: dict[str, np.ndarray]) -> None:
    n1, n2, n3 = dims
    shape = (n1, n2, n3 + 1)
    entries = []
    for name, field in fields.items():
        if field.shape != shape:
            raise CheckpointError(
                f"field {name!r} has shape {field.shape}, lattice wants {shape}"
            )
        entries.append((name.encode("ascii"), field))
    # one field at a time, so no copy of the whole file is held
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IIIII", VERSION, n1, n2, n3, len(entries)))
        for encoded, field in entries:
            fh.write(struct.pack("<I", len(encoded)) + encoded)
            fh.write(_to_wire(field))


def read_fields(path: str | Path) -> tuple[tuple[int, int, int], dict[str, np.ndarray]]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc}") from None
    if len(raw) < len(MAGIC) + 20:
        raise CheckpointError(f"{path}: file too short for a checkpoint header")
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:8]!r}, expected {MAGIC!r}")
    version, n1, n2, n3, count = struct.unpack_from("<IIIII", raw, 8)
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported version {version}, expected {VERSION} "
            "(values this large usually mean a byte-swapped file; "
            "the format is little-endian only)"
        )
    try:
        GridSpec(n1, n2, n3)
    except ValueError as exc:
        raise CheckpointError(f"{path}: implausible grid dims ({n1}, {n2}, {n3}): {exc}") from None
    payload = n1 * n2 * (n3 + 1) * 8
    offset = 28
    fields: dict[str, np.ndarray] = {}
    for _ in range(count):
        if offset + 4 > len(raw):
            raise CheckpointError(f"{path}: truncated before a field name length")
        (name_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        if offset + name_len + payload > len(raw):
            raise CheckpointError(
                f"{path}: truncated field data, dims ({n1}, {n2}, {n3}) "
                f"need {payload} bytes per field"
            )
        try:
            name = raw[offset:offset + name_len].decode("ascii")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: field name at byte {offset} is not ASCII") from None
        offset += name_len
        if name in fields:
            raise CheckpointError(f"{path}: field {name!r} appears twice")
        fields[name] = _from_wire(raw[offset:offset + payload], (n1, n2, n3))
        if not np.isfinite(fields[name]).all():
            raise CheckpointError(f"{path}: field {name!r} holds non-finite values")
        offset += payload
    return (n1, n2, n3), fields


# ----------------------------------------------------------------------
# state and trajectory encodings


def _state_fields(state: FlowState) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {"t": np.full(state.grid.shape, state.t)}
    for alpha in range(3):
        out[f"eta{alpha + 1}"] = state.eta[alpha]
        out[f"v{alpha + 1}"] = state.v[alpha]
        out[f"b{alpha + 1}"] = state.b[alpha]
    out["q"] = state.q
    out["rho0"] = state.rho0
    return out


def _state_from_fields(path: str | Path, grid: Grid, eos: EquationOfState,
                       fields: dict[str, np.ndarray], prefix: str = "") -> FlowState:
    def get(name: str) -> np.ndarray:
        key = prefix + name
        if key not in fields:
            raise CheckpointError(f"{path}: missing field {key!r}")
        return fields[key]

    return FlowState(
        grid=grid,
        eos=eos,
        t=float(get("t").flat[0]),
        eta=np.stack([get(f"eta{alpha + 1}") for alpha in range(3)]),
        v=np.stack([get(f"v{alpha + 1}") for alpha in range(3)]),
        b=np.stack([get(f"b{alpha + 1}") for alpha in range(3)]),
        q=get("q"),
        rho0=get("rho0"),
    )


def _run_fields(grid: Grid, eos: EquationOfState) -> dict[str, np.ndarray]:
    """The run parameters a checkpoint records, as constant lattices."""
    return {"meta.diffusivity": np.full(grid.shape, eos.diffusivity)}


def _read_run(path: str | Path):
    """Read ``path`` and the run it records: its grid, equation of state,
    ``meta.`` scalars and fields.

    A file without ``meta.diffusivity`` reads as 1.0, the value every run
    used before it was recorded.  A recorded diffusivity out of range, or a
    ``meta.dealias_fraction`` (older files) other than ``DEALIAS_FRACTION``, is refused.
    """
    dims, fields = read_fields(path)
    meta = {"diffusivity": 1.0, "dealias_fraction": DEALIAS_FRACTION}
    meta.update((key.removeprefix("meta."), float(field.flat[0]))
                for key, field in fields.items() if key.startswith("meta."))
    _require_range(path, meta, "diffusivity", 0.0 < meta["diffusivity"] < math.inf)
    _require_range(path, meta, "dealias_fraction", meta["dealias_fraction"] == DEALIAS_FRACTION)
    grid = Grid(GridSpec(*dims))
    return grid, EquationOfState(diffusivity=meta["diffusivity"]), meta, fields


def _require_range(path: str | Path, meta: dict, name: str, ok: bool) -> None:
    if not ok:
        raise CheckpointError(f"{path}: meta.{name} out of range: {meta[name]}")


def write_state(path: str | Path, state: FlowState) -> None:
    spec = state.grid.spec
    fields = _run_fields(state.grid, state.eos) | _state_fields(state)
    write_fields(path, (spec.n1, spec.n2, spec.n3), fields)


def read_state(path: str | Path) -> FlowState:
    """Read a state with the diffusivity it ran at."""
    grid, eos, _, fields = _read_run(path)
    return _state_from_fields(path, grid, eos, fields)


def write_trajectory(path: str | Path, traj: Trajectory) -> None:
    spec = traj.grid.spec
    shape = traj.grid.shape
    fields: dict[str, np.ndarray] = {
        "meta.kappa": np.full(shape, traj.kappa),
        "meta.dt": np.full(shape, traj.dt),
        "meta.nodes": np.full(shape, float(len(traj))),
        **_run_fields(traj.grid, traj.eos),
    }
    for j, state in enumerate(traj.states):
        prefix = f"snap{j:03d}."
        for name, field in _state_fields(state).items():
            fields[prefix + name] = field
    write_fields(path, (spec.n1, spec.n2, spec.n3), fields)


def read_trajectory(path: str | Path) -> Trajectory:
    """Read a trajectory with the diffusivity it ran at."""
    grid, eos, meta, fields = _read_run(path)
    for key in ("kappa", "dt", "nodes"):
        if key not in meta:
            raise CheckpointError(
                f"{path}: missing field 'meta.{key}'; not a trajectory checkpoint")
    kappa, dt, nodes = meta["kappa"], meta["dt"], meta["nodes"]
    _require_range(path, meta, "kappa", 0.0 <= kappa < math.inf)
    _require_range(path, meta, "dt", 0.0 < dt < math.inf)
    _require_range(path, meta, "nodes", nodes >= 1.0 and nodes.is_integer())
    states = [
        _state_from_fields(path, grid, eos, fields, prefix=f"snap{j:03d}.")
        for j in range(int(nodes))
    ]
    # the time derivatives divide by dt, so snapshot j must sit at t = j dt;
    # the diagnostics read node 0's reference density as well as node j's,
    # so every state holds snapshot 0's
    rho0 = states[0].rho0
    for j, state in enumerate(states):
        if abs(state.t - j * dt) > 1e-9 * max(j, 1) * dt:
            raise CheckpointError(f"{path}: snapshot {j} is at t = {state.t!r}, "
                                  f"but meta.dt = {dt!r} puts it at t = {j * dt!r}")
        if not np.array_equal(state.rho0.view(np.uint64), rho0.view(np.uint64)):
            raise CheckpointError(f"{path}: snapshot {j} holds a reference density rho0 "
                                  "that differs from snapshot 0's")
        state.rho0 = rho0
    return Trajectory(grid=grid, eos=eos, kappa=kappa, dt=dt, states=states)
