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
scalar metadata (time, smoothing scale, step, diffusivity, dealias
fraction) as constant lattices so the format stays uniform.  The header
dims must make a ``GridSpec``; they are checked before any payload is
read.  A field with a NaN or an infinity is refused on read.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .grid import Grid, GridSpec
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
    return {
        "meta.diffusivity": np.full(grid.shape, eos.diffusivity),
        "meta.dealias_fraction": np.full(grid.shape, grid.spec.dealias_fraction),
    }


def _read_run(path: str | Path):
    """Read ``path`` and the run it records: its grid, equation of state,
    ``meta.`` scalars and fields.

    Files without ``meta.diffusivity`` or ``meta.dealias_fraction`` read
    as 1.0 and 2/3, the values every run used before they were recorded.
    A recorded scalar out of range is refused.
    """
    dims, fields = read_fields(path)
    meta = {"diffusivity": 1.0, "dealias_fraction": 2.0 / 3.0}
    meta.update((key.removeprefix("meta."), float(field.flat[0]))
                for key, field in fields.items() if key.startswith("meta."))
    # 1.0 stands in for a trajectory scalar a state file does not record
    kappa, dt, nodes, diffusivity = (meta.get(key, 1.0)
                                     for key in ("kappa", "dt", "nodes", "diffusivity"))
    for name, ok in (
        ("kappa", 0.0 <= kappa < math.inf),
        ("dt", 0.0 < dt < math.inf),
        ("nodes", nodes >= 1.0 and nodes.is_integer()),
        ("diffusivity", 0.0 < diffusivity < math.inf),
    ):
        if not ok:
            raise CheckpointError(f"{path}: meta.{name} out of range: {meta[name]}")
    try:
        grid = Grid(GridSpec(*dims, dealias_fraction=meta["dealias_fraction"]))
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return grid, EquationOfState(diffusivity=meta["diffusivity"]), meta, fields


def write_state(path: str | Path, state: FlowState) -> None:
    spec = state.grid.spec
    fields = _run_fields(state.grid, state.eos) | _state_fields(state)
    write_fields(path, (spec.n1, spec.n2, spec.n3), fields)


def read_state(path: str | Path) -> FlowState:
    """Read a state with the diffusivity and dealias fraction it ran at."""
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
    """Read a trajectory with the diffusivity and dealias fraction it ran at."""
    grid, eos, meta, fields = _read_run(path)
    for key in ("kappa", "dt", "nodes"):
        if key not in meta:
            raise CheckpointError(
                f"{path}: missing field 'meta.{key}'; not a trajectory checkpoint")
    states = [
        _state_from_fields(path, grid, eos, fields, prefix=f"snap{j:03d}.")
        for j in range(int(meta["nodes"]))
    ]
    return Trajectory(grid=grid, eos=eos, kappa=meta["kappa"], dt=meta["dt"], states=states)
