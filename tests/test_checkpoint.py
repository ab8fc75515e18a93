"""Checkpoint format: bitwise round trips and strict header validation."""

import importlib.util
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfmhd
from lfmhd.checkpoint import (
    MAGIC,
    CheckpointError,
    read_fields,
    read_state,
    read_trajectory,
    write_fields,
    write_state,
    write_trajectory,
)
from lfmhd.linear_step import trivial_trajectory
from lfmhd.state import FlowState

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def grid():
    return lfmhd.Grid(lfmhd.GridSpec(8, 8, 8))


@pytest.fixture(scope="module")
def state(grid):
    eos = lfmhd.EquationOfState()
    return lfmhd.make_initial_data(grid, "magnetic-tube", amplitude=0.2, seed=1, eos=eos)


def test_fields_round_trip_bitwise(tmp_path, grid):
    rng = np.random.default_rng(5)
    fields = {name: rng.standard_normal(grid.shape) for name in ("a", "b2", "long_name")}
    path = tmp_path / "f.ckpt"
    write_fields(path, (8, 8, 8), fields)
    dims, back = read_fields(path)
    assert dims == (8, 8, 8)
    assert set(back) == set(fields)
    for name in fields:
        assert np.array_equal(back[name], fields[name])


def test_wire_layout_is_y3_major_little_endian(tmp_path, grid):
    field = np.arange(8 * 8 * 9, dtype=float).reshape(8, 8, 9)
    path = tmp_path / "w.ckpt"
    write_fields(path, (8, 8, 8), {"f": field})
    raw = path.read_bytes()
    offset = 8 + 20 + 4 + 1  # magic, header, name length, name "f"
    first, second = struct.unpack_from("<dd", raw, offset)
    assert first == field[0, 0, 0]
    assert second == field[1, 0, 0]  # y1 varies fastest on the wire
    (level_jump,) = struct.unpack_from("<d", raw, offset + 8 * 8 * 8)
    assert level_jump == field[0, 0, 1]  # y3 slowest


def test_shape_mismatch_refused(tmp_path):
    with pytest.raises(CheckpointError, match="lattice wants"):
        write_fields(tmp_path / "x.ckpt", (8, 8, 8), {"f": np.zeros((8, 8, 8))})


def test_state_round_trip_bitwise(tmp_path, state):
    path = tmp_path / "s.ckpt"
    write_state(path, state)
    back = read_state(path)
    assert back.t == state.t
    for name in ("eta", "v", "b"):
        assert np.array_equal(getattr(back, name), getattr(state, name))
    assert np.array_equal(back.q, state.q)
    assert np.array_equal(back.rho0, state.rho0)


def test_trajectory_round_trip(tmp_path, grid, state):
    traj = trivial_trajectory(grid, state.eos, state.rho0, kappa=0.1, dt=0.01, nsteps=3)
    path = tmp_path / "t.ckpt"
    write_trajectory(path, traj)
    back = read_trajectory(path)
    assert back.kappa == traj.kappa
    assert back.dt == traj.dt
    assert len(back) == len(traj)
    for s_in, s_out in zip(traj.states, back.states):
        assert s_out.t == s_in.t
        assert np.array_equal(s_out.eta, s_in.eta)
        assert np.array_equal(s_out.q, s_in.q)


def test_bad_magic_refused(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTMHD!!" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        read_fields(path)


def test_too_short_refused(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(MAGIC[:4])
    with pytest.raises(CheckpointError, match="too short"):
        read_fields(path)


def test_unsupported_version_refused(tmp_path):
    path = tmp_path / "v.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IIIII", 7, 8, 8, 8, 0))
    with pytest.raises(CheckpointError, match="unsupported version 7"):
        read_fields(path)


def test_truncated_file_refused(tmp_path, state):
    path = tmp_path / "full.ckpt"
    write_state(path, state)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        read_fields(cut)


def test_implausible_dims_refused(tmp_path):
    # header dims must make a GridSpec, checked before any payload
    path = tmp_path / "d.ckpt"
    for dims in ((8, 8, 99999), (8, 8, 4097), (9, 8, 8)):
        path.write_bytes(MAGIC + struct.pack("<IIIII", 1, *dims, 0))
        with pytest.raises(CheckpointError, match="implausible grid dims"):
            read_fields(path)


def test_state_records_diffusivity(tmp_path, grid, state):
    eos = lfmhd.EquationOfState(diffusivity=0.5)
    other = FlowState(grid=grid, eos=eos, t=0.25, eta=state.eta, v=state.v,
                      b=state.b, q=state.q, rho0=state.rho0)
    path = tmp_path / "s.ckpt"
    write_state(path, other)
    back = read_state(path)
    assert back.eos == eos
    assert back.grid.spec == grid.spec
    assert back.t == 0.25 and np.array_equal(back.b, state.b)
    # a state file written before the diffusivity was recorded reads the default
    old = tmp_path / "old.ckpt"
    fields = {name: field for name, field in read_fields(path)[1].items()
              if not name.startswith("meta.")}
    write_fields(old, (8, 8, 8), fields)
    back = read_state(old)
    assert back.eos == lfmhd.EquationOfState()
    assert back.grid.spec == lfmhd.GridSpec(8, 8, 8)
    assert np.array_equal(back.b, state.b)


def test_cross_endian_fixture_refused():
    # Byte-swapped twin written by tests/data/make_cross_endian.py.  The
    # format is little-endian only, so the version word decodes huge and
    # the reader must refuse rather than return garbage fields.
    fixture = DATA_DIR / "cross_endian.ckpt"
    with pytest.raises(CheckpointError, match="little-endian"):
        read_fields(fixture)


def test_cross_endian_fixture_matches_generator():
    # The committed fixture must be exactly what its seeded generator
    # builds, so neither can drift from the other unnoticed.
    spec = importlib.util.spec_from_file_location(
        "make_cross_endian", DATA_DIR / "make_cross_endian.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert (DATA_DIR / "cross_endian.ckpt").read_bytes() == generator.build()


def test_missing_field_in_state_checkpoint(tmp_path, grid):
    path = tmp_path / "partial.ckpt"
    write_fields(path, (8, 8, 8), {"t": np.zeros(grid.shape)})
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: missing field 'eta1'$"):
        read_state(path)


def test_missing_field_in_trajectory_checkpoint(tmp_path, grid, state):
    path = tmp_path / "partial.ckpt"
    traj = trivial_trajectory(grid, state.eos, state.rho0, kappa=0.1, dt=0.01, nsteps=2)
    write_trajectory(path, traj)
    _, fields = read_fields(path)
    del fields["snap001.q"]
    write_fields(path, (8, 8, 8), fields)
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: missing field 'snap001.q'$"):
        read_trajectory(path)


def test_state_checkpoint_is_not_a_trajectory(tmp_path, state):
    path = tmp_path / "s.ckpt"
    write_state(path, state)
    with pytest.raises(CheckpointError, match="not a trajectory checkpoint"):
        read_trajectory(path)


def _edited_trajectory(tmp_path, grid, state, key, value):
    """A three-node trajectory checkpoint at dt = 0.01 with field ``key`` set to ``value``."""
    traj = trivial_trajectory(grid, state.eos, state.rho0, kappa=0.1, dt=0.01, nsteps=2)
    path = tmp_path / "t.ckpt"
    write_trajectory(path, traj)
    _, fields = read_fields(path)
    fields[key] = np.full(grid.shape, value)
    write_fields(path, (8, 8, 8), fields)
    return path


@pytest.mark.parametrize("key,value,node", [
    ("meta.dt", 1e-200, 1), ("meta.dt", 0.02, 1), ("meta.dt", 0.01 * (1.0 + 1e-6), 1),
    ("snap002.t", 0.03, 2), ("snap000.t", 1e-3, 0),
])
def test_snapshot_times_off_the_step_refused(tmp_path, grid, state, key, value, node):
    # the time differences divide by meta.dt, so it must agree with the
    # snapshots' own times t = j dt
    path = _edited_trajectory(tmp_path, grid, state, key, value)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: snapshot {node} is "
                                              r"at t = \S+, but meta\.dt = \S+ puts it at t = "):
        read_trajectory(path)


def test_snapshot_times_within_rounding_of_the_step_read(tmp_path, grid, state):
    path = _edited_trajectory(tmp_path, grid, state, "snap002.t", 0.02 * (1.0 + 1e-12))
    assert read_trajectory(path).states[2].t == 0.02 * (1.0 + 1e-12)


def test_unreadable_path_refused(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_fields(tmp_path / "nonexistent.ckpt")
    with pytest.raises(CheckpointError, match="cannot read"):
        read_fields(tmp_path)


def _trajectory_fields(extra):
    shape = (8, 8, 9)
    fields = {"meta.kappa": np.full(shape, 0.1), "meta.dt": np.full(shape, 0.01),
              "meta.nodes": np.full(shape, 1.0)}
    for name in ("t", "eta1", "eta2", "eta3", "v1", "v2", "v3", "b1", "b2", "b3", "q"):
        fields[f"snap000.{name}"] = np.zeros(shape)
    fields["snap000.rho0"] = np.ones(shape)
    fields.update({key: np.full(shape, value) for key, value in extra.items()})
    return fields


def test_trajectory_records_diffusivity(tmp_path, grid):
    eos = lfmhd.EquationOfState(diffusivity=0.25)
    traj = trivial_trajectory(grid, eos, np.ones(grid.shape), kappa=0.1, dt=0.01, nsteps=2)
    path = tmp_path / "t.ckpt"
    write_trajectory(path, traj)
    assert not any(name.startswith("meta.dealias") for name in read_fields(path)[1])
    back = read_trajectory(path)
    assert back.eos == eos
    assert back.grid.spec == grid.spec
    # a file written before the diffusivity was recorded reads the default,
    # and one that records the dealias fraction every run applies reads too
    old = tmp_path / "old.ckpt"
    for extra in ({}, {"meta.dealias_fraction": 2.0 / 3.0}):
        write_fields(old, (8, 8, 8), _trajectory_fields(extra))
        back = read_trajectory(old)
        assert back.eos == lfmhd.EquationOfState()
        assert back.grid.spec == lfmhd.GridSpec(8, 8, 8)


@pytest.mark.parametrize("key,value", [
    ("meta.diffusivity", 0.0), ("meta.diffusivity", np.inf), ("meta.diffusivity", np.nan),
    # a fraction other than the 2/3 every run applies, which older files record
    ("meta.dealias_fraction", 0.0), ("meta.dealias_fraction", 1.5),
    ("meta.dealias_fraction", np.nan), ("meta.dealias_fraction", 0.5),
    ("meta.nodes", np.nan), ("meta.nodes", 1.5),
    ("meta.dt", 0.0), ("meta.kappa", -0.1),
])
def test_out_of_range_recorded_setting_refused(tmp_path, key, value):
    path = tmp_path / "bad.ckpt"
    write_fields(path, (8, 8, 8), _trajectory_fields({key: value}))
    with pytest.raises(CheckpointError, match=key.split(".")[1]):
        read_trajectory(path)


@pytest.fixture(scope="module")
def state_bytes(state, tmp_path_factory):
    path = tmp_path_factory.mktemp("valid") / "s.ckpt"
    write_state(path, state)
    return path.read_bytes()


def _read(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.ckpt"
        path.write_bytes(raw)
        return read_fields(path)


# well-formed headers whose fields are garbled, so parsing gets past the magic
_HEADED = st.builds(
    lambda count, dims, names, tail: (
        MAGIC + struct.pack("<IIIII", 1, *dims, count)
        + b"".join(struct.pack("<I", len(n)) + n + bytes(dims[0] * dims[1] * (dims[2] + 1) * 8)
                   for n in names)
        + tail
    ),
    st.integers(0, 3),
    st.sampled_from([(8, 8, 8), (8, 10, 9), (7, 8, 8)]),
    st.lists(st.binary(max_size=6), max_size=3),
    st.binary(max_size=16),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(lambda b: MAGIC + b),
                     _HEADED),
       cut=st.floats(0.0, 1.0, exclude_max=True))
def test_read_fields_raises_only_checkpoint_error(state_bytes, raw, cut):
    # any bytes are read or refused with CheckpointError, nothing else
    try:
        _read(raw)
    except CheckpointError:
        pass
    # and every strict prefix of a valid file is refused
    with pytest.raises(CheckpointError):
        _read(state_bytes[: int(cut * len(state_bytes))])
