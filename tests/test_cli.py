"""Command-line front end: artifact sets, exit codes, determinism."""

import contextlib
import io
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lfmhd
from lfmhd import cli
from lfmhd.checkpoint import MAGIC, read_fields, read_trajectory, write_fields, write_trajectory
from lfmhd.linear_step import trivial_trajectory
from lfmhd.picard import NonContractionError
from lfmhd.state import PRESETS

BASE = """
grid.n1 = 16
grid.n2 = 16
grid.n3 = 16
scheme.kappa = 0.1
scheme.dt = 0.0125
scheme.T = 0.025
data.preset = quiescent
data.amplitude = 0.1
data.seed = 0
"""


# the cheapest legal lattice, appended after BASE to override it
SMALL = "grid.n1 = 8\ngrid.n2 = 8\ngrid.n3 = 8\n"


def write_cfg(tmp_path, out_dir, extra="", base=BASE, name="run.cfg"):
    path = tmp_path / name
    path.write_text(base + f"outputs.directory = {out_dir}\n" + extra)
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def column(header, rows, name, cast=float):
    j = header.index(name)
    return [cast(row[j]) if row[j] != "" else None for row in rows]


def test_run_writes_artifact_set(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", write_cfg(tmp_path, out)])
    assert code == 0
    for name in ("energy.csv", "iteration.csv", "residuals.csv"):
        assert (out / name).exists()
    comment, header, rows = read_csv(out / "energy.csv")
    assert "truncation order m = 2" in comment
    assert "units" in comment
    assert header[0] == "t" and len(header) == 16
    assert len(rows) == 3  # t = 0, dt, 2 dt
    times = column(header, rows, "t")
    assert times == pytest.approx([0.0, 0.0125, 0.025])
    captured = capsys.readouterr()
    assert "picard iterates" in captured.out
    assert "converged" in captured.out
    assert captured.err == ""  # every node inside the a priori regime (gauge <= 0.057)


def test_zero_amplitude_zero_background_is_all_zero(tmp_path):
    # With the background head switched off (c0 = 0) the amplitude-zero
    # quiescent preset is the genuine rest state and every dynamical
    # column must be written as exact zero.
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra="data.amplitude = 0\nphysics.c0 = 0\n")
    assert cli.main(["run", cfg]) == 0
    _, header, rows = read_csv(out / "energy.csv")
    for name in ("E_v", "E_b", "E_q", "H_run", "H_b", "W_q", "E_phys",
                 "D_diss", "balance_residual", "div_b"):
        vals = column(header, rows, name)
        assert vals == [0.0, 0.0, 0.0], name
    e4 = column(header, rows, "E_eta4")
    assert e4[0] > 0.0 and e4[0] == e4[1] == e4[2]


def test_repeated_runs_are_bitwise_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", write_cfg(tmp_path, out_a, name="a.cfg")]) == 0
    assert cli.main(["run", write_cfg(tmp_path, out_b, name="b.cfg")]) == 0
    for name in ("energy.csv", "iteration.csv", "residuals.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_cfl_violation_exit_code_names_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tmp_path / "out", extra="scheme.dt = 0.1\nscheme.T = 0.2\n")
    assert cli.main(["run", cfg]) == cli.EXIT_CFL
    err = capsys.readouterr().err
    assert "CFL" in err
    assert "dt = 1.000000e-01" in err
    assert "bound" in err and "min sqrt(R'(q))" in err


def test_dense_quiescent_data_pass_the_cfl_gate(tmp_path, capsys):
    # a large background head raises the reference density, not the sound
    # speed 1 / sqrt(R'(q)) that bounds the step
    cfg = write_cfg(tmp_path, tmp_path / "out", extra="physics.c0 = 4\n")
    assert cli.main(["run", cfg]) == 0
    assert "CFL" not in capsys.readouterr().err


@pytest.mark.parametrize("preset, c0, line", [
    ("quiescent", 1.0, "from t = 0.025 (node 2): geometry gauge 0.1836 > 0.1"),
    ("acoustic", 0.01, "from t = 0.0125 (node 1): Taylor margin -0.1647 < c0 / 2 = 0.005; "
                       "geometry gauge 2.66 > 0.1"),
    ("magnetic-tube", 1.0, None),
])
def test_run_says_where_it_leaves_the_a_priori_regime(tmp_path, capsys, preset, c0, line):
    # one stderr line at the first flagged residuals.csv row; exit and
    # artifacts as inside the regime
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra=SMALL + f"data.preset = {preset}\nphysics.c0 = {c0}\n")
    assert cli.main(["run", cfg]) == 0
    err = capsys.readouterr().err
    assert err == ("" if line is None else f"outside the a priori regime {line}\n")
    _, header, rows = read_csv(out / "residuals.csv")
    flags = zip(column(header, rows, "taylor_ok", int), column(header, rows, "small_ok", int))
    flagged = [j for j, pair in enumerate(flags) if 0 in pair]
    assert (flagged != []) == (line is not None)
    if flagged:
        assert f"(node {flagged[0]})" in err


def test_unknown_key_exit_code(tmp_path, capsys):
    # run has no lemma switch: check-lemmas alone writes lemmas.csv; the
    # gauge bound, the CFL factor, the snapshot stride and the dealias
    # fraction are constants
    for key in ("scheme.kapa", "diagnostics.lemma_suite", "physics.epsilon",
                "scheme.cfl_safety", "outputs.snapshot_stride", "grid.dealias_fraction"):
        cfg = write_cfg(tmp_path, tmp_path / "out", extra=f"{key} = on\n")
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert f"unknown key '{key}'" in capsys.readouterr().err


def test_inadmissible_amplitude_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tmp_path / "out", extra="data.amplitude = 0.8\n")
    assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
    assert "Rayleigh-Taylor" in capsys.readouterr().err


def test_non_contraction_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NonContractionError([1.0, 2.0, 4.0], T=0.2)

    monkeypatch.setattr(cli, "solve_nonlinear_kappa", boom)
    cfg = write_cfg(tmp_path, tmp_path / "out")
    assert cli.main(["run", cfg]) == cli.EXIT_NON_CONTRACTION
    assert "non-contraction" in capsys.readouterr().err


def test_unlisted_failure_exits_1_naming_its_type(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(cli, "make_initial_data", boom)
    assert cli.main(["run", write_cfg(tmp_path, tmp_path / "out", extra=SMALL)]) == 1
    assert capsys.readouterr().err == "error: KeyError: 'x'\n"


def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    # numpy's message names the shape it could not allocate
    def boom(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB for an array with shape "
                          "(512, 512, 513) and data type float64")

    monkeypatch.setattr(cli, "make_initial_data", boom)
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, out, extra=SMALL)]) == cli.EXIT_MEMORY
    assert capsys.readouterr().err == ("out of memory: Unable to allocate 1.00 GiB for an array "
                                       "with shape (512, 512, 513) and data type float64\n")


def test_picard_trace_prints_iterates(tmp_path, capsys):
    # run writes the contraction trace, one row per Picard iterate
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, out)]) == 0
    captured = capsys.readouterr().out
    _, header, rows = read_csv(out / "iteration.csv")
    assert re.search(r"picard iterates +(\d+)\n", captured).group(1) == str(len(rows))
    assert header == ["iterate", "difference_energy", "ratio"]
    d = column(header, rows, "difference_energy")
    assert len(d) >= 2 and d[-1] < 1e-8 * (1.0 + d[0])
    ratios = column(header, rows, "ratio")
    assert ratios[0] is None
    assert all(r is not None and r < 0.5 for r in ratios[1:])


def test_max_iter_without_convergence_exit_code(tmp_path, capsys):
    # convergence is checked from the second iterate on, so one never converges
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra=SMALL + "scheme.picard_max_iter = 1\n")
    assert cli.main(["run", cfg]) == cli.EXIT_NOT_CONVERGED
    assert "max_iter = 1 reached" in capsys.readouterr().err
    comment, header, rows = read_csv(out / "iteration.csv")
    assert comment.endswith("stop = max_iter = 1 reached; self_check = ")
    assert len(rows) == 1
    assert not (out / "energy.csv").exists()


def test_picard_trace_is_not_a_command(tmp_path, capsys):
    # run writes the same trace to iteration.csv
    cfg = write_cfg(tmp_path, tmp_path / "out", extra=SMALL)
    with pytest.raises(SystemExit) as exc:
        cli.main(["picard-trace", cfg])
    assert exc.value.code == 2
    assert "invalid choice: 'picard-trace'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_lists_every_command():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    words = re.findall(r"^lfmhd (\S+)", readme.read_text(), flags=re.MULTILINE)
    assert set(words) == set(cli.COMMANDS), words


def test_kappa_sweep_requires_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tmp_path / "out")
    assert cli.main(["kappa-sweep", cfg]) == cli.EXIT_CONFIG
    assert "kappa_list" in capsys.readouterr().err


def test_kappa_sweep_deltas_decrease(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra="scheme.kappa_list = 0.2 0.1 0.05\nscheme.T = 0.05\n")
    assert cli.main(["kappa-sweep", cfg]) == 0
    _, header, rows = read_csv(out / "sweep.csv")
    assert header == ["kappa", "iterations", "d_final", "psi_max", "delta_to_prev"]
    kappas = column(header, rows, "kappa")
    assert kappas == [0.2, 0.1, 0.05]
    deltas = column(header, rows, "delta_to_prev")
    assert deltas[0] is None
    assert deltas[1] > deltas[2] > 0.0
    captured = capsys.readouterr()
    assert re.search(r"deltas strictly decreasing\s+True", captured.out)
    assert (out / "energy.csv").exists()
    # the finest member's energy pass flags node 2; the exit stays 0
    assert captured.err == ("outside the a priori regime from t = 0.025 (node 2): "
                            "geometry gauge 0.1036 > 0.1\n")


def test_kappa_sweep_without_convergence_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra=SMALL + "scheme.kappa_list = 0.2 0.1\n"
                    "scheme.picard_max_iter = 1\n")
    assert cli.main(["kappa-sweep", cfg]) == cli.EXIT_NOT_CONVERGED
    err = capsys.readouterr().err
    # the cascade stops at its first unconverged member: no line for 0.1
    assert err.splitlines() == ["not converged: kappa = 0.2: max_iter = 1 reached"]
    assert "kappa = 0.1" not in err
    _, header, rows = read_csv(out / "sweep.csv")
    assert column(header, rows, "iterations", int) == [1]
    assert not (out / "energy.csv").exists()


def test_kappa_sweep_single_delta_is_not_called_decreasing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra=SMALL + "scheme.kappa_list = 0.2 0.1\n")
    assert cli.main(["kappa-sweep", cfg]) == 0
    out_text = capsys.readouterr().out
    assert re.search(r"deltas strictly decreasing\s+n/a", out_text)
    assert "True" not in out_text


def test_kappa_sweep_single_value_list_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra=SMALL + "scheme.kappa_list = 0.1\n")
    assert cli.main(["kappa-sweep", cfg]) == cli.EXIT_CONFIG
    assert "at least two values" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_fewer_than_three_nodes_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra=SMALL + "scheme.dt = 0.0125\nscheme.T = 0.0125\n")
    assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "scheme.T = 0.0125" in err and "scheme.dt = 0.0125" in err and "2 nodes" in err
    assert not out.exists()


def test_T_not_multiple_of_dt_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tmp_path / "out", extra="scheme.T = 0.03\n")
    assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scheme.T" in err and "scheme.dt" in err


def test_run_computes_each_constraint_once(tmp_path, monkeypatch):
    from lfmhd import diagnostics

    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for name in ("taylor_sign_margin", "small_geometry_norm"):
        monkeypatch.setattr(diagnostics, name, counting(getattr(diagnostics, name)))
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, out, extra=SMALL)]) == 0
    _, _, rows = read_csv(out / "energy.csv")
    for name in ("taylor_sign_margin", "small_geometry_norm"):
        assert calls.count(name) == len(rows) == 3


def test_run_audits_residuals_in_one_pass(tmp_path, monkeypatch):
    real = cli.energy_functionals
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "energy_functionals", counting)
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, out, extra=SMALL)]) == 0
    assert len(calls) == 1
    _, header, rows = read_csv(out / "residuals.csv")
    assert len(rows) == 3 and all(row[header.index("wave_residual")] for row in rows)


def test_check_lemmas_writes_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["check-lemmas", write_cfg(tmp_path, out)]) == 0
    _, header, rows = read_csv(out / "lemmas.csv")
    assert header == ["check", "label", "value"]
    checks = {row[0] for row in rows}
    assert checks == {"hodge", "elliptic", "trace_pin", "trace_ratio"}
    assert all(float(row[2]) >= 0.0 for row in rows)
    assert "hodge" in capsys.readouterr().out


def test_check_lemmas_runs_the_suite_once(tmp_path, monkeypatch):
    real = cli.lemma_suite
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "lemma_suite", counting)
    out = tmp_path / "out"
    assert cli.main(["check-lemmas", write_cfg(tmp_path, out, extra=SMALL)]) == 0
    assert len(calls) == 1
    assert (out / "lemmas.csv").exists()


@pytest.mark.parametrize("extra", [
    "",
    # a field that diffuses, at a diffusivity the reader once replaced by 1.0
    SMALL + "data.preset = magnetic-tube\nphysics.diffusivity = 0.5\n",
], ids=["defaults", "recorded-settings"])
def test_energy_report_matches_run_output(tmp_path, capsys, extra):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra="outputs.checkpoint = on\n" + extra)
    assert cli.main(["run", cfg]) == 0
    # the trajectory is the one checkpoint: its last snapshot is the final state
    assert sorted(p.name for p in out.iterdir()) == [
        "energy.csv", "iteration.csv", "residuals.csv", "trajectory.ckpt"]
    ckpt = out / "trajectory.ckpt"
    rep = tmp_path / "rep"
    assert cli.main(["energy-report", str(ckpt), "--out", str(rep)]) == 0
    assert (rep / "energy.csv").read_bytes() == (out / "energy.csv").read_bytes()
    assert "final E_total" in capsys.readouterr().out


def test_energy_report_rejects_garbage(tmp_path, capsys):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"GARBAGE!" + b"\x00" * 64)
    assert cli.main(["energy-report", str(junk)]) == cli.EXIT_CHECKPOINT
    assert "checkpoint error" in capsys.readouterr().err


def test_missing_checkpoint_exit_code(tmp_path, capsys):
    missing = tmp_path / "nonexistent.ckpt"
    assert cli.main(["energy-report", str(missing)]) == cli.EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert "checkpoint error" in err and "nonexistent.ckpt" in err


@pytest.mark.parametrize("nodes", [1, 2])
def test_energy_report_refuses_short_trajectory(tmp_path, capsys, grid_small, eos, nodes):
    rho0 = np.full(grid_small.shape, eos.rho(0.0))
    traj = trivial_trajectory(grid_small, eos, rho0, 0.1, 0.0125, nodes - 1)
    path = tmp_path / "short.ckpt"
    write_trajectory(path, traj)
    rep = tmp_path / "rep"
    assert cli.main(["energy-report", str(path), "--out", str(rep)]) == cli.EXIT_CHECKPOINT
    assert capsys.readouterr().err == (f"checkpoint error: {path}: {nodes} nodes; the order-2 "
                                       "time derivatives of the energies need at least 3\n")
    assert not rep.exists()


def test_energy_report_has_no_order_option(tmp_path, capsys):
    # the truncation order is fixed: the former flag is an argparse error
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy-report", str(tmp_path / "any.ckpt"), "--order", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 2" in capsys.readouterr().err


def test_energy_report_refuses_non_finite_field(tmp_path, capsys, grid_small, eos):
    rho0 = np.full(grid_small.shape, eos.rho(0.0))
    traj = trivial_trajectory(grid_small, eos, rho0, 0.1, 0.0125, 2)
    traj.states[1].eta[0][2, 3, 4] = np.nan
    path = tmp_path / "nan.ckpt"
    write_trajectory(path, traj)
    rep = tmp_path / "rep"
    assert cli.main(["energy-report", str(path), "--out", str(rep)]) == cli.EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "'snap001.eta1'" in err
    assert not rep.exists()


def _tube_checkpoint(tmp_path, capsys):
    """The trajectory checkpoint of an 8^3 magnetic-tube run."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, out, extra=SMALL + "data.preset = magnetic-tube\n"
                    "outputs.checkpoint = on\n")
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    return out / "trajectory.ckpt"


def _scaled_energy_report(tmp_path, capsys, name, factor):
    """energy-report on the tube checkpoint with field ``name`` of every state
    scaled by ``factor``: (exit code, stderr, RuntimeWarnings raised)."""
    traj = read_trajectory(_tube_checkpoint(tmp_path, capsys))
    for s in traj.states:
        setattr(s, name, getattr(s, name) * factor)
    path = tmp_path / "scaled.ckpt"
    write_trajectory(path, traj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["energy-report", str(path), "--out", str(tmp_path / "rep")])
    return code, capsys.readouterr().err, [w for w in caught
                                           if issubclass(w.category, RuntimeWarning)]


def test_energy_report_refuses_a_non_finite_cell(tmp_path, capsys):
    # finite fields whose energies overflow: the table is refused, not
    # written, and the refusal is the one line on stderr
    code, err, warned = _scaled_energy_report(tmp_path, capsys, "v", 1e200)
    assert code == cli.EXIT_BREAKDOWN and warned == []
    rep = tmp_path / "rep"
    assert err == (f"numerical breakdown: {rep / 'energy.csv'}: column E_total of row 1 "
                   "is inf, not a finite number; the table is not written\n")
    assert not (rep / "energy.csv").exists()


def test_energy_report_refuses_an_overflowing_map(tmp_path, capsys):
    # a finite map whose Jacobian overflows is refused as degenerate, in one line
    code, err, warned = _scaled_energy_report(tmp_path, capsys, "eta", 1e160)
    assert code == cli.EXIT_DEGENERATE and warned == []
    assert re.fullmatch(r"degenerate map: flow map degenerate: det = \S+ at lattice index "
                        r"\(\d+, \d+, \d+\), y = \([^)]*\)\n", err), err


def test_energy_report_refuses_a_second_reference_density(tmp_path, capsys):
    # each state would otherwise carry its own rho0, while the audits read node 0's
    path = _tube_checkpoint(tmp_path, capsys)
    dims, fields = read_fields(path)
    fields["snap002.rho0"] = 2.0 * fields["snap002.rho0"]
    write_fields(path, dims, fields)
    rep = tmp_path / "rep"
    assert cli.main(["energy-report", str(path), "--out", str(rep)]) == cli.EXIT_CHECKPOINT
    assert capsys.readouterr().err == (f"checkpoint error: {path}: snapshot 2 holds a reference "
                                       "density rho0 that differs from snapshot 0's\n")
    assert not rep.exists()


def test_cli_imports_no_scipy():
    src = str(Path(lfmhd.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import lfmhd.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_non_ascii_field_name_exit_code(tmp_path, capsys):
    header = struct.pack("<IIIII", 1, 8, 8, 8, 1)
    field = struct.pack("<I", 2) + b"q\xff" + bytes(8 * 8 * 9 * 8)
    path = tmp_path / "name.ckpt"
    path.write_bytes(MAGIC + header + field)
    assert cli.main(["energy-report", str(path)]) == cli.EXIT_CHECKPOINT
    assert "not ASCII" in capsys.readouterr().err


def test_repeated_field_name_exit_code(tmp_path, capsys):
    header = struct.pack("<IIIII", 1, 8, 8, 8, 2)
    field = struct.pack("<I", 1) + b"q" + bytes(8 * 8 * 9 * 8)
    path = tmp_path / "twice.ckpt"
    path.write_bytes(MAGIC + header + field + field)
    assert cli.main(["energy-report", str(path)]) == cli.EXIT_CHECKPOINT
    assert f"{path}: field 'q' appears twice" in capsys.readouterr().err


@pytest.mark.parametrize("extra,fragment", [
    ("data.seed = -1\n", "data.seed"),
    ("scheme.kappa = inf\n", "scheme.kappa"),
    ("physics.c0 = inf\n", "physics.c0"),
    ("data.amplitude = inf\n", "data.amplitude"),
    # the head or its density exp(q) overflows
    ("data.preset = magnetic-tube\nphysics.c0 = 1e300\ndata.amplitude = 0\n", "c0 = 1e+300"),
    ("data.preset = acoustic\ndata.amplitude = 1e6\n", "amplitude 1000000.0"),
    # |b|^2 overflows the total head Q, which the admission gate names
    ("data.preset = magnetic-tube\ndata.amplitude = 1e200\n", "pressure head Q = q + |b|^2 / 2"),
])
def test_values_that_crash_later_are_config_errors(tmp_path, capsys, extra, fragment):
    cfg = write_cfg(tmp_path, tmp_path / "out", extra=SMALL + extra)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err
    assert len(err.splitlines()) == 1


def test_diffusion_stall_exit_code(tmp_path, capsys, monkeypatch):
    # a residual target below rounding leaves the Krylov solve stalled; the
    # config refuses such a target, so it goes to the solver directly
    options = cli._solver_options
    monkeypatch.setattr(cli, "_solver_options", lambda cfg: {**options(cfg), "diffusion_tol": 1e-30})
    cfg = write_cfg(tmp_path, tmp_path / "out", extra=SMALL + "data.preset = magnetic-tube\n")
    assert cli.main(["run", cfg]) == cli.EXIT_DIFFUSION
    err = capsys.readouterr().err
    assert err.startswith("diffusion solve stalled:") and "target 1.0e-30" in err


def test_numerical_breakdown_exit_code(tmp_path, capsys, monkeypatch):
    real = cli.make_initial_data

    def nan_velocity(*args, **kwargs):
        init = real(*args, **kwargs)
        init.v[1, 2, 3, 4] = np.nan
        return init

    monkeypatch.setattr(cli, "make_initial_data", nan_velocity)
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, out, extra=SMALL)]) == cli.EXIT_BREAKDOWN
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown:") and "not finite at node 1" in err
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("dt", ["1e-300", "1e-160"])
def test_non_finite_difference_energy_names_dt(tmp_path, capsys, dt):
    # the time differences divide by dt^2, which overflows (1e-300) or
    # underflows to a subnormal (1e-160)
    extra = SMALL + f"data.preset = magnetic-tube\nscheme.dt = {dt}\nscheme.T = {2 * float(dt)}\n"
    cfg = write_cfg(tmp_path, tmp_path / "out", extra=extra)
    with np.errstate(all="ignore"):
        assert cli.main(["run", cfg]) == cli.EXIT_BREAKDOWN
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: picard iterate 1: difference energy d_1 = ")
    assert "is not finite" in err and "1/dt^2" in err and f"scheme.dt = {dt}" in err
    # no warning comes ahead of the one-line message: raised as errors,
    # any would end in the catch-all exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == cli.EXIT_BREAKDOWN
    assert capsys.readouterr().err == err


DOCUMENTED_EXITS = {0, cli.EXIT_NOT_CONVERGED} | {code for _, code, _ in cli.FAILURES}


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: float(10.0 ** e))


def _documented_exit(command, extra, names, text_columns=()):
    """Run ``command`` on BASE + ``extra``; assert a documented exit code and,
    on exit 0, a finite number in every cell of the tables ``names`` outside
    ``text_columns``.  Returns ({name: (header, rows)} on exit 0, else {},
    and the command's stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, write_cfg(Path(tmp), out, extra=extra)])
        assert code in DOCUMENTED_EXITS
        if code != 0:
            return {}, err.getvalue()
        tables = {name: read_csv(out / name)[1:] for name in names}
    for name, (header, rows) in tables.items():
        for row in rows:
            for column, cell in zip(header, row):
                assert column in text_columns or cell == "" or np.isfinite(float(cell)), \
                    (name, header, row)
    return tables, err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(preset=st.sampled_from(PRESETS), amplitude=_log_uniform(1e-4, 0.5),
       kappa=_log_uniform(1e-3, 1.0),
       diffusivity=st.floats(0.05, 4.0), c0=_log_uniform(1e-3, 100.0),
       max_iter=st.integers(3, 6))
# the derandomized draw follows the test's source, so the exits the c0 range
# is there to reach are pinned: 3 in the narrow band of c0 (about 22 to 35 on
# quiescent data) where the CFL gate refuses first, and 5 above it
@example(preset="quiescent", amplitude=0.1, kappa=0.1, diffusivity=1.0, c0=30.0, max_iter=6)
@example(preset="magnetic-tube", amplitude=0.1, kappa=0.1, diffusivity=1.0, c0=100.0, max_iter=6)
# c0 = 0 is pinned rather than drawn: quiescent data are then all zero and
# run (exit 0), while acoustic data have no Taylor margin (exit 2)
@example(preset="quiescent", amplitude=0.1, kappa=0.1, diffusivity=1.0, c0=0.0, max_iter=6)
@example(preset="acoustic", amplitude=0.1, kappa=0.1, diffusivity=1.0, c0=0.0, max_iter=6)
def test_run_of_any_accepted_config_exits_with_a_documented_code(
        preset, amplitude, kappa, diffusivity, c0, max_iter):
    # BASE runs T = 2 dt; SMALL puts it on the 8^3 lattice.  There a run
    # leaves the a priori regime from c0 = 1 on quiescent data and at any c0
    # on acoustic data, and exits 3 or 5 from about c0 = 10 on
    extra = SMALL + (
        f"data.preset = {preset}\ndata.amplitude = {amplitude!r}\nscheme.kappa = {kappa!r}\n"
        f"physics.diffusivity = {diffusivity!r}\nphysics.c0 = {c0!r}\n"
        f"scheme.picard_max_iter = {max_iter}\n"
    )
    tables, err = _documented_exit("run", extra,
                                   ("energy.csv", "iteration.csv", "residuals.csv"))
    if not tables:
        assert "a priori regime" not in err
        return
    # the constraint columns of both tables come from one pass over the nodes
    (e_header, e_rows), (r_header, r_rows) = tables["energy.csv"], tables["residuals.csv"]
    for name in ("t", "div_b", "taylor_margin", "small_geometry"):
        assert column(e_header, e_rows, name, str) == column(r_header, r_rows, name, str)
    # the regime line appears exactly when some row is flagged
    flags = column(r_header, r_rows, "taylor_ok", int) + column(r_header, r_rows, "small_ok", int)
    assert ("outside the a priori regime from t = " in err) == (0 in flags), err


# max_iter = 1 always exits 7 with only iteration.csv written, since
# convergence is checked from the second iterate on
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(preset=st.sampled_from(PRESETS), amplitude=_log_uniform(1e-4, 0.5),
       kappa=_log_uniform(1e-3, 1.0), max_iter=st.integers(1, 6))
def test_picard_trace_of_any_accepted_config_exits_with_a_documented_code(
        preset, amplitude, kappa, max_iter):
    extra = SMALL + (f"data.preset = {preset}\ndata.amplitude = {amplitude!r}\n"
                     f"scheme.kappa = {kappa!r}\nscheme.picard_max_iter = {max_iter}\n")
    _documented_exit("run", extra, ("iteration.csv",))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(preset=st.sampled_from(PRESETS),
       kappas=st.lists(_log_uniform(1e-3, 1.0), min_size=1, max_size=3),
       descending=st.booleans())
def test_kappa_sweep_of_any_kappa_list_exits_with_a_documented_code(preset, kappas, descending):
    # in the drawn order, or sorted into the order the sweep accepts
    kappas = sorted(kappas, reverse=True) if descending else kappas
    extra = SMALL + (f"data.preset = {preset}\n"
                     f"scheme.kappa_list = {' '.join(repr(k) for k in kappas)}\n")
    _documented_exit("kappa-sweep", extra, ("sweep.csv", "energy.csv"))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**63 - 1))
def test_check_lemmas_of_any_seed_exits_with_a_documented_code(seed):
    _documented_exit("check-lemmas", SMALL + f"data.seed = {seed}\n", ("lemmas.csv",),
                     text_columns=("check", "label"))


@pytest.fixture(scope="module")
def tube_fields(tmp_path_factory):
    """(dims, fields) of the trajectory checkpoint of an 8^3 magnetic-tube run."""
    tmp = tmp_path_factory.mktemp("tube")
    cfg = write_cfg(tmp, tmp / "out", extra=SMALL + "data.preset = magnetic-tube\n"
                    "outputs.checkpoint = on\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["run", cfg]) == 0
    return read_fields(tmp / "out" / "trajectory.ckpt")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["eta1", "v1", "b2", "q", "rho0"]), exponent=st.floats(0.0, 300.0))
@example(name="v1", exponent=200.0)  # the energies overflow: exit 9
@example(name="eta1", exponent=10.0)  # the map folds over: exit 5
def test_energy_report_of_any_scaled_field_exits_with_a_documented_code(tube_fields, name,
                                                                         exponent):
    # a finite field passes the reader, however large; the report then
    # exits with a documented code, in one stderr line at most, with no
    # RuntimeWarning and no non-finite cell
    dims, fields = tube_fields
    scaled = {key: value * 10.0 ** exponent if key.endswith("." + name) else value
              for key, value in fields.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path, rep = Path(tmp) / "scaled.ckpt", Path(tmp) / "rep"
        write_fields(path, dims, scaled)
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO()) as err):
            warnings.simplefilter("always")
            code = cli.main(["energy-report", str(path), "--out", str(rep)])
        cells = ([cell for line in (rep / "energy.csv").read_text().splitlines()[2:]
                  for cell in line.split(",")] if code == 0 else [])
    assert code in DOCUMENTED_EXITS
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert all(np.isfinite(float(cell)) for cell in cells if cell != "")


# ----------------------------------------------------------------------
# unwritable outputs


def _blocked(tmp_path):
    # a directory path below a regular file cannot be created
    blocker = tmp_path / "afile"
    blocker.write_text("")
    return blocker / "x"


@pytest.mark.parametrize("command", ["run", "kappa-sweep", "check-lemmas"])
def test_output_directory_below_a_file_exit_code(tmp_path, capsys, command):
    out = _blocked(tmp_path)
    cfg = write_cfg(tmp_path, out, extra=SMALL + "scheme.kappa_list = 0.2 0.1\n")
    assert cli.main([command, cfg]) == cli.EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(out) in err


def test_energy_report_output_below_a_file_exit_code(tmp_path, capsys, grid_small, eos):
    rho0 = np.full(grid_small.shape, eos.rho(0.0))
    path = tmp_path / "triv.ckpt"
    write_trajectory(path, trivial_trajectory(grid_small, eos, rho0, 0.1, 0.0125, 2))
    out = _blocked(tmp_path)
    assert cli.main(["energy-report", str(path), "--out", str(out)]) == cli.EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(out) in err


@pytest.mark.parametrize("artifact", ["iteration.csv", "energy.csv", "trajectory.ckpt"])
def test_unwritable_artifact_exit_code(tmp_path, capsys, artifact):
    # a directory where the artifact goes: the write itself fails
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    cfg = write_cfg(tmp_path, out, extra=SMALL + "outputs.checkpoint = on\n")
    assert cli.main(["run", cfg]) == cli.EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(out / artifact) in err
