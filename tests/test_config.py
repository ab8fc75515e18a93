"""Config parser: defaults, overrides, and hard rejection of bad input."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfmhd.config import _CASTERS, ConfigError, load_config, parse_config


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg.grid.n1 == 16 and cfg.grid.n2 == 16 and cfg.grid.n3 == 16
    assert cfg.grid.dealias_fraction == pytest.approx(2.0 / 3.0)
    assert cfg.physics.diffusivity == 1.0
    assert cfg.physics.c0 == 0.25
    assert cfg.scheme.kappa == 0.1
    assert cfg.scheme.kappa_list == ()
    assert cfg.scheme.dt == 0.0125
    assert cfg.data.preset == "quiescent"
    assert cfg.outputs.checkpoint is False
    assert cfg.diagnostics.max_time_order == 2


def test_overrides_comments_and_blank_lines():
    text = """
    # a comment line
    grid.n1 = 32          # trailing comment
    grid.n3 = 24

    scheme.kappa = 0.2
    scheme.kappa_list = 0.2, 0.1 0.05
    data.preset = magnetic-tube
    data.amplitude = 0.3
    outputs.checkpoint = on
    """
    cfg = parse_config(text)
    assert cfg.grid.n1 == 32 and cfg.grid.n2 == 16 and cfg.grid.n3 == 24
    assert cfg.scheme.kappa == 0.2
    assert cfg.scheme.kappa_list == (0.2, 0.1, 0.05)
    assert cfg.data.preset == "magnetic-tube"
    assert cfg.data.amplitude == 0.3
    assert cfg.outputs.checkpoint is True


@pytest.mark.parametrize("raw,expected", [
    ("on", True), ("true", True), ("yes", True), ("1", True),
    ("off", False), ("false", False), ("no", False), ("0", False),
])
def test_bool_spellings(raw, expected):
    cfg = parse_config(f"outputs.checkpoint = {raw}")
    assert cfg.outputs.checkpoint is expected


def test_unknown_key_is_fatal():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("grid.n4 = 8")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("scheme.kapa = 0.1")
    # the lemma table is written by check-lemmas alone; run has no switch for it
    with pytest.raises(ConfigError, match="unknown key 'diagnostics.lemma_suite'"):
        parse_config("diagnostics.lemma_suite = on")


def test_malformed_line_is_fatal():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("grid.n1 16")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="<config>:2.*grid.n1"):
        parse_config("# header\ngrid.n1 = twelve")
    with pytest.raises(ConfigError, match="outputs.checkpoint"):
        parse_config("outputs.checkpoint = maybe")


@pytest.mark.parametrize("line,fragment", [
    ("grid.n1 = 7", "even and >= 8"),
    ("grid.n2 = 6", "even and >= 8"),
    ("grid.n3 = 4", ">= 8"),
    ("grid.dealias_fraction = 0", "dealias_fraction"),
    ("grid.dealias_fraction = 1.5", "dealias_fraction"),
    ("physics.diffusivity = -1", "diffusivity"),
    ("physics.c0 = -0.1", "c0"),
    ("scheme.kappa = 0", "kappa"),
    ("scheme.kappa_list = 0.1 0.2", "strictly decreasing"),
    ("scheme.kappa_list = 0.1 -0.05", "positive"),
    ("scheme.dt = 0", "dt"),
    ("scheme.T = -0.1", "T"),
    ("scheme.cfl_safety = 1.2", "cfl_safety"),
    ("scheme.picard_max_iter = 0", "picard_max_iter"),
    ("data.preset = vortex", "preset"),
    ("data.amplitude = -0.1", "amplitude"),
    ("outputs.snapshot_stride = 0", "snapshot_stride"),
    ("diagnostics.max_time_order = 3", "max_time_order"),
    ("data.seed = -1", "data.seed must be >= 0"),
    ("physics.c0 = inf", r"physics\.c0: not a finite number"),
    ("scheme.kappa = inf", r"scheme\.kappa: not a finite number"),
    ("data.amplitude = inf", r"data\.amplitude: not a finite number"),
    ("scheme.dt = nan", r"scheme\.dt: not a finite number"),
    ("grid.dealias_fraction = -inf", r"grid\.dealias_fraction: not a finite number"),
    ("scheme.kappa_list = inf 0.2", r"scheme\.kappa_list: not a finite number"),
])
def test_range_validation(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(line)


@pytest.mark.parametrize("line", ["scheme.T = 0.03", "scheme.T = 0.006", "scheme.T = 1e308"])
def test_T_must_be_a_multiple_of_dt(line):
    # the default dt is 0.0125
    with pytest.raises(ConfigError, match=r"scheme\.T = .* multiple of scheme\.dt = 0\.0125"):
        parse_config(line)
    assert parse_config("scheme.T = 0.0375").scheme.T == 0.0375


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.n1 = 32\nscheme.T = 0.1\n")
    cfg = load_config(path)
    assert cfg.grid.n1 == 32
    assert cfg.scheme.T == 0.1


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_error_names_the_source_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid.n1 = 32\nnope.key = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        load_config(path)


_VALUES = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "-1", "0", "1e308", "0.2 0.1", "0.1, nan", "on"]),
    st.floats().map(repr),
    st.integers(-3, 40).map(str),
    st.text(max_size=10),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entries=st.dictionaries(st.sampled_from(sorted(_CASTERS)), _VALUES, max_size=4),
       noise=st.lists(st.text(max_size=30), max_size=1))
def test_any_text_parses_or_raises_config_error(entries, noise):
    # whatever the parser accepts is safe to run: finite floats, seed >= 0
    text = "\n".join([f"{key} = {value}" for key, value in entries.items()] + noise)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    for section in vars(cfg).values():
        for value in vars(section).values():
            if isinstance(value, (float, tuple)):
                assert all(map(math.isfinite, value if isinstance(value, tuple) else (value,)))
    assert cfg.data.seed >= 0
