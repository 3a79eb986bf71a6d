import dataclasses
import re

import pytest

from cylform.config import (
    DEFAULT_SNAPSHOTS,
    PRESETS,
    load_config,
    parse_config,
    preset,
    snapshot_label,
)
from cylform.errors import ConfigError

MINIMAL = """
grid.M = 15
grid.N = 8
initial.planar_reaction = 4
initial.axial_reaction = 3
initial.planar_anchor = (1,0.8,0.1)
initial.planar_leader = (1,1,0)
initial.axial_anchor = (0,-1,0)
initial.axial_leader = (0,1,0)
desired.planar_reaction = 5
desired.axial_reaction = 2
desired.planar_anchor = (1,0.5,0)
desired.planar_leader = (1,1,0)
desired.axial_anchor = (0,-1,0)
desired.axial_leader = (0,0.8,0)
delay.true = 0.3
delay.lo = 0.1
delay.hi = 1
delay.gain = 0.05
delay.initial_estimate = 0.5
run.duration = 0.4
run.rings = 1 8 15
run.snapshots = none
"""


def edit(text, old, new):
    assert old in text
    return text.replace(old, new)


def set_key(text, key, value):
    """Set ``key`` to ``value``, replacing its line or appending one."""
    line = re.compile(rf"^{re.escape(key)} = .*$", re.MULTILINE)
    if line.search(text):
        return line.sub(f"{key} = {value}", text)
    return text + f"{key} = {value}\n"


class TestParsing:
    def test_minimal_config_parses(self):
        cfg = parse_config(MINIMAL, "m")
        assert cfg.grid_m == 15 and cfg.grid_n == 8
        assert cfg.true_delay == 0.3
        assert cfg.initial.planar_coeffs.reaction == 4.0
        assert cfg.initial.planar_anchor == {1: 0.8 + 0.1j}
        assert cfg.desired.axial_leader == {0: 0.8 + 0j}
        assert cfg.snapshot_times == ()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# leading comment\n\n" + MINIMAL +
                           "\nrun.block = 0.004  # trailing\n", "m")
        assert cfg.block == 0.004

    def test_defaults_echoed(self):
        cfg = parse_config(MINIMAL, "m")
        assert cfg.block is None
        assert cfg.fixed_estimate is False
        assert cfg.output_dir is None

    def test_default_snapshots_when_key_missing(self):
        text = edit(MINIMAL, "run.snapshots = none", "")
        text = edit(text, "run.duration = 0.4", "run.duration = 50")
        cfg = parse_config(text, "m")
        assert cfg.snapshot_times == tuple(sorted(DEFAULT_SNAPSHOTS))

    def test_default_snapshots_keep_the_instants_within_the_horizon(self):
        cfg = parse_config(edit(MINIMAL, "run.snapshots = none", ""), "m")
        assert cfg.snapshot_times == (0.0, 0.09, 0.2)

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"m:\d+: duplicate key"):
            parse_config(MINIMAL + "\ngrid.M = 21\n", "m")

    def test_unknown_section_and_key(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\nplant.M = 3\n", "m")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\ngrid.depth = 3\n", "m")

    def test_undotted_key_rejected(self):
        with pytest.raises(ConfigError, match="not dotted"):
            parse_config("duration = 4", "m")

    def test_missing_required_key(self):
        text = edit(MINIMAL, "run.duration = 0.4", "")
        with pytest.raises(ConfigError, match="run.duration"):
            parse_config(text, "m")

    def test_bad_number_reports_line(self):
        text = edit(MINIMAL, "delay.true = 0.3", "delay.true = soon")
        with pytest.raises(ConfigError, match=r"m:\d+: delay.true expects"):
            parse_config(text, "m")

    def test_coefficient_triples(self):
        text = edit(MINIMAL, "initial.planar_anchor = (1,0.8,0.1)",
                    "initial.planar_anchor = (1,0.8,0.1) (-2,-1,0.5) (0,2,0)")
        cfg = parse_config(text, "m")
        assert cfg.initial.planar_anchor == {1: 0.8 + 0.1j, -2: -1 + 0.5j,
                                             0: 2 + 0j}

    def test_malformed_triple_rejected(self):
        text = edit(MINIMAL, "initial.planar_anchor = (1,0.8,0.1)",
                    "initial.planar_anchor = (1,0.8)")
        with pytest.raises(ConfigError, match="triples"):
            parse_config(text, "m")

    def test_repeated_wavenumber_rejected(self):
        text = edit(MINIMAL, "initial.planar_anchor = (1,0.8,0.1)",
                    "initial.planar_anchor = (1,1,0) (1,2,0)")
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(text, "m")

    def test_complex_scalar_pair(self):
        text = edit(MINIMAL, "initial.planar_reaction = 4",
                    "initial.planar_reaction = (4,0.5)")
        cfg = parse_config(text, "m")
        assert cfg.initial.planar_coeffs.reaction == 4 + 0.5j

    def test_axial_coefficients_must_be_real(self):
        text = edit(MINIMAL, "initial.axial_reaction = 3",
                    "initial.axial_reaction = (3,1)")
        with pytest.raises(ConfigError, match="real"):
            parse_config(text, "m")

    def test_dt_auto_and_numeric(self):
        assert parse_config(MINIMAL + "\nrun.block = auto\n", "m").block is None
        assert parse_config(MINIMAL + "\nrun.block = 1e-3\n", "m").block == 1e-3

    def test_snapshots_parsed_sorted(self):
        text = edit(MINIMAL, "run.snapshots = none", "run.snapshots = 0.3 0 0.1")
        assert parse_config(text, "m").snapshot_times == (0.0, 0.1, 0.3)


class TestValidation:
    def test_true_delay_outside_bounds(self):
        text = edit(MINIMAL, "delay.true = 0.3", "delay.true = 2")
        with pytest.raises(ConfigError, match="outside declared bounds"):
            parse_config(text, "m")

    @pytest.mark.parametrize("lo", ["0", "-1"])
    def test_lower_delay_bound_must_be_positive(self, lo):
        # true delay and estimate stay inside [lo, hi]
        text = edit(MINIMAL, "delay.lo = 0.1", f"delay.lo = {lo}")
        with pytest.raises(ConfigError, match="delay.lo must be positive"):
            parse_config(text, "m")

    def test_initial_estimate_outside_bounds(self):
        text = edit(MINIMAL, "delay.initial_estimate = 0.5",
                    "delay.initial_estimate = 0.05")
        with pytest.raises(ConfigError, match="initial_estimate"):
            parse_config(text, "m")

    def test_gain_open_interval(self):
        for bad in ("0", "1", "-0.1"):
            text = edit(MINIMAL, "delay.gain = 0.05", f"delay.gain = {bad}")
            with pytest.raises(ConfigError, match="gain"):
                parse_config(text, "m")

    def test_duration_positive(self):
        text = edit(MINIMAL, "run.duration = 0.4", "run.duration = 0")
        with pytest.raises(ConfigError, match="duration"):
            parse_config(text, "m")

    def test_dt_positive(self):
        with pytest.raises(ConfigError, match="run.block"):
            parse_config(MINIMAL + "\nrun.block = -1e-3\n", "m")

    def test_snapshot_beyond_horizon(self):
        text = edit(MINIMAL, "run.snapshots = none", "run.snapshots = 0 0.5")
        with pytest.raises(ConfigError, match="snapshot"):
            parse_config(text, "m")

    @pytest.mark.parametrize("times", ["0.01000001 0.01000004", "0.02 0.02"])
    def test_snapshots_sharing_a_file_label(self, times):
        text = edit(MINIMAL, "run.snapshots = none", f"run.snapshots = {times}")
        with pytest.raises(ConfigError, match="share the file label"):
            parse_config(text, "m")

    def test_snapshot_labels_unchanged(self):
        assert [snapshot_label(t) for t in (0.0, 0.09, 2.0, 40.0, 0.123,
                                            0.01000001)] == \
            ["0", "0.09", "2", "40", "0.123", "0.01"]

    def test_ring_out_of_range(self):
        text = edit(MINIMAL, "run.rings = 1 8 15", "run.rings = 1 16")
        with pytest.raises(ConfigError, match="ring"):
            parse_config(text, "m")

    def test_repeated_ring_index(self):
        # each ring writes one column of the series, named by its index
        text = edit(MINIMAL, "run.rings = 1 8 15", "run.rings = 5 5 3")
        with pytest.raises(ConfigError, match="^ring index 5 is listed twice$"):
            parse_config(text, "m")

    def test_even_axial_count_rejected(self):
        text = edit(MINIMAL, "grid.M = 15", "grid.M = 16")
        with pytest.raises(ConfigError, match="grid"):
            parse_config(text, "m")

    @pytest.mark.parametrize("key", ["realization", "history_nodes"])
    def test_removed_run_keys_are_unknown(self, key):
        with pytest.raises(ConfigError,
                           match=rf"m:\d+: unknown key '{key}' in section 'run'"):
            parse_config(MINIMAL + f"\nrun.{key} = 51\n", "m")

    # one key per converter that reads floats: _number, _scalar (plain and
    # pair), _real, _block, _times and _rim
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key,template", [
        ("delay.true", "{}"),
        ("run.duration", "{}"),
        ("initial.planar_reaction", "{}"),
        ("desired.planar_reaction", "(5,{})"),
        ("desired.axial_reaction", "{}"),
        ("run.block", "{}"),
        ("run.snapshots", "0 {}"),
        ("initial.planar_anchor", "(1,{},0)"),
    ])
    def test_non_finite_numbers_rejected(self, key, template, bad):
        text = set_key(MINIMAL, key, template.format(bad))
        with pytest.raises(ConfigError,
                           match=rf"m:\d+: {re.escape(key)} expects a finite number"):
            parse_config(text, "m")

    # one case per way a value fails to convert, with the message in full
    @pytest.mark.parametrize("key,value,expects", [
        ("grid.M", "1.5", "an integer"),
        ("delay.true", "soon", "a number"),
        ("delay.mode", "auto", "one of ['adaptive', 'fixed']"),
        ("run.block", "soon", "'auto' or a number"),
        ("run.rings", "1 x", "whitespace-separated integers"),
        ("run.snapshots", "0 x", "whitespace-separated numbers or 'none'"),
        ("initial.planar_reaction", "(4,x)", "a number or an (re,im) pair"),
        ("initial.axial_reaction", "(3,1)",
         "a real number (the height channel is real-valued)"),
    ])
    def test_unconvertible_value_message(self, key, value, expects):
        text = set_key(MINIMAL, key, value)
        want = f"{key} expects {expects}, got {value!r}"
        with pytest.raises(ConfigError, match=rf"^m:\d+: {re.escape(want)}$"):
            parse_config(text, "m")

    # a triple list shows the offending token, not the whole value
    @pytest.mark.parametrize("value,expects,token", [
        ("(1,0.8) (2,1,0)", "(wavenumber,re,im) triples or 'none'", "(1,0.8)"),
        ("(2,1,0) (1,x,0)", "(wavenumber,re,im) triples", "(1,x,0)"),
        ("(1,1,0) (1,2,0)", "distinct wavenumbers", "(1,2,0)"),
    ])
    def test_bad_triple_message_shows_the_token(self, value, expects, token):
        text = set_key(MINIMAL, "initial.planar_anchor", value)
        want = f"initial.planar_anchor expects {expects}, got {token!r}"
        with pytest.raises(ConfigError, match=rf"^m:\d+: {re.escape(want)}$"):
            parse_config(text, "m")

    def test_missing_required_key_message(self):
        text = edit(MINIMAL, "run.duration = 0.4", "")
        with pytest.raises(ConfigError,
                           match=r"^m: missing required key 'run\.duration'$"):
            parse_config(text, "m")

    @pytest.mark.parametrize("field", ["duration", "block"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_direct_construction_rejects_non_finite(self, field, bad):
        cfg = parse_config(MINIMAL, "m")
        with pytest.raises(ConfigError, match=f"run.{field}"):
            dataclasses.replace(cfg, **{field: bad})

    def test_direct_construction_validates_too(self):
        cfg = parse_config(MINIMAL, "m")
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, true_delay=5.0)


class TestPresets:
    def test_names(self):
        assert set(PRESETS) == {"paper", "moderate", "mismatch"}
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("wild")

    def test_paper_values(self):
        cfg = preset("paper")
        assert (cfg.grid_m, cfg.grid_n) == (51, 50)
        assert cfg.true_delay == 2.0
        assert (cfg.delay_lo, cfg.delay_hi) == (0.1, 4.0)
        assert cfg.gain == 0.05
        assert cfg.initial_estimate == 4.0
        assert not cfg.fixed_estimate
        assert cfg.duration == 40.0
        assert cfg.snapshot_times == (0.0, 0.09, 0.2, 2.0, 4.0, 40.0)
        assert cfg.ring_rows == (5, 15, 30, 51)
        assert cfg.block is None

    def test_paper_formations(self):
        cfg = preset("paper")
        ini, des = cfg.initial, cfg.desired
        assert ini.planar_coeffs.reaction == 10.0
        assert ini.planar_coeffs.advection == 0.0
        assert ini.axial_coeffs.reaction == 10.0
        assert ini.planar_anchor == {1: -1 + 0j, -2: 1 + 0j}
        assert ini.planar_leader == {1: 1 + 0j, -2: -1 + 0j}
        assert ini.axial_anchor == {0: -1.9 + 0j}
        assert ini.axial_leader == {0: 1.9 + 0j}
        assert des.planar_coeffs.reaction == 30.0
        assert des.planar_coeffs.advection == 1.0
        assert des.axial_coeffs.reaction == 20.0
        assert des.axial_coeffs.advection == 1.0
        assert des.planar_anchor == {1: 1 + 0j}
        assert des.planar_leader == {1: 1 + 0j}
        assert des.axial_anchor == {}
        assert des.axial_leader == {0: 1.3 + 0j}

    def test_moderate_values(self):
        cfg = preset("moderate")
        assert cfg.desired.planar_coeffs.reaction == 12.0
        assert cfg.desired.axial_coeffs.reaction == 8.0
        assert cfg.desired.planar_coeffs.advection == 0.5
        assert cfg.true_delay == 1.0
        assert (cfg.delay_lo, cfg.delay_hi) == (0.2, 2.0)
        assert cfg.initial_estimate == 2.0
        assert cfg.duration == 20.0
        assert cfg.snapshot_times == ()
        assert cfg.initial.planar_anchor == preset("paper").initial.planar_anchor

    def test_mismatch_values(self):
        cfg = preset("mismatch")
        assert cfg.fixed_estimate
        assert cfg.initial_estimate == 4.0
        assert cfg.true_delay == 2.0
        assert cfg.duration == 10.0
        assert cfg.desired.planar_coeffs.reaction == 30.0


class TestLoadConfig:
    def test_round_trip_through_file(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        p.write_text(MINIMAL, encoding="utf-8")
        cfg = load_config(p)
        assert cfg == parse_config(MINIMAL, "m")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_error_names_file(self, tmp_path):
        p = tmp_path / "broken.cfg"
        p.write_text(MINIMAL + "\ngrid.M = 9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="broken.cfg"):
            load_config(p)
