"""Scenario configuration: schema, parser, and built-in presets.

Configs are flat text files of ``section.key = value`` lines with ``#``
comments.  Five sections exist: ``grid`` (surface resolution), ``initial``
and ``desired`` (the two formations: channel coefficients plus sparse rim
Fourier data), ``delay`` (true dead time, bounds, adaptation law), and
``run`` (time stepping and output).  Rim profiles are lists of
``(wavenumber,re,im)`` triples; complex scalars may be written ``(re,im)``;
the keyword ``none`` denotes an empty rim list.

The presets bundled here are parsed through the same code path as user
files, so each preset doubles as a schema example.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import re
from pathlib import Path

from .errors import ConfigError
from .geometry import CylinderGrid
from .kernels import PlantCoeffs
from .steady import FormationSpec

_REQUIRED = object()

_FORMATION_KEYS = {
    "planar_reaction", "planar_advection", "axial_reaction", "axial_advection",
    "planar_anchor", "planar_leader", "axial_anchor", "axial_leader",
}

_SECTIONS = {
    "grid": {"M", "N"},
    "initial": _FORMATION_KEYS,
    "desired": _FORMATION_KEYS,
    "delay": {"true", "lo", "hi", "gain", "initial_estimate", "mode"},
    "run": {"dt", "control_period", "duration", "snapshots", "rings",
            "output_dir"},
}

_PAIR = re.compile(r"^\(([^,()]+),([^,()]+)\)$")
_TRIPLE = re.compile(r"^\(([^,()]+),([^,()]+),([^,()]+)\)$")


def snapshot_label(t: float) -> str:
    """Label of the snapshot files of instant ``t``: ``%g``, which keeps six
    significant digits, so distinct instants can share one."""
    return "%g" % t


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Validated description of one closed-loop experiment."""

    grid_m: int
    grid_n: int
    initial: FormationSpec
    desired: FormationSpec
    true_delay: float
    delay_lo: float
    delay_hi: float
    gain: float
    initial_estimate: float
    fixed_estimate: bool
    dt: float | None                 #: None = derive from the stability bound
    control_period: int
    duration: float
    snapshot_times: tuple
    ring_rows: tuple                 #: 1-based axial agent indices
    output_dir: str | None

    def __post_init__(self):
        try:
            CylinderGrid(self.grid_m, self.grid_n)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None
        if not self.delay_lo > 0.0:
            raise ConfigError(f"delay.lo must be positive, got {self.delay_lo}")
        if not self.delay_lo <= self.true_delay <= self.delay_hi:
            raise ConfigError(
                f"delay.true = {self.true_delay} outside declared bounds "
                f"[{self.delay_lo}, {self.delay_hi}]"
            )
        if not self.delay_lo <= self.initial_estimate <= self.delay_hi:
            raise ConfigError(
                f"delay.initial_estimate = {self.initial_estimate} outside "
                f"bounds [{self.delay_lo}, {self.delay_hi}]"
            )
        if not 0.0 < self.gain < 1.0:
            raise ConfigError(f"delay.gain must be in (0, 1), got {self.gain}")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ConfigError(
                f"run.duration must be finite and positive, got {self.duration}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(
                f"run.dt must be finite and positive or 'auto', got {self.dt}")
        if self.control_period < 1:
            raise ConfigError("run.control_period must be a positive step count")
        labels = {}
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.duration:
                raise ConfigError(
                    f"snapshot time {t} outside the run horizon [0, {self.duration}]"
                )
            label = snapshot_label(t)
            if label in labels:
                raise ConfigError(
                    f"snapshot times {labels[label]} and {t} share the file "
                    f"label 't{label}'"
                )
            labels[label] = t
        for i in self.ring_rows:
            if not 1 <= i <= self.grid_m:
                raise ConfigError(
                    f"ring index {i} outside the axial range 1..{self.grid_m}"
                )


# ---------------------------------------------------------------------------
# parsing


def _raw_entries(text: str, source: str) -> dict:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key.count(".") != 1:
            raise ConfigError(f"{source}:{lineno}: key {key!r} is not dotted "
                              f"'section.name'")
        section, name = key.split(".")
        if section not in _SECTIONS:
            raise ConfigError(f"{source}:{lineno}: unknown section {section!r}")
        if name not in _SECTIONS[section]:
            raise ConfigError(f"{source}:{lineno}: unknown key {name!r} in "
                              f"section {section!r}")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = (value.strip(), lineno)
    return entries


class _Entries:
    """Typed access to raw key strings with error context."""

    def __init__(self, entries: dict, source: str):
        self.entries = entries
        self.source = source

    def _fetch(self, key, default):
        if key in self.entries:
            return self.entries[key][0]
        if default is _REQUIRED:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return default

    def _fail(self, key, what, value):
        lineno = self.entries[key][1]
        raise ConfigError(f"{self.source}:{lineno}: {key} expects {what}, "
                          f"got {value!r}")

    def _finite(self, key, shown, *vals):
        """Reject nan and infinities, which ``float`` parses without complaint."""
        if not all(cmath.isfinite(v) for v in vals):
            self._fail(key, "a finite number", shown)

    def floatval(self, key, default=_REQUIRED):
        raw = self._fetch(key, default)
        if not isinstance(raw, str):
            return raw
        try:
            val = float(raw)
        except ValueError:
            self._fail(key, "a number", raw)
        self._finite(key, raw, val)
        return val

    def intval(self, key, default=_REQUIRED):
        raw = self._fetch(key, default)
        if not isinstance(raw, str):
            return raw
        try:
            return int(raw)
        except ValueError:
            self._fail(key, "an integer", raw)

    def complexval(self, key, default=_REQUIRED):
        raw = self._fetch(key, default)
        if not isinstance(raw, str):
            return raw
        m = _PAIR.match(raw)
        try:
            val = complex(float(m.group(1)), float(m.group(2))) if m \
                else complex(float(raw), 0.0)
        except ValueError:
            self._fail(key, "a number or an (re,im) pair", raw)
        self._finite(key, raw, val)
        # keep purely real input on the float path
        return val.real if val.imag == 0.0 else val

    def realval(self, key, default=_REQUIRED):
        val = self.complexval(key, default)
        if isinstance(val, complex):
            self._fail(key, "a real number (the height channel is "
                       "real-valued)", self.entries[key][0])
        return val

    def dt_val(self, key, default=_REQUIRED):
        raw = self._fetch(key, default)
        if not isinstance(raw, str):
            return raw
        if raw == "auto":
            return None
        try:
            val = float(raw)
        except ValueError:
            self._fail(key, "'auto' or a number", raw)
        self._finite(key, raw, val)
        return val

    def choice(self, key, options, default=_REQUIRED):
        raw = self._fetch(key, default)
        if raw not in options:
            self._fail(key, f"one of {sorted(options)}", raw)
        return raw

    def floats(self, key, default=_REQUIRED):
        raw = self._fetch(key, default)
        if not isinstance(raw, str):
            return raw
        if raw == "none":
            return ()
        try:
            vals = tuple(float(tok) for tok in raw.split())
        except ValueError:
            self._fail(key, "whitespace-separated numbers or 'none'", raw)
        self._finite(key, raw, *vals)
        return vals

    def ints(self, key, default=_REQUIRED):
        raw = self._fetch(key, default)
        if not isinstance(raw, str):
            return raw
        try:
            return tuple(int(tok) for tok in raw.split())
        except ValueError:
            self._fail(key, "whitespace-separated integers", raw)

    def strval(self, key, default=_REQUIRED):
        return self._fetch(key, default)

    def coeff_map(self, key, default=_REQUIRED):
        raw = self._fetch(key, default)
        if not isinstance(raw, str):
            return raw
        if raw == "none":
            return {}
        out = {}
        for tok in raw.split():
            m = _TRIPLE.match(tok)
            if not m:
                self._fail(key, "(wavenumber,re,im) triples or 'none'", tok)
            try:
                n = int(m.group(1))
                val = complex(float(m.group(2)), float(m.group(3)))
            except ValueError:
                self._fail(key, "(wavenumber,re,im) triples", tok)
            self._finite(key, tok, val)
            if n in out:
                self._fail(key, "distinct wavenumbers", tok)
            out[n] = val
        return out


def _formation(e: _Entries, section: str) -> FormationSpec:
    return FormationSpec(
        planar_coeffs=PlantCoeffs(
            e.complexval(f"{section}.planar_reaction"),
            e.complexval(f"{section}.planar_advection", 0.0),
        ),
        axial_coeffs=PlantCoeffs(
            e.realval(f"{section}.axial_reaction"),
            e.realval(f"{section}.axial_advection", 0.0),
        ),
        planar_anchor=e.coeff_map(f"{section}.planar_anchor", {}),
        planar_leader=e.coeff_map(f"{section}.planar_leader", {}),
        axial_anchor=e.coeff_map(f"{section}.axial_anchor", {}),
        axial_leader=e.coeff_map(f"{section}.axial_leader", {}),
    )


#: snapshot instants used when a config does not name its own
DEFAULT_SNAPSHOTS = (0.0, 0.09, 0.2, 2.0, 4.0, 40.0)


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate a config given as text."""
    e = _Entries(_raw_entries(text, source), source)
    cfg = ScenarioConfig(
        grid_m=e.intval("grid.M"),
        grid_n=e.intval("grid.N"),
        initial=_formation(e, "initial"),
        desired=_formation(e, "desired"),
        true_delay=e.floatval("delay.true"),
        delay_lo=e.floatval("delay.lo"),
        delay_hi=e.floatval("delay.hi"),
        gain=e.floatval("delay.gain"),
        initial_estimate=e.floatval("delay.initial_estimate"),
        fixed_estimate=e.choice("delay.mode", ("adaptive", "fixed"),
                                "adaptive") == "fixed",
        dt=e.dt_val("run.dt", None),
        control_period=e.intval("run.control_period", 10),
        duration=e.floatval("run.duration"),
        snapshot_times=tuple(sorted(e.floats("run.snapshots",
                                             DEFAULT_SNAPSHOTS))),
        ring_rows=e.ints("run.rings", (5, 15, 30, 51)),
        output_dir=e.strval("run.output_dir", None),
    )
    return cfg


def load_config(path) -> ScenarioConfig:
    """Read and validate a config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config(text, source=str(p))


# ---------------------------------------------------------------------------
# presets


_PAPER = """
# Full-scale formation change on a 51 x 50 agent surface: drive the swarm
# from its initial equilibrium to a new shape through rim commands that
# arrive after an unknown constant dead time.
grid.M = 51
grid.N = 50

initial.planar_reaction = 10
initial.planar_advection = 0
initial.axial_reaction = 10
initial.axial_advection = 0
initial.planar_anchor = (1,-1,0) (-2,1,0)
initial.planar_leader = (1,1,0) (-2,-1,0)
initial.axial_anchor = (0,-1.9,0)
initial.axial_leader = (0,1.9,0)

desired.planar_reaction = 30
desired.planar_advection = 1
desired.axial_reaction = 20
desired.axial_advection = 1
desired.planar_anchor = (1,1,0)
desired.planar_leader = (1,1,0)
desired.axial_anchor = none
desired.axial_leader = (0,1.3,0)

delay.true = 2
delay.lo = 0.1
delay.hi = 4
delay.gain = 0.05
delay.initial_estimate = 4

run.duration = 40
run.snapshots = 0 0.09 0.2 2 4 40
"""

_MODERATE = """
# Same formation change with milder reaction coefficients: closed-loop
# gains stay far from the double-precision ceiling, so quantitative decay
# targets are meaningful.
grid.M = 51
grid.N = 50

initial.planar_reaction = 10
initial.planar_advection = 0
initial.axial_reaction = 10
initial.axial_advection = 0
initial.planar_anchor = (1,-1,0) (-2,1,0)
initial.planar_leader = (1,1,0) (-2,-1,0)
initial.axial_anchor = (0,-1.9,0)
initial.axial_leader = (0,1.9,0)

desired.planar_reaction = 12
desired.planar_advection = 0.5
desired.axial_reaction = 8
desired.axial_advection = 0.5
desired.planar_anchor = (1,1,0)
desired.planar_leader = (1,1,0)
desired.axial_anchor = none
desired.axial_leader = (0,1.3,0)

delay.true = 1
delay.lo = 0.2
delay.hi = 2
delay.gain = 0.05
delay.initial_estimate = 2

run.duration = 20
run.snapshots = none
"""

_MISMATCH = """
# Stress scenario: the controller is pinned to a delay estimate of twice
# the true dead time while the plant carries the stiff reaction
# coefficients; the tracking error is expected to diverge.
grid.M = 51
grid.N = 50

initial.planar_reaction = 10
initial.planar_advection = 0
initial.axial_reaction = 10
initial.axial_advection = 0
initial.planar_anchor = (1,-1,0) (-2,1,0)
initial.planar_leader = (1,1,0) (-2,-1,0)
initial.axial_anchor = (0,-1.9,0)
initial.axial_leader = (0,1.9,0)

desired.planar_reaction = 30
desired.planar_advection = 1
desired.axial_reaction = 20
desired.axial_advection = 1
desired.planar_anchor = (1,1,0)
desired.planar_leader = (1,1,0)
desired.axial_anchor = none
desired.axial_leader = (0,1.3,0)

delay.true = 2
delay.lo = 0.1
delay.hi = 4
delay.gain = 0.05
delay.initial_estimate = 4
delay.mode = fixed

run.duration = 10
run.snapshots = none
"""

PRESETS = {"paper": _PAPER, "moderate": _MODERATE, "mismatch": _MISMATCH}


def preset(name: str) -> ScenarioConfig:
    """One of the bundled scenarios, parsed like a user config."""
    try:
        text = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r} (available: {', '.join(sorted(PRESETS))})"
        ) from None
    return parse_config(text, source=f"preset:{name}")
