"""Scenario configuration: schema, parser, and built-in presets.

Configs are flat text files of ``section.key = value`` lines with ``#``
comments.  Five sections exist: ``grid`` (surface resolution), ``initial``
and ``desired`` (the two formations: channel coefficients plus sparse rim
Fourier data), ``delay`` (true dead time, bounds, adaptation law), and
``run`` (control block, horizon and output).  Rim profiles are lists of
``(wavenumber,re,im)`` triples; complex scalars may be written ``(re,im)``;
the keyword ``none`` denotes an empty rim list.  ``run.block`` caps the
control block, the run's one time step, in seconds; the run takes the fewest
equal blocks spanning ``run.duration`` under it.  ``auto``, the default,
caps it at ten RK4 steps (:attr:`~cylform.plant.Stencil.rk4_step`).

The presets bundled here are parsed through the same code path as user
files, so each preset doubles as a schema example.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import re
from pathlib import Path

from .errors import ConfigError
from .geometry import CylinderGrid
from .kernels import PlantCoeffs
from .steady import FormationSpec

_REQUIRED = object()

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
    block: float | None              #: cap on the control block; None = auto
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
        if self.block is not None and not (math.isfinite(self.block) and self.block > 0.0):
            raise ConfigError(
                f"run.block must be finite and positive or 'auto', got {self.block}")
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
        for k, i in enumerate(self.ring_rows):
            if not 1 <= i <= self.grid_m:
                raise ConfigError(
                    f"ring index {i} outside the axial range 1..{self.grid_m}"
                )
            if i in self.ring_rows[:k]:
                raise ConfigError(f"ring index {i} is listed twice")


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
        if section not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown section {section!r}")
        if name not in _SCHEMA[section]:
            raise ConfigError(f"{source}:{lineno}: unknown key {name!r} in "
                              f"section {section!r}")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = (value.strip(), lineno)
    return entries


class _Expects(Exception):
    """A converter's rejection: what the key expects, and the raw text to
    quote (the value, or the token of a list that fails)."""

    def __init__(self, what: str, shown: str):
        super().__init__(what)
        self.shown = shown


def _numbers(tokens, shown: str, what: str, parse=float) -> tuple:
    """``parse`` of every token.  A token it rejects is reported as not
    ``what``, and then a nan or infinite float (``float`` reads those
    without complaint) as not finite, both quoting ``shown``."""
    try:
        vals = tuple(parse(tok) for tok in tokens)
    except ValueError:
        raise _Expects(what, shown) from None
    if parse is float and not all(math.isfinite(v) for v in vals):
        raise _Expects("a finite number", shown)
    return vals


def _integer(raw: str) -> int:
    return _numbers([raw], raw, "an integer", int)[0]


def _number(raw: str, what: str = "a number") -> float:
    return _numbers([raw], raw, what)[0]


def _block(raw: str) -> float | None:
    return None if raw == "auto" else _number(raw, "'auto' or a number")


def _scalar(raw: str) -> complex | float:
    m = _PAIR.match(raw)
    re_, im = _numbers(m.groups() if m else (raw, "0"), raw,
                       "a number or an (re,im) pair")
    # keep purely real input on the float path
    return re_ if im == 0.0 else complex(re_, im)


def _real(raw: str) -> float:
    val = _scalar(raw)
    if isinstance(val, complex):
        raise _Expects("a real number (the height channel is real-valued)", raw)
    return val


def _fixed_estimate(raw: str) -> bool:
    modes = ["adaptive", "fixed"]
    if raw not in modes:
        raise _Expects(f"one of {modes}", raw)
    return raw == "fixed"


def _times(raw: str) -> tuple:
    tokens = () if raw == "none" else raw.split()
    vals = _numbers(tokens, raw, "whitespace-separated numbers or 'none'")
    return tuple(sorted(vals))


def _integers(raw: str) -> tuple:
    return _numbers(raw.split(), raw, "whitespace-separated integers", int)


def _rim(raw: str) -> dict:
    out = {}
    for tok in () if raw == "none" else raw.split():
        m = _TRIPLE.match(tok)
        if not m:
            raise _Expects("(wavenumber,re,im) triples or 'none'", tok)
        n, = _numbers(m.groups()[:1], tok, "(wavenumber,re,im) triples", int)
        re_, im = _numbers(m.groups()[1:], tok, "(wavenumber,re,im) triples")
        if n in out:
            raise _Expects("distinct wavenumbers", tok)
        out[n] = complex(re_, im)
    return out


#: snapshot instants, ascending, used up to ``run.duration`` when a config
#: does not name its own
DEFAULT_SNAPSHOTS = (0.0, 0.09, 0.2, 2.0, 4.0, 40.0)

_FORMATION = {
    "planar_reaction": (_scalar, _REQUIRED),
    "planar_advection": (_scalar, 0.0),
    "axial_reaction": (_real, _REQUIRED),
    "axial_advection": (_real, 0.0),
    "planar_anchor": (_rim, {}),
    "planar_leader": (_rim, {}),
    "axial_anchor": (_rim, {}),
    "axial_leader": (_rim, {}),
}

#: section -> key -> (converter, default), in the order keys are read; a
#: missing key takes its default, or is an error when that is _REQUIRED
_SCHEMA = {
    "grid": {"M": (_integer, _REQUIRED), "N": (_integer, _REQUIRED)},
    "initial": _FORMATION,
    "desired": _FORMATION,
    "delay": {
        "true": (_number, _REQUIRED),
        "lo": (_number, _REQUIRED),
        "hi": (_number, _REQUIRED),
        "gain": (_number, _REQUIRED),
        "initial_estimate": (_number, _REQUIRED),
        "mode": (_fixed_estimate, False),
    },
    "run": {
        "block": (_block, None),
        "duration": (_number, _REQUIRED),
        "snapshots": (_times, DEFAULT_SNAPSHOTS),
        "rings": (_integers, (5, 15, 30, 51)),
        "output_dir": (str, None),
    },
}


def _formation(keys: dict) -> FormationSpec:
    """A formation from its section's values; the rim keys are its fields."""
    rims = ("planar_anchor", "planar_leader", "axial_anchor", "axial_leader")
    return FormationSpec(
        planar_coeffs=PlantCoeffs(keys["planar_reaction"], keys["planar_advection"]),
        axial_coeffs=PlantCoeffs(keys["axial_reaction"], keys["axial_advection"]),
        **{name: keys[name] for name in rims})


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate a config given as text."""
    entries = _raw_entries(text, source)
    values = {}
    for section, keys in _SCHEMA.items():
        got = values[section] = {}
        for name, (convert, default) in keys.items():
            key = f"{section}.{name}"
            if key in entries:
                raw, lineno = entries[key]
                try:
                    got[name] = convert(raw)
                except _Expects as exc:
                    raise ConfigError(f"{source}:{lineno}: {key} expects {exc}, "
                                      f"got {exc.shown!r}") from None
            elif default is _REQUIRED:
                raise ConfigError(f"{source}: missing required key {key!r}")
            else:
                # a copy, so that no two configs share a mutable default
                got[name] = copy.copy(default)
    delay, run = values["delay"], values["run"]
    if "run.snapshots" not in entries:
        run["snapshots"] = tuple(t for t in DEFAULT_SNAPSHOTS if t <= run["duration"])
    return ScenarioConfig(
        grid_m=values["grid"]["M"],
        grid_n=values["grid"]["N"],
        initial=_formation(values["initial"]),
        desired=_formation(values["desired"]),
        true_delay=delay["true"],
        delay_lo=delay["lo"],
        delay_hi=delay["hi"],
        gain=delay["gain"],
        initial_estimate=delay["initial_estimate"],
        fixed_estimate=delay["mode"],
        block=run["block"],
        duration=run["duration"],
        snapshot_times=run["snapshots"],
        ring_rows=run["rings"],
        output_dir=run["output_dir"],
    )


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
