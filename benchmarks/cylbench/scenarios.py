"""Pinned benchmark workloads and their seeded scenario files.

Every workload is the ``moderate`` formation change (the only bundled
preset whose closed loop stays representable long enough to time) at a
fixed resolution and horizon.  The seed perturbs only the amplitudes of the
initial formation's rim data: seed 0 reproduces the preset values exactly,
and no seed can move a resonance or a stability bound, because those depend
on the plant coefficients, the grid and the step size, never on rim data.
The program receives nothing but the generated scenario text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: largest relative change a seed makes to one initial rim amplitude
RIM_JITTER = 0.01

#: initial rim data of the ``moderate`` preset, ``key -> ((n, re, im), ...)``
_INITIAL_RIMS = {
    "planar_anchor": ((1, -1.0, 0.0), (-2, 1.0, 0.0)),
    "planar_leader": ((1, 1.0, 0.0), (-2, -1.0, 0.0)),
    "axial_anchor": ((0, -1.9, 0.0),),
    "axial_leader": ((0, 1.9, 0.0),),
}

#: everything of the ``moderate`` preset except the initial rims and the
#: keys a workload sets itself
_FIXED = """\
initial.planar_reaction = 10
initial.planar_advection = 0
initial.axial_reaction = 10
initial.axial_advection = 0

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
"""


@dataclass(frozen=True)
class Workload:
    """One pinned scenario shape plus what the benchmark asks of a run."""

    name: str
    grid: tuple                       #: (M, N)
    duration: float
    delay_keys: str                   #: estimate start and adaptation mode
    rings: str
    snapshots: str = "none"
    residual_times: tuple = ()        #: instants passed to ``run``


WORKLOADS = {w.name: w for w in (
    # Paper resolution, adapting: the estimate sits at ``hi`` for ~0.25 s,
    # then flips between the bounds, so KernelSet is rebuilt ~48 times.
    Workload(
        name="adaptive-51x50",
        grid=(51, 50), duration=0.5,
        delay_keys="delay.initial_estimate = 2\n",
        rings="5 15 30 51"),
    # Estimate fixed at the true delay over four delays: commands reach the
    # plant and close the loop, nothing is rebuilt, and the small arrays
    # make per-call overhead and the plant the largest costs.  One target
    # residual capture and five snapshots make it also the only path through
    # adaptation_drift and the snapshot writers; the capture is taken out of
    # the loop time, so only ``job_s`` carries it.
    Workload(
        name="known-delay-21x16",
        grid=(21, 16), duration=4.0,
        delay_keys="delay.initial_estimate = 1\ndelay.mode = fixed\n",
        rings="5 11 21",
        snapshots="0 1 2 3 4",
        residual_times=(2.0,)),
)}


def rim_lines(seed: int) -> list:
    """Initial rim keys with every amplitude scaled by a seeded factor.

    Axial maps describe a real field, so one factor is drawn per ``|n|``
    and shared by both members of a conjugate pair.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for key, triples in _INITIAL_RIMS.items():
        factors = {}
        parts = []
        for n, re, im in triples:
            tag = abs(n) if key.startswith("axial") else n
            if tag not in factors:
                draw = rng.uniform(-1.0, 1.0)
                factors[tag] = 1.0 if seed == 0 else 1.0 + RIM_JITTER * draw
            f = factors[tag]
            parts.append(f"({n},{re * f!r},{im * f!r})")
        lines.append(f"initial.{key} = {' '.join(parts)}")
    return lines


def scenario_text(workload: Workload, seed: int) -> str:
    """Complete scenario file for one workload and seed."""
    m, n = workload.grid
    return "\n".join([
        f"# benchmark workload {workload.name}, seed {seed}",
        f"grid.M = {m}",
        f"grid.N = {n}",
        *rim_lines(seed),
        _FIXED + workload.delay_keys,
        f"run.duration = {workload.duration!r}",
        f"run.snapshots = {workload.snapshots}",
        f"run.rings = {workload.rings}",
        "",
    ])
