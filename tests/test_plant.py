import numpy as np
import pytest

from cylform.errors import HistoryUnderrunError, InstabilityError
from cylform.geometry import CylinderGrid
from cylform.kernels import PlantCoeffs
from cylform.plant import (
    Channel,
    DelayLine,
    plant_rhs,
    stable_dt,
    stage_instants,
)
from cylform.steady import steady_field
from oracles.delay_lookup import lookup


class TestDelayLine:
    def test_linear_signal_interpolated_exactly(self):
        line = DelayLine(width=3, dt_record=0.1, horizon=2.0)
        for k in range(11):
            t = 0.1 * k
            line.record(t, np.full(3, 2.0 * t))
        got = line.lookup_many(np.array([0.37]))[0]
        assert np.allclose(got, 0.74, atol=1e-12)

    def test_zero_policy_before_history(self):
        line = DelayLine(3, 0.1, 1.0)
        assert np.all(line.lookup_many(np.array([-5.0])) == 0.0)
        line.record(0.0, np.ones(3))
        assert np.all(line.lookup_many(np.array([-0.2])) == 0.0)

    def test_forward_hold_beyond_newest(self):
        line = DelayLine(2, 0.5, 4.0)
        line.record(0.0, np.array([1.0, 2.0]))
        line.record(0.5, np.array([3.0, 4.0]))
        got = line.lookup_many(np.array([0.5, 7.0]))
        assert np.allclose(got, [[3.0, 4.0], [3.0, 4.0]])

    def test_irregular_record_rejected(self):
        line = DelayLine(1, 0.1, 1.0)
        line.record(0.0, np.zeros(1))
        with pytest.raises(ValueError):
            line.record(0.15, np.zeros(1))

    def test_eviction_detected(self):
        line = DelayLine(1, 1.0, 3.0)  # capacity 7
        for k in range(20):
            line.record(float(k), np.array([float(k)]))
        with pytest.raises(HistoryUnderrunError):
            line.lookup_many(np.array([2.0]))
        assert line.lookup_many(np.array([18.5]))[0, 0] == pytest.approx(18.5)


class TestLookupMany:
    """``lookup_many`` row by row against the scalar reference read."""

    @staticmethod
    def _line():
        rng = np.random.default_rng(6)
        line = DelayLine(5, 0.1, horizon=5.0)
        for k in range(30):
            line.record(0.3 + 0.1 * k,
                        rng.normal(size=5) + 1j * rng.normal(size=5))
        return line

    def test_rows_equal_stacked_lookup(self):
        line = self._line()
        t0, newest = 0.3, line.newest_time
        times = np.concatenate([
            np.random.default_rng(7).uniform(t0, newest, 500),
            t0 + 0.1 * np.arange(line.count),            # record instants
            [t0 - 1e-11, t0, newest, newest + 0.04, newest + 10.0],
            [t0 - 1e-7, t0 - 0.05, -4.0],                # before the first record
        ])
        want = np.stack([lookup(line, t) for t in times])
        assert np.array_equal(line.lookup_many(times), want)

    def test_empty_line(self):
        line = DelayLine(4, 0.1, 1.0)
        out = line.lookup_many(np.array([0.0, 2.0]))
        assert out.shape == (2, 4) and np.all(out == 0.0)

    def test_eviction_raises_but_prehistory_does_not(self):
        line = DelayLine(1, 1.0, 3.0)  # capacity 7
        for k in range(20):
            line.record(float(k), np.array([float(k)]))
        with pytest.raises(HistoryUnderrunError, match="evicted"):
            line.lookup_many(np.array([18.5, 2.0]))
        times = np.array([-3.0, 13.0, 18.5, 19.0, 25.0])
        want = np.stack([lookup(line, t) for t in times])
        assert np.array_equal(line.lookup_many(times), want)


class TestStencil:
    grid = CylinderGrid(21, 16)

    def test_separable_mode_is_exact_eigenvector(self):
        g = self.grid
        coeffs = PlantCoeffs(reaction=1.0, advection=0.0)
        field = np.outer(np.sin(np.pi * g.s), np.exp(1j * g.theta))
        rate = (
            1.0
            - 4.0 * np.sin(np.pi * g.h_s / 2.0) ** 2 / g.h_s**2
            - 4.0 * np.sin(g.h_theta / 2.0) ** 2 / g.h_theta**2
        )
        out = plant_rhs(field, coeffs, g)
        assert np.max(np.abs(out[1:-1] - rate * field[1:-1])) <= 1e-12
        assert np.all(out[0] == 0.0) and np.all(out[-1] == 0.0)

    def test_polynomial_profile_differentiated_exactly(self):
        g = self.grid
        coeffs = PlantCoeffs(reaction=2.0, advection=1.5)
        field = np.tile((3.0 * g.s**2 - g.s)[:, None], (1, g.N)).astype(complex)
        expect = 6.0 + 1.5 * (6.0 * g.s - 1.0) + 2.0 * (3.0 * g.s**2 - g.s)
        out = plant_rhs(field, coeffs, g)
        assert np.max(np.abs(out[1:-1] - expect[1:-1, None])) <= 1e-10

    def test_bit_identical_to_rolled_neighbours(self):
        g = self.grid
        coeffs = PlantCoeffs(reaction=12.0 + 1.0j, advection=0.5)
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(g.M, g.N)) + 1j * rng.normal(size=(g.M, g.N))
        up = np.roll(vals, -1, axis=1)
        dn = np.roll(vals, 1, axis=1)
        want = np.zeros_like(vals)
        want[1:-1] = (
            (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / g.h_s**2
            + (up[1:-1] - 2.0 * vals[1:-1] + dn[1:-1]) / g.h_theta**2
            + coeffs.advection * (vals[2:] - vals[:-2]) / (2.0 * g.h_s)
            + coeffs.reaction * vals[1:-1]
        )
        assert np.array_equal(plant_rhs(vals, coeffs, g), want)

    def test_boundary_rows_imposed(self):
        g = self.grid
        line = DelayLine(g.N, 0.25, 4.0)
        line.record(0.0, np.full(g.N, 5.0))
        anchor = np.cos(g.theta)
        base = np.sin(g.theta)
        ch = Channel(g, PlantCoeffs(1.0, 0.0), anchor, base,
                     np.zeros((g.M, g.N)))
        dt = 1e-4
        # delay 0.5: at t = 0.3 the command has not arrived, at t = 0.6 it has
        for k, leader in ((3000, base), (6000, base + 5.0)):
            ch.step(k * dt, dt, line.lookup_many(stage_instants(k, 1, dt, 0.5))[0])
            assert np.array_equal(ch.values[0], anchor)
            assert np.array_equal(ch.values[-1], leader)


def make_channel(grid, coeffs, initial):
    zeros = np.zeros(grid.N)
    return Channel(grid, coeffs, zeros, zeros, initial)


class TestTimeMarching:
    grid = CylinderGrid(21, 16)
    #: arrived rows of one step while no command has reached the rim
    idle = np.zeros((3, 16))

    def mode_and_rate(self, reaction=1.0):
        g = self.grid
        field = np.outer(np.sin(np.pi * g.s), np.exp(1j * g.theta))
        rate = (
            reaction
            - 4.0 * np.sin(np.pi * g.h_s / 2.0) ** 2 / g.h_s**2
            - 4.0 * np.sin(g.h_theta / 2.0) ** 2 / g.h_theta**2
        )
        return field, rate

    def test_homogeneous_mode_decays_at_discrete_rate(self):
        g = self.grid
        field, rate = self.mode_and_rate()
        ch = make_channel(g, PlantCoeffs(1.0, 0.0), field)
        dt, T = 1e-4, 0.5
        for k in range(int(round(T / dt))):
            ch.step(k * dt, dt, self.idle)
        expect = np.exp(rate * T) * field
        err = np.max(np.abs(ch.values - expect)) / np.max(np.abs(expect))
        assert err <= 1e-8

    def test_fourth_order_in_time(self):
        g = self.grid
        field, rate = self.mode_and_rate()

        def run(dt, T=0.3):
            ch = make_channel(g, PlantCoeffs(1.0, 0.0), field)
            n = int(round(T / dt))
            for k in range(n):
                ch.step(k * dt, dt, self.idle)
            expect = np.exp(rate * (n * dt)) * field
            return np.max(np.abs(ch.values - expect))

        dt0 = stable_dt(g, PlantCoeffs(1.0, 0.0)) * 0.8
        e1, e2 = run(dt0), run(dt0 / 2.0)
        assert e1 / e2 == pytest.approx(16.0, rel=0.25)

    def test_steady_field_is_preserved_to_stencil_accuracy(self):
        coeffs = PlantCoeffs(6.0, 0.7)
        anchor = {0: 1.0, 1: 0.5j}
        leader = {0: -0.3, 1: 1.0}

        def drift(g):
            fld = steady_field(coeffs, anchor, leader, g)
            ch = Channel(g, coeffs, fld.values[0], fld.values[-1], fld.values)
            idle = np.zeros((3, g.N))
            dt = stable_dt(g, coeffs)
            n = int(round(1.0 / dt))
            for k in range(n):
                ch.step(k * dt, dt, idle)
            from cylform.geometry import Field
            return Field(g, ch.values - fld.values).l2_norm() / fld.l2_norm()

        g1 = CylinderGrid(21, 16)
        g2 = CylinderGrid(41, 32)
        d1, d2 = drift(g1), drift(g2)
        assert d1 <= 5.0 * g1.h_s**2
        assert d2 <= 0.35 * d1

    def test_guard_trips_on_unstable_plant(self):
        g = self.grid
        field, rate = self.mode_and_rate(reaction=60.0)
        assert rate > 0
        ch = make_channel(g, PlantCoeffs(60.0, 0.0), 1e6 * field)
        dt = stable_dt(g, PlantCoeffs(60.0, 0.0))
        with pytest.raises(InstabilityError):
            for k in range(40000):
                ch.step(k * dt, dt, self.idle)

    def test_guard_trips_on_oversized_step(self):
        g = self.grid
        rng = np.random.default_rng(7)
        noise = 1e-3 * rng.standard_normal((g.M, g.N))
        noise[0] = noise[-1] = 0.0
        ch = make_channel(g, PlantCoeffs(1.0, 0.0), noise.astype(complex))
        dt = stable_dt(g, PlantCoeffs(1.0, 0.0)) * 1.45
        with pytest.raises(InstabilityError):
            for k in range(5000):
                ch.step(k * dt, dt, self.idle)


def reference_step(ch, line, delay, t, dt):
    """RK4 step of ``ch`` reading the line with one scalar lookup per stage,
    as the plant once did; the block-read ``Channel.step`` must match it."""
    g, c = ch.grid, ch.coeffs

    def staged(base, tt):
        v = base.copy()
        v[0, :] = ch.anchor
        v[-1, :] = ch.leader_base + lookup(line, tt - delay)
        return v

    k1 = plant_rhs(staged(ch.values, t), c, g)
    k2 = plant_rhs(staged(ch.values + 0.5 * dt * k1, t + 0.5 * dt), c, g)
    k3 = plant_rhs(staged(ch.values + 0.5 * dt * k2, t + 0.5 * dt), c, g)
    k4 = plant_rhs(staged(ch.values + dt * k3, t + dt), c, g)
    ch.values += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ch.values[0, :] = ch.anchor
    ch.values[-1, :] = ch.leader_base + lookup(line, t + dt - delay)


class TestBlockReads:
    """One ``lookup_many`` per control block drives ``Channel.step`` exactly
    as a scalar read at every stage would."""

    grid = CylinderGrid(11, 8)
    coeffs = PlantCoeffs(3.0 + 0.5j, 0.4)
    period = 4

    # in steps: shorter than the control period (stages read past the newest
    # record, the hold), a delay whose blocks straddle record instants and
    # start before the first command arrives, and one on the record lattice
    @pytest.mark.parametrize("delay_steps", [2.5, 9.5, 8.0],
                             ids=["hold", "straddle", "on-records"])
    def test_bit_identical_to_per_stage_reads(self, delay_steps):
        g, per = self.grid, self.period
        rng = np.random.default_rng(11)
        dt = 0.9 * stable_dt(g, self.coeffs)
        delay = delay_steps * dt
        line = DelayLine(g.N, per * dt, delay + 4 * per * dt)
        start = rng.normal(size=(g.M, g.N)) + 1j * rng.normal(size=(g.M, g.N))
        anchor, base = rng.normal(size=(2, g.N))
        block = Channel(g, self.coeffs, anchor, base, start)
        ref = Channel(g, self.coeffs, anchor, base, start)
        seen = set()
        for k in range(12 * per):
            t = k * dt
            if k % per == 0:
                line.record(t, rng.normal(size=g.N) + 1j * rng.normal(size=g.N))
                instants = stage_instants(k, per, dt, delay)
                arrived = line.lookup_many(instants)
                seen.add("before" if instants.min() < 0.0 else "after")
                seen.add("hold" if instants.max() > line.newest_time else "inside")
            block.step(t, dt, arrived[k % per])
            reference_step(ref, line, delay, t, dt)
            assert np.array_equal(block.values, ref.values), k
        assert np.all(np.isfinite(block.values))
        if delay_steps < per:
            assert "hold" in seen
        else:
            assert {"before", "after"} <= seen

    def test_stage_instants_match_scalar_forms(self):
        dt, delay = 0.0123, 0.731
        got = stage_instants(5, 3, dt, delay)
        want = [[k * dt - delay, (k * dt + 0.5 * dt) - delay,
                 (k * dt + dt) - delay] for k in (5, 6, 7)]
        assert got.shape == (3, 3)
        assert np.array_equal(got, want)
