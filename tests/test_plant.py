import numpy as np
import pytest

from cylform.errors import HistoryUnderrunError, InstabilityError
from cylform.geometry import CylinderGrid
from cylform.kernels import PlantCoeffs
from cylform.plant import (
    Channel,
    DelayLine,
    apply_boundary,
    plant_rhs,
    stable_dt,
)
from cylform.steady import steady_field


class TestDelayLine:
    def test_linear_signal_interpolated_exactly(self):
        line = DelayLine(width=3, dt_record=0.1, horizon=2.0)
        for k in range(11):
            t = 0.1 * k
            line.record(t, np.full(3, 2.0 * t))
        got = line.lookup(0.37)
        assert np.allclose(got, 0.74, atol=1e-12)

    def test_zero_policy_before_history(self):
        line = DelayLine(3, 0.1, 1.0, policy="zero")
        assert np.all(line.lookup(-5.0) == 0.0)
        line.record(0.0, np.ones(3))
        assert np.all(line.lookup(-0.2) == 0.0)

    def test_strict_policy_raises(self):
        line = DelayLine(3, 0.1, 1.0, policy="strict")
        with pytest.raises(HistoryUnderrunError):
            line.lookup(-1.0)
        line.record(0.0, np.ones(3))
        with pytest.raises(HistoryUnderrunError):
            line.lookup(-0.2)

    def test_forward_hold_beyond_newest(self):
        line = DelayLine(2, 0.5, 4.0)
        line.record(0.0, np.array([1.0, 2.0]))
        line.record(0.5, np.array([3.0, 4.0]))
        assert np.allclose(line.lookup(0.5), [3.0, 4.0])
        assert np.allclose(line.lookup(7.0), [3.0, 4.0])

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
            line.lookup(2.0)
        assert line.lookup(18.5)[0] == pytest.approx(18.5)


class TestLookupMany:
    """``lookup_many`` row by row against the scalar ``lookup``."""

    @staticmethod
    def _line(policy):
        rng = np.random.default_rng(6)
        line = DelayLine(5, 0.1, horizon=5.0, policy=policy)
        for k in range(30):
            line.record(0.3 + 0.1 * k,
                        rng.normal(size=5) + 1j * rng.normal(size=5))
        return line

    @pytest.mark.parametrize("policy", ["zero", "strict"])
    def test_rows_equal_stacked_lookup(self, policy):
        line = self._line(policy)
        t0, newest = 0.3, line.newest_time
        times = np.concatenate([
            np.random.default_rng(7).uniform(t0, newest, 500),
            t0 + 0.1 * np.arange(line.count),            # record instants
            [t0 - 1e-11, t0, newest, newest + 0.04, newest + 10.0],
        ])
        if policy == "zero":
            times = np.concatenate([times, [t0 - 1e-7, t0 - 0.05, -4.0]])
        want = np.stack([line.lookup(t) for t in times])
        assert np.array_equal(line.lookup_many(times), want)

    def test_strict_policy_raises_on_prehistory(self):
        line = self._line("strict")
        with pytest.raises(HistoryUnderrunError, match="precedes"):
            line.lookup_many(np.array([1.0, 0.3 - 1e-7]))

    @pytest.mark.parametrize("policy", ["zero", "strict"])
    def test_empty_line(self, policy):
        line = DelayLine(4, 0.1, 1.0, policy=policy)
        if policy == "strict":
            with pytest.raises(HistoryUnderrunError):
                line.lookup_many(np.array([0.0]))
        else:
            out = line.lookup_many(np.array([0.0, 2.0]))
            assert out.shape == (2, 4) and np.all(out == 0.0)

    def test_eviction_raises_but_prehistory_does_not(self):
        line = DelayLine(1, 1.0, 3.0)  # capacity 7
        for k in range(20):
            line.record(float(k), np.array([float(k)]))
        with pytest.raises(HistoryUnderrunError, match="evicted"):
            line.lookup_many(np.array([18.5, 2.0]))
        times = np.array([-3.0, 13.0, 18.5, 19.0, 25.0])
        want = np.stack([line.lookup(t) for t in times])
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
        vals = np.zeros((g.M, g.N), dtype=complex)
        anchor = np.cos(g.theta)
        base = np.sin(g.theta)
        apply_boundary(vals, t=0.3, anchor=anchor, leader_base=base, line=line,
                       true_delay=0.5)
        assert np.allclose(vals[0], anchor)
        assert np.allclose(vals[-1], base)  # command not yet arrived
        apply_boundary(vals, t=0.6, anchor=anchor, leader_base=base, line=line,
                       true_delay=0.5)
        assert np.allclose(vals[-1], base + 5.0)


def make_channel(grid, coeffs, initial, true_delay=1.0, dt_record=0.01):
    line = DelayLine(grid.N, dt_record, true_delay + 1.0)
    zeros = np.zeros(grid.N)
    return Channel(grid, coeffs, zeros, zeros, line, true_delay, initial)


class TestTimeMarching:
    grid = CylinderGrid(21, 16)

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
            ch.step(k * dt, dt)
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
                ch.step(k * dt, dt)
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
            line = DelayLine(g.N, 0.01, 2.0)
            ch = Channel(g, coeffs, fld.values[0], fld.values[-1], line, 1.0,
                         fld.values)
            dt = stable_dt(g, coeffs)
            n = int(round(1.0 / dt))
            for k in range(n):
                ch.step(k * dt, dt)
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
                ch.step(k * dt, dt)

    def test_guard_trips_on_oversized_step(self):
        g = self.grid
        rng = np.random.default_rng(7)
        noise = 1e-3 * rng.standard_normal((g.M, g.N))
        noise[0] = noise[-1] = 0.0
        ch = make_channel(g, PlantCoeffs(1.0, 0.0), noise.astype(complex))
        dt = stable_dt(g, PlantCoeffs(1.0, 0.0)) * 1.45
        with pytest.raises(InstabilityError):
            for k in range(5000):
                ch.step(k * dt, dt)
