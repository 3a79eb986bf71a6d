import numpy as np
import pytest

from cylform.errors import HistoryUnderrunError, InstabilityError, ResonantModeError
from cylform.geometry import CylinderGrid
from cylform.kernels import PlantCoeffs
from cylform.plant import Channel, DelayLine, Stencil, read_table
from cylform.steady import steady_table
from oracles import delay_read
from oracles.delay_lookup import lookup, lookup_many
from oracles.field_norms import l2_norm
from oracles.rk4_plant import RK4Channel, plant_rhs

#: a real and a complex channel's coefficients
COEFFS = (PlantCoeffs(12.0, 0.5), PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j))


def field_channel(grid, coeffs, anchor, base, initial, block, delay, kind="complex"):
    """A :class:`Channel` stack of one, from physical rim profiles and an
    initial field."""
    rims = grid.analyze_rows(np.stack([anchor, base]))[:, None]
    return Channel([Stencil(grid, coeffs)], *rims, grid.analyze(initial)[None],
                   block, delay, [kind])


class TestDelayLine:
    def test_linear_signal_interpolated_exactly(self):
        line = DelayLine(width=3, dt_record=0.1, horizon=2.0)
        for k in range(11):
            t = 0.1 * k
            line.record(t, np.full(3, 2.0 * t))
        got = lookup_many(line, np.array([0.37]))[0]
        assert np.allclose(got, 0.74, atol=1e-12)

    def test_zero_policy_before_history(self):
        line = DelayLine(3, 0.1, 1.0)
        assert np.all(lookup_many(line, np.array([-5.0])) == 0.0)
        line.record(0.0, np.ones(3))
        assert np.all(lookup_many(line, np.array([-0.2])) == 0.0)

    def test_forward_hold_beyond_newest(self):
        line = DelayLine(2, 0.5, 4.0)
        line.record(0.0, np.array([1.0, 2.0]))
        line.record(0.5, np.array([3.0, 4.0]))
        got = lookup_many(line, np.array([0.5, 7.0]))
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
            lookup_many(line, np.array([2.0]))
        assert lookup_many(line, np.array([18.5]))[0, 0] == pytest.approx(18.5)


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
        t0, newest = 0.3, 0.3 + 0.1 * 29
        times = np.concatenate([
            np.random.default_rng(7).uniform(t0, newest, 500),
            t0 + 0.1 * np.arange(30),                    # record instants
            [t0 - 1e-11, t0, newest, newest + 0.04, newest + 10.0],
            [t0 - 1e-7, t0 - 0.05, -4.0],                # before the first record
        ])
        want = np.stack([lookup(line, t) for t in times])
        assert np.array_equal(lookup_many(line, times), want)

    def test_empty_line(self):
        line = DelayLine(4, 0.1, 1.0)
        out = lookup_many(line, np.array([0.0, 2.0]))
        assert out.shape == (2, 4) and np.all(out == 0.0)

    def test_eviction_raises_but_prehistory_does_not(self):
        line = DelayLine(1, 1.0, 3.0)  # capacity 7
        for k in range(20):
            line.record(float(k), np.array([float(k)]))
        with pytest.raises(HistoryUnderrunError, match="evicted"):
            lookup_many(line, np.array([18.5, 2.0]))
        times = np.array([-3.0, 13.0, 18.5, 19.0, 25.0])
        want = np.stack([lookup(line, t) for t in times])
        assert np.array_equal(lookup_many(line, times), want)


class TestReadTable:
    """A table of offsets from a record instant, read from one instant after
    another, against the scalar reference read at the same instants."""

    @pytest.mark.parametrize("records", [3, 30, 80],
                             ids=["short", "spanned", "wrapped"])
    def test_rows_match_the_reference(self, records):
        rng = np.random.default_rng(records)
        dt, t0 = 0.1, 0.3
        line = DelayLine(4, dt, horizon=5.0)          # capacity 54
        for k in range(records):
            line.record(t0 + dt * k, rng.normal(size=4) + 1j * rng.normal(size=4))
        lattice = np.arange(-45.0, 4.0)
        offsets = np.concatenate([
            rng.uniform(-45.0, 3.0, 200),   # between records, held, before the first
            lattice,                        # on records
            lattice - 1e-11,                # close enough before a record to read it
            lattice - 1e-7,                 # not close enough: zero before the first
        ])
        table = read_table(offsets)
        scale = np.max(np.abs(line._buf))
        for base in range(records + 2):
            t = t0 + dt * base
            if line.capacity < records and base + table.low < records - line.capacity:
                with pytest.raises(HistoryUnderrunError, match="evicted"):
                    line.read(table, t)
                with pytest.raises(HistoryUnderrunError):
                    [lookup(line, t + dt * x) for x in offsets]
                continue
            want = np.stack([lookup(line, t + dt * x) for x in offsets])
            got = line.read(table, t)
            # the reference's instants carry the roundoff of t + dt * x
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, base
            assert np.array_equal(got == 0.0, want == 0.0), base

    def test_instant_off_the_records_rejected(self):
        line = DelayLine(2, 0.1, 1.0)
        for k in range(3):
            line.record(0.1 * k, np.ones(2))
        with pytest.raises(ValueError, match="not a record instant"):
            line.read(read_table(np.array([-1.5])), 0.25)


class TestReadReference:
    """:meth:`DelayLine.read` against the reference read over the records
    kept in a list, bit for bit, from every base record: before the first
    record, across it, and one and two records past the newest."""

    @pytest.mark.parametrize("records, horizon", [(0, 1.0), (12, 1.0), (80, 5.0)],
                             ids=["empty", "ring-shorter-than-the-table", "wrapped"])
    def test_rows_equal_the_reference(self, records, horizon):
        rng = np.random.default_rng(records)
        dt, t0, width = 0.1, 0.3 if records else 0.0, 4
        line = DelayLine(width, dt, horizon)          # capacity 14 or 54
        kept = []
        for k in range(records):
            kept.append(rng.normal(size=width) + 1j * rng.normal(size=width))
            line.record(t0 + dt * k, kept[-1])
        lattice = np.arange(-45.0, 4.0)
        deep = read_table(np.concatenate([
            rng.uniform(-45.0, 3.0, 100),
            lattice,                        # on records
            lattice - 1e-11,                # close enough before a record to read it
            lattice - 1e-7,                 # not close enough: zero before the first
        ]))
        ahead = read_table(np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 2.5]))
        reads = raised = 0
        for table in (deep, ahead):
            for base in range(-3, records + 2):
                t = t0 + dt * base
                try:
                    want = delay_read.read(kept, table, base, width, line.capacity)
                except HistoryUnderrunError:
                    with pytest.raises(HistoryUnderrunError, match="evicted"):
                        line.read(table, t)
                    raised += 1
                    continue
                assert np.array_equal(line.read(table, t), want), (base, table.low)
                reads += 1
        assert reads > 0 and (raised > 0) == (records > line.capacity)


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
        anchor, base = g.analyze_rows(np.stack([np.cos(g.theta), np.sin(g.theta)]))
        ch = Channel([Stencil(g, PlantCoeffs(1.0, 0.0))], anchor[None], base[None],
                     np.zeros((1, g.modes.size, g.M)), 0.25, 0.5)
        # delay 0.5: the block ending at 0.25 has no command yet, the one
        # ending at 0.75 carries the first, the constant 5 (mode 0 only);
        # the leader rim is the base plus the row extrapolated to the block
        # end, 2 * 5 - 5
        five = np.where(g.modes == 0, 5.0, 0.0)
        for t, leader in ((0.0, base), (0.25, base), (0.5, base + five)):
            line.record(t, five)
            ch.step(t, line)
            assert np.array_equal(ch.table[0, :, 0], anchor)
            assert np.array_equal(ch.table[0, :, -1], leader)

    def test_rates_are_stencil_eigenvalues(self):
        # the closed-form rates belong to the stencil itself: the stencil
        # maps each lifted DST-I x DFT mode to its rate times the mode
        g = self.grid
        for coeffs in COEFFS:
            st = Stencil(g, coeffs)
            for k, b in ((0, 0), (3, 5), (g.M - 3, g.N // 2)):
                field = eigenmode(st, k, b)
                out = plant_rhs(field, coeffs, g)
                scale = np.max(np.abs(st.rates[k, b] * field))
                assert np.max(np.abs(out - st.rates[k, b] * field)) <= 1e-12 * scale

    @pytest.mark.parametrize("coeffs", COEFFS, ids=["real", "complex"])
    def test_to_eigen_inverts_to_field(self, coeffs):
        st = Stencil(self.grid, coeffs)
        eye = np.eye(self.grid.M - 2)
        assert np.max(np.abs(st.to_eigen @ st.to_field - eye)) <= 1e-13

    @pytest.mark.parametrize("coeffs", COEFFS, ids=["real", "complex"])
    def test_held_is_the_rims_drive_of_the_stencil(self, coeffs):
        # a field that is zero inside: the stencil's interior rows see only
        # the rims, and their eigencoordinates are the held drive
        g = self.grid
        st = Stencil(g, coeffs)
        rng = np.random.default_rng(5)
        rims = rng.normal(size=(2, g.N)) + 1j * rng.normal(size=(2, g.N))
        field = np.zeros((g.M, g.N), dtype=complex)
        field[0], field[-1] = rims
        drive = st.to_eigen @ g.analyze(plant_rhs(field, coeffs, g))[:, 1:-1].T
        held = st.held(*g.analyze_rows(rims))
        assert np.max(np.abs(held - drive)) <= 1e-12 * np.max(np.abs(drive))

    @pytest.mark.parametrize("coeffs", COEFFS, ids=["real", "complex"])
    def test_rk4_step_bounds_every_rate(self, coeffs):
        # the row-sum bound covers the spectral radius: every rate times
        # the step lies within the safety share of RK4's real interval
        st = Stencil(self.grid, coeffs)
        assert np.max(np.abs(st.rates)) * st.rk4_step <= 0.9 * 2.785

    def test_equilibrium_raises_at_a_zero_rate_with_rim_data(self):
        g = CylinderGrid(21, 16)
        st = Stencil(g, PlantCoeffs(9.849327523889817, 0.0))
        zero = g.modes == 0
        assert np.abs(st.rates[:, zero]).min() == 0.0
        rim = np.where(zero, 1.0, 0.0)
        with pytest.raises(ResonantModeError) as info:
            st.equilibrium(rim, np.zeros_like(rim))
        assert info.value.mode == 0
        # the same zero rate on a wavenumber without rim data stays zero
        rim = np.where(g.modes == 1, 1.0, 0.0)
        tab = st.equilibrium(rim, rim)
        assert np.all(tab[zero] == 0.0)
        assert np.all(np.isfinite(tab))

    @pytest.mark.parametrize("offset", [1e-12, 1e-9, 1e-6])
    def test_equilibrium_raises_next_to_a_zero_rate(self, offset):
        # the rate of n = 0 is about the offset: the goal is 6e12 (1e-12)
        # to 6e6 (1e-6) times its rim data, which float64 cannot steer
        g = CylinderGrid(21, 16)
        st = Stencil(g, PlantCoeffs(9.849327523889817 + offset, 0.0))
        rim = np.where(g.modes == 0, 1.0, 0.0)
        with pytest.raises(ResonantModeError,
                           match=r"near-resonant at angular mode n=0: its largest "
                                 r"coefficient is \S+ times the largest rim") as info:
            st.equilibrium(rim, np.zeros_like(rim))
        assert info.value.mode == 0

    def test_equilibrium_far_from_a_zero_rate_is_accepted(self):
        g = CylinderGrid(21, 16)
        st = Stencil(g, PlantCoeffs(9.849327523889817 + 1e-3, 0.0))
        rim = np.where(g.modes == 0, 1.0, 0.0)
        tab = st.equilibrium(rim, np.zeros_like(rim))
        assert 1e3 < np.abs(tab).max() < 1e6


def eigenmode(st, k, b):
    """Field of eigencoordinate ``(k, b)`` of the stencil ``st`` with zero
    rims: DST index ``k``, wavenumber ``st.grid.modes[b]``."""
    g = st.grid
    z = np.zeros((g.M - 2, g.modes.size), dtype=complex)
    z[k, b] = 1.0
    table = np.zeros((g.modes.size, g.M), dtype=complex)
    table[:, 1:-1] = (st.to_field @ z).T
    return g.synthesize(table)


def make_channel(grid, coeffs, initial, block=0.05, delay=0.3):
    zeros = np.zeros(grid.N)
    return field_channel(grid, coeffs, zeros, zeros, initial, block, delay)


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

    @pytest.mark.parametrize("coeffs", [PlantCoeffs(12.0, 0.5),
                                        PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j)],
                             ids=["real", "complex"])
    def test_one_step_scales_an_eigenmode_by_its_exponential(self, coeffs):
        g, block = self.grid, 0.05
        st = Stencil(g, coeffs)
        for k, b in ((0, 1), (4, 3), (g.M - 3, g.N - 1)):
            field = eigenmode(st, k, b)
            ch = make_channel(g, coeffs, field, block)
            ch.step(0.0, DelayLine(g.N, block, 1.0))
            want = np.exp(st.rates[k, b] * block) * field
            assert np.max(np.abs(ch.values[0] - want)) <= 1e-12 * np.max(np.abs(field))

    def test_homogeneous_mode_decays_at_discrete_rate(self):
        g = self.grid
        field, rate = self.mode_and_rate()
        block, T = 0.01, 0.5
        ch = make_channel(g, PlantCoeffs(1.0, 0.0), field, block)
        line = DelayLine(g.N, block, 1.0)
        for b in range(int(round(T / block))):
            ch.step(b * block, line)
        expect = np.exp(rate * T) * field
        err = np.max(np.abs(ch.values[0] - expect)) / np.max(np.abs(expect))
        assert err <= 1e-12

    def test_steady_field_is_a_fixed_point(self):
        # the goal is the stencil's own equilibrium, so the exact step
        # holds it to roundoff on any grid
        coeffs = PlantCoeffs(6.0, 0.7)
        anchor = {0: 1.0, 1: 0.5j}
        leader = {0: -0.3, 1: 1.0}

        def drift(g):
            st = Stencil(g, coeffs)
            tab = steady_table(st, anchor, leader)
            block = 0.05
            ch = Channel([st], tab[None, :, 0], tab[None, :, -1], tab[None], block, 0.3)
            line = DelayLine(g.N, block, 1.0)
            for b in range(20):
                ch.step(b * block, line)
            return l2_norm(g, ch.table[0] - tab) / l2_norm(g, tab)

        assert drift(CylinderGrid(21, 16)) <= 1e-13
        assert drift(CylinderGrid(41, 32)) <= 1e-13

    def test_real_channel_is_the_real_part(self):
        g, block, delay = self.grid, 0.05, 0.12
        rng = np.random.default_rng(4)
        anchor, base = rng.normal(size=(2, g.N))
        start = rng.normal(size=(g.M, g.N))
        coeffs = PlantCoeffs(8.0, 0.5)
        real = field_channel(g, coeffs, anchor, base, start, block, delay, kind="real")
        full = field_channel(g, coeffs, anchor, base, start, block, delay)
        line = DelayLine(g.N, block, 1.0)
        for b in range(6):
            line.record(b * block, g.analyze_rows(rng.normal(size=g.N)))
            real.step(b * block, line)
            full.step(b * block, line)
        (real_values,), (full_values,) = real.values, full.values
        assert real_values.dtype == np.float64
        assert np.max(np.abs(full_values.imag)) <= 1e-12
        assert np.max(np.abs(real_values - full_values.real)) <= 1e-12

    def test_line_must_record_once_per_block(self):
        g = self.grid
        ch = make_channel(g, PlantCoeffs(1.0, 0.0), np.zeros((g.M, g.N)), 0.05)
        with pytest.raises(ValueError, match="block"):
            ch.step(0.0, DelayLine(g.N, 0.025, 1.0))

    def test_guard_trips_on_unstable_plant(self):
        g, block = self.grid, 0.05
        field, rate = self.mode_and_rate(reaction=60.0)
        assert rate > 0
        ch = make_channel(g, PlantCoeffs(60.0, 0.0), 1e6 * field, block)
        line = DelayLine(g.N, block, 1.0)
        with pytest.raises(InstabilityError, match=r"t=\d"):
            for b in range(100):
                ch.step(b * block, line)
        # 1e6 * e^{rate * t} passes 1e30 in the block that trips
        assert np.log(1e24) / rate <= (b + 1) * block < np.log(1e24) / rate + block


class TestStack:
    """Channels stacked on the leading axis, under one line whose row holds
    their band rows side by side, move as each would alone, bit for bit."""

    grid = CylinderGrid(21, 16, band=3)

    def _pair(self, initial, coeffs=(COEFFS[1], COEFFS[0]), block=0.05, delay=0.12):
        """The stack of two channels and each channel alone."""
        g = self.grid
        rng = np.random.default_rng(9)
        stencils = [Stencil(g, c) for c in coeffs]
        rims = rng.normal(size=(2, 2, g.modes.size)) + 1j * rng.normal(size=(2, 2, g.modes.size))
        kinds = ("complex", "real")
        stack = Channel(stencils, *rims, initial, block, delay, kinds)
        alone = [Channel([st], a[None], b[None], i[None], block, delay, [k])
                 for st, a, b, i, k in zip(stencils, *rims, initial, kinds)]
        return stack, alone

    def test_stack_equals_each_channel_alone(self):
        g, k = self.grid, self.grid.modes.size
        rng = np.random.default_rng(10)
        initial = rng.normal(size=(2, k, g.M)) + 1j * rng.normal(size=(2, k, g.M))
        stack, alone = self._pair(initial)
        line = DelayLine(2 * k, stack.block, 1.0)
        lines = [DelayLine(k, stack.block, 1.0) for _ in alone]
        for b in range(8):
            t = b * stack.block
            rows = rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
            line.record(t, rows.reshape(-1))
            for ch, single, row in zip(alone, lines, rows):
                single.record(t, row)
                ch.step(t, single)
            stack.step(t, line)
            for c, ch in enumerate(alone):
                assert np.array_equal(stack.table[c], ch.table[0]), (b, c)
        peeked = stack.peek(t, 0.3 * stack.block, line)
        for c, (ch, single) in enumerate(zip(alone, lines)):
            assert np.array_equal(stack.values[c], ch.values[0])
            assert np.array_equal(peeked[c], ch.peek(t, 0.3 * stack.block, single)[0])
        assert stack.values[1].dtype == np.float64

    def test_guard_reports_the_first_channel_over_it(self):
        # reaction 60 grows.  Both channels pass the guard in the same
        # block, the first by less, and the message is the first's, as
        # when the first channel was stepped on its own; when only the
        # second passes, the message is the second's
        g, k = self.grid, self.grid.modes.size
        unstable, stable = PlantCoeffs(60.0, 0.0), PlantCoeffs(1.0, 0.0)
        mode = np.zeros((k, g.M), dtype=complex)
        mode[k // 2, 1:-1] = np.sin(np.pi * g.s[1:-1])

        def message(chan, line_width):
            line = DelayLine(line_width, chan.block, 1.0)
            with pytest.raises(InstabilityError) as info:
                for b in range(200):
                    chan.step(b * chan.block, line)
            return str(info.value)

        for coeffs, scales, first in (((unstable, unstable), (1e6, 1.01e6), 0),
                                      ((stable, unstable), (1.0, 1e6), 1)):
            initial = np.stack([scale * mode for scale in scales])
            stack, alone = self._pair(initial, coeffs, delay=5.0)
            want = message(alone[first], k)
            assert message(stack, 2 * k) == want
            if first == 0:
                other = message(alone[1], k)
                assert other != want and other.split(" at ")[1] == want.split(" at ")[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_a_non_finite_axial_channel_alone_trips_the_guard(self, bad):
        g, k = self.grid, self.grid.modes.size
        initial = np.zeros((2, k, g.M), dtype=complex)
        initial[1, k // 2, g.M // 2] = bad
        with np.errstate(invalid="ignore"):     # inf - inf in the transforms
            stack, _ = self._pair(initial)
            with pytest.raises(InstabilityError, match=f"at t={stack.block:.6f}"):
                stack.step(0.0, DelayLine(2 * k, stack.block, 1.0))
        assert np.isfinite(stack.table[0]).all() and not np.isfinite(stack.table[1]).all()


class TestBlockReads:
    """One block equals two half-blocks: the break, the pre-history jump
    and the hold are placed where they fall, and each linear piece is read
    at a third and two thirds of its length."""

    grid = CylinderGrid(11, 8)
    coeffs = PlantCoeffs(3.0 + 0.5j, 0.4)
    period = 4

    # in steps: shorter than the control period (the block reads past the
    # newest record, the hold), a delay whose blocks straddle record
    # instants and start before the first command arrives, and one on the
    # record lattice
    @pytest.mark.parametrize("delay_steps", [2.5, 9.5, 8.0],
                             ids=["hold", "straddle", "on-records"])
    def test_one_block_equals_two_half_blocks(self, delay_steps):
        g, per = self.grid, self.period
        rng = np.random.default_rng(11)
        dt = 0.9 * Stencil(g, self.coeffs).rk4_step
        block, delay = per * dt, delay_steps * dt
        line = DelayLine(g.N, block, delay + 4 * block)
        start = rng.normal(size=(g.M, g.N)) + 1j * rng.normal(size=(g.M, g.N))
        anchor, base = rng.normal(size=(2, g.N))
        whole = field_channel(g, self.coeffs, anchor, base, start, block, delay)
        halves = field_channel(g, self.coeffs, anchor, base, start, block, delay)
        seen = set()
        for b in range(12):
            t = b * block
            line.record(t, rng.normal(size=g.N) + 1j * rng.normal(size=g.N))
            first, last = t - delay, t + block - delay
            seen.add("before" if last <= 0.0 else "jump" if first < 0.0 else "after")
            seen.add("hold" if last > t else "inside")
            whole.step(t, line)
            halves.advance(t, 0.0, 0.5 * block, line)
            halves.advance(t, 0.5 * block, block, line)
            (a,), (c,) = whole.values, halves.values
            assert np.max(np.abs(a - c)) <= 1e-12 * np.max(np.abs(a)), b
        assert np.all(np.isfinite(whole.values[0]))
        if delay_steps < per:
            assert "hold" in seen
        else:
            assert {"before", "after"} <= seen
        # off the record lattice a block holds the pre-history jump
        assert ("jump" in seen) == (delay_steps % per != 0)

    def test_peek_leaves_the_channel_and_matches_advance(self):
        g = self.grid
        rng = np.random.default_rng(12)
        block, delay = 0.04, 0.13
        line = DelayLine(g.N, block, 1.0)
        start = rng.normal(size=(g.M, g.N)) + 1j * rng.normal(size=(g.M, g.N))
        ch = field_channel(g, self.coeffs, np.zeros(g.N), np.zeros(g.N), start, block, delay)
        for b in range(5):
            line.record(b * block, rng.normal(size=g.N))
            ch.step(b * block, line)
        t = 5 * block
        line.record(t, rng.normal(size=g.N))
        before = ch.values[0].copy()
        peeked = ch.peek(t, 0.75 * block, line)
        assert np.array_equal(ch.values[0], before)
        ch.advance(t, 0.0, 0.75 * block, line)
        assert np.array_equal(peeked[0], ch.values[0])


class TestBand:
    def test_band_channel_equals_whole_grid_on_band_limited_data(self):
        # rims, commands and the initial field in |n| <= 2: the channel that
        # keeps only those bins moves like the one that keeps all 16
        full, band = CylinderGrid(21, 16), CylinderGrid(21, 16, band=2)
        rng = np.random.default_rng(4)
        kept = (np.abs(full.modes) <= 2)[:, None]

        def limited(m=1):
            table = (rng.normal(size=(16, m)) + 1j * rng.normal(size=(16, m))) * kept
            return full.synthesize(table) if m > 1 else full.synthesize_profile(table[:, 0])

        anchor, base, start = limited(), limited(), limited(21)
        coeffs, block = PlantCoeffs(12.0, 0.5), 0.01
        chans = [field_channel(g, coeffs, anchor, base, start, block, 0.025)
                 for g in (full, band)]
        lines = [DelayLine(g.modes.size, block, 1.0) for g in (full, band)]
        for b in range(8):
            cmd = limited()
            for ch, line in zip(chans, lines):
                line.record(b * block, ch.grid.analyze_rows(cmd))
                ch.step(b * block, line)
        (a,), (b,) = (ch.values for ch in chans)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
        assert chans[1].stencils[0].rates.shape == (19, 5)


class TestTable:
    """``Channel.table`` is the mode table of ``Channel.values``: the loop
    reads the table, and only snapshots and ``peek`` read the field."""

    grid = CylinderGrid(21, 16)

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_table_is_the_analysis_of_the_field(self, kind):
        g, block, delay = self.grid, 0.05, 0.12
        rng = np.random.default_rng(13)
        anchor, base = rng.normal(size=(2, g.N))
        start = rng.normal(size=(g.M, g.N))
        coeffs = PlantCoeffs(8.0, 0.5)
        if kind == "complex":
            anchor = anchor + 1j * rng.normal(size=g.N)
            start = start + 1j * rng.normal(size=(g.M, g.N))
            coeffs = PlantCoeffs(8.0 + 1.0j, 0.5 + 0.2j)
        ch = field_channel(g, coeffs, anchor, base, start, block, delay, kind=kind)
        line = DelayLine(g.modes.size, block, 1.0)

        def close(table, values):
            want = g.analyze(values)
            return np.max(np.abs(table - want)) <= 1e-13 * np.max(np.abs(want))

        assert close(ch.table[0], ch.values[0])
        for b in range(6):
            cmd = rng.normal(size=g.N)
            if kind == "complex":
                cmd = cmd + 1j * rng.normal(size=g.N)
            line.record(b * block, g.analyze_rows(cmd))
            ch.step(b * block, line)
            assert close(ch.table[0], ch.values[0]), b
        t = 6 * block
        line.record(t, g.analyze_rows(rng.normal(size=g.N)))
        before = ch.table.copy()
        ch.peek(t, 0.4 * block, line)
        assert np.array_equal(ch.table, before)
        ch.advance(t, 0.0, 0.4 * block, line)
        assert close(ch.table[0], ch.values[0])


class TestAgainstRK4:
    """The explicit RK4 march converges to the exact block step: at fourth
    order while the rims are constant, at first order once the jump of the
    command at the end of the zero pre-history falls inside a step."""

    grid = CylinderGrid(21, 16)
    period = 4
    blocks = 12

    def errors(self, coeffs, commands):
        g, per = self.grid, self.period
        rng = np.random.default_rng(1)
        anchor, base = rng.normal(size=(2, g.N)) + 1j * rng.normal(size=(2, g.N))
        start = rng.normal(size=(g.M, g.N)).astype(complex)
        dt = 0.9 * Stencil(g, coeffs).rk4_step
        block = per * dt
        # the jump sits a third into an RK4 step, then two thirds, ...:
        # the same first-order error constant at every refinement
        delay = (28.0 / 3.0) * dt
        exact = field_channel(g, coeffs, anchor, base, start, block, delay)
        line = DelayLine(g.N, block, delay + 2 * self.blocks * block)
        rows = g.analyze_rows(commands)
        for b in range(self.blocks):
            line.record(b * block, rows[b])
            exact.step(b * block, line)
        errs = []
        for r in (1, 2, 4):
            march = RK4Channel(g, coeffs, anchor, base, start, delay)
            line = DelayLine(g.N, block, delay + 2 * self.blocks * block)
            h = dt / r
            for b in range(self.blocks):
                line.record(b * block, rows[b])
                for i in range(per * r):
                    march.step(b * block + i * h, h, line)
            errs.append(np.max(np.abs(march.values - exact.values[0])))
        return errs

    @pytest.mark.parametrize("coeffs", [PlantCoeffs(12.0, 0.5),
                                        PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j)],
                             ids=["real", "complex"])
    def test_fourth_order_with_constant_rims(self, coeffs):
        e1, e2, e4 = self.errors(coeffs, np.zeros((self.blocks, self.grid.N)))
        assert 14.0 <= e1 / e2 <= 19.0
        assert 14.0 <= e2 / e4 <= 19.0

    @pytest.mark.parametrize("coeffs", [PlantCoeffs(12.0, 0.5),
                                        PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j)],
                             ids=["real", "complex"])
    def test_first_order_with_moving_rims(self, coeffs):
        rng = np.random.default_rng(2)
        g = self.grid
        commands = rng.normal(size=(self.blocks, g.N)) + 1j * rng.normal(size=(self.blocks, g.N))
        e1, e2, e4 = self.errors(coeffs, commands)
        assert e1 > e2 > e4
        assert 1.8 <= e2 / e4 <= 2.2
