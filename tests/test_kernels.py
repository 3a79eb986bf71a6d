import numpy as np
import pytest
from scipy import integrate, special

from cylform import kernels
from cylform.errors import KernelTruncationError
from cylform.geometry import CylinderGrid
from cylform.kernels import (
    KernelBasis,
    KernelSet,
    PlantCoeffs,
    bessel_ratio,
)
from cylform.quadrature import exp_conv_paired, interp_quadratic
from oracles import seed_pipeline
from oracles.dense_law import (
    heat_ring_kernel,
    predictor_kernel_2d,
    rates_for_modes,
    sine_basis,
)
from oracles.transforms import edge_derivative, predictor_table
from oracles.volterra_kernels import (
    bessel_ratio_loop,
    forward_kernel,
    inverse_kernel,
    kernel_values_loop,
    row_weight_matrix_loop,
)

#: coefficient pairs of the bit-exactness checks: both channels of the
#: benchmark scenarios, a stiffer and a zero-advection real one, and a
#: complex one
EXACT_COEFFS = [PlantCoeffs(12.0, 0.5), PlantCoeffs(8.0, 0.5),
                PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j), PlantCoeffs(30.0, 1.0),
                PlantCoeffs(10.0, 0.0)]


def quad12(f, a, b, **kw):
    val, _ = integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=400, **kw)
    return val


class TestBesselRatio:
    def test_value_at_zero(self):
        assert bessel_ratio(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_positive_branch_matches_modified_bessel(self):
        x = np.linspace(0.05, 12.0, 240)
        ours = np.real(bessel_ratio(x**2))
        ref = special.iv(1, x) / x
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_negative_branch_matches_oscillatory_bessel(self):
        x = np.linspace(0.05, 12.0, 240)
        ours = np.real(bessel_ratio(-(x**2)))
        ref = special.jv(1, x) / x
        assert np.max(np.abs(ours - ref)) <= 1e-12

    def test_spot_values(self):
        assert complex(bessel_ratio(4.0)).real == pytest.approx(special.iv(1, 2.0) / 2.0, rel=1e-14)
        assert complex(bessel_ratio(-4.0)).real == pytest.approx(special.jv(1, 2.0) / 2.0, rel=1e-14)

    def test_array_shape_preserved(self):
        y = np.zeros((3, 5))
        assert bessel_ratio(y).shape == (3, 5)

    def test_real_input_is_the_real_part_of_the_complex_series(self):
        y = np.linspace(-60.0, 40.0, 15).reshape(3, 5)
        y[1, 2] = 0.0
        got = bessel_ratio(y)
        assert got.dtype == np.float64
        assert np.array_equal(got, bessel_ratio(y.astype(complex)).real)
        assert np.array_equal(got, bessel_ratio_loop(y).real)
        for x in (0.0, -7.5, 3.0):
            assert bessel_ratio(x) == bessel_ratio(complex(x)).real

    def test_complex_input_equals_the_loop(self):
        rng = np.random.default_rng(11)
        z = 30.0 * (rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6)))
        got = bessel_ratio(z)
        assert got.dtype == np.complex128
        assert np.array_equal(got, bessel_ratio_loop(z))

    def test_cancelling_series_is_an_error(self):
        # float64 still holds J1(sqrt(300))/sqrt(300) to ~1e-10; at -1000
        # the cancellation costs about 1e-4 and at -3000 the sign
        x = np.sqrt(300.0)
        assert bessel_ratio(-300.0) == pytest.approx(special.jv(1, x) / x, rel=1e-9)
        for y in (-1000.0, np.array([0.0, -3000.0])):
            with pytest.raises(KernelTruncationError, match="cancels"):
                bessel_ratio(y)


class TestRowWeights:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 241, 601, 1201])
    def test_closed_form_equals_the_row_loop(self, m):
        h = 1.0 / (m - 1)
        assert np.array_equal(KernelBasis._row_weight_matrix(m, h),
                              row_weight_matrix_loop(m, h))


class TestBasisIsExact:
    @pytest.mark.parametrize("coeffs", EXACT_COEFFS,
                             ids=["12", "8", "complex", "30", "10"])
    @pytest.mark.parametrize("shape", [(21, 16, None), (51, 50, 2)],
                             ids=["21x16", "51x50-band2"])
    def test_every_table_equals_the_complex_loop_build(self, shape, coeffs,
                                                       monkeypatch):
        grid = CylinderGrid(*shape)
        got = vars(KernelBasis(coeffs, grid))
        monkeypatch.setattr(kernels, "_kernel_values", kernel_values_loop)
        want = vars(KernelBasis(coeffs, grid))
        tables = [k for k, v in want.items() if isinstance(v, np.ndarray)]
        assert len(tables) == 11
        for name in tables:
            assert got[name].dtype == want[name].dtype, name
            assert np.array_equal(got[name], want[name]), name

    def test_cancelling_inverse_kernel_is_an_error(self):
        grid = CylinderGrid(21, 16)
        KernelBasis(PlantCoeffs(60.0, 0.0), grid)
        with pytest.raises(KernelTruncationError, match="shifted reaction 1000"):
            KernelBasis(PlantCoeffs(1000.0, 0.0), grid)


class TestVolterraKernels:
    coeffs = PlantCoeffs(reaction=12.0, advection=0.0)

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            forward_kernel(0.5, 0.7, self.coeffs)
        with pytest.raises(ValueError):
            forward_kernel(1.2, 0.1, self.coeffs)
        with pytest.raises(ValueError):
            inverse_kernel(0.5, -0.1, self.coeffs)

    def test_diagonal_and_base_values(self):
        s = np.linspace(0.0, 1.0, 11)
        lam = self.coeffs.shifted_reaction
        diag = forward_kernel(s, s, self.coeffs)
        assert np.max(np.abs(diag - (-lam / 2.0) * s)) <= 1e-13 * abs(lam)
        base = forward_kernel(s, np.zeros_like(s), self.coeffs)
        assert np.max(np.abs(base)) == 0.0

    def test_hyperbolic_pde_residual_second_order(self):
        # The closed form must satisfy k_ss - k_tt = c*k away from the edges;
        # check that a central-difference residual shrinks like h^2.
        lam = self.coeffs.shifted_reaction

        def residual(h):
            pts = [(0.62, 0.31), (0.81, 0.55), (0.93, 0.12)]
            worst = 0.0
            for s0, t0 in pts:
                k = lambda s, t: complex(forward_kernel(s, t, self.coeffs))
                d_ss = (k(s0 + h, t0) - 2 * k(s0, t0) + k(s0 - h, t0)) / h**2
                d_tt = (k(s0, t0 + h) - 2 * k(s0, t0) + k(s0, t0 - h)) / h**2
                worst = max(worst, abs(d_ss - d_tt - lam * k(s0, t0)))
            return worst

        r1, r2 = residual(4e-3), residual(2e-3)
        assert r2 <= 0.35 * r1 + 1e-9

    def test_inverse_is_forward_with_negated_growth(self):
        flipped = PlantCoeffs(reaction=-self.coeffs.reaction, advection=0.0)
        s = np.linspace(0.0, 1.0, 9)
        tau = 0.6 * s
        a = inverse_kernel(s, tau, self.coeffs)
        b = -forward_kernel(s, tau, flipped)
        assert np.max(np.abs(a - b)) <= 1e-13 * (1 + np.max(np.abs(a)))


class TestSineCoefficients:
    @pytest.mark.parametrize("lam", [-5.0, 8.0, 12.0])
    def test_forward_coefficients_match_adaptive_quadrature(self, lam):
        grid = CylinderGrid(51, 8)
        basis = KernelBasis(PlantCoeffs(lam, 0.0), grid, i_max=64)
        for i in (1, 2, 7, 31, 64):
            f = lambda x: np.real(forward_kernel(1.0, x, basis.coeffs))
            ref = quad12(f, 0.0, 1.0, weight="sin", wvar=i * np.pi)
            assert abs(basis.fwd_sine[i - 1] - ref) <= 1e-8

    @pytest.mark.parametrize("lam", [-5.0, 8.0, 12.0])
    def test_inverse_coefficients_match_adaptive_quadrature(self, lam):
        grid = CylinderGrid(51, 8)
        basis = KernelBasis(PlantCoeffs(lam, 0.0), grid, i_max=64)
        for i in (1, 2, 7, 31, 64):
            f = lambda x: np.real(inverse_kernel(1.0, x, basis.coeffs))
            ref = quad12(f, 0.0, 1.0, weight="sin", wvar=i * np.pi)
            assert abs(basis.inv_sine[i - 1] - ref) <= 1e-8

    def test_zero_growth_gives_identically_zero_tables(self):
        grid = CylinderGrid(21, 8)
        basis = KernelBasis(PlantCoeffs(0.0, 0.0), grid, i_max=16)
        assert np.all(basis.fwd_sine == 0.0)
        assert np.all(basis.inv_sine == 0.0)
        ks = KernelSet(basis, 1.0)
        assert np.max(np.abs(predictor_table(ks, 0))) == 0.0

    def test_advection_only_enters_through_shift(self):
        grid = CylinderGrid(21, 8)
        a = KernelBasis(PlantCoeffs(12.0, 2.0), grid, i_max=16)
        b = KernelBasis(PlantCoeffs(11.0, 0.0), grid, i_max=16)
        assert np.max(np.abs(a.fwd_sine - b.fwd_sine)) <= 1e-14


@pytest.fixture(scope="module")
def basis():
    return KernelBasis(PlantCoeffs(9.0, 0.0), CylinderGrid(51, 8), i_max=32)


@pytest.fixture(scope="module")
def ks():
    kb = KernelBasis(PlantCoeffs(8.0, 0.0), CylinderGrid(51, 16), i_max=64)
    return KernelSet(kb, 1.0)


class TestCompositionTable:
    coeffs = PlantCoeffs(9.0, 0.0)

    def test_running_integral_weights_on_quadratic_data(self, basis):
        # quadratic data is reproduced exactly by the node interpolation
        # model, so the only error left is the kernel quadrature itself
        grid = basis.grid
        w = 1.0 + grid.s - 0.5 * grid.s**2
        for i in (1, 5, 17):
            def outer(xi):
                inner = quad12(
                    lambda t: np.real(inverse_kernel(xi, t, self.coeffs)) * (1 + t - 0.5 * t * t),
                    0.0,
                    xi,
                ) if xi > 0 else 0.0
                return inner

            ref = quad12(lambda x: outer(x) * np.sin(i * np.pi * x), 0.0, 1.0)
            ours = np.real(basis.composition[i - 1] @ w)
            assert abs(ours - ref) <= 1e-8

    def test_edge_weights_close_the_running_integral(self, basis):
        grid = basis.grid
        w = 0.3 + 2.0 * grid.s**2
        ref = quad12(
            lambda t: np.real(inverse_kernel(1.0, t, self.coeffs)) * (0.3 + 2.0 * t * t),
            0.0,
            1.0,
        )
        assert abs(np.real(basis.edge_weights @ w) - ref) <= 1e-8

    def test_mode_weights_integrate_quadratics_exactly(self, basis):
        grid = basis.grid
        w = grid.s * (1.0 - grid.s)
        for i in (1, 4, 13):
            ref = quad12(lambda x: x * (1 - x) * np.sin(i * np.pi * x), 0.0, 1.0)
            assert abs(basis.mode_sine[i - 1] @ w - ref) <= 1e-12


class TestRefinedVolterra:
    @pytest.mark.parametrize("coeffs", [PlantCoeffs(12.0, 0.5),
                                        PlantCoeffs(8.0, 0.5),
                                        PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j)],
                             ids=["12", "8", "complex"])
    @pytest.mark.parametrize("m", [21, 51])
    def test_forward_rows_equal_full_table_product(self, coeffs, m):
        # the basis evaluates the forward kernel on the kept rows only; the
        # reference evaluates the whole refined lower triangle and then keeps
        # every refine-th row of the product
        basis = KernelBasis(coeffs, CylinderGrid(m, 8), i_max=16)
        refine = basis.refine
        m_ref = refine * (m - 1) + 1
        xi = np.linspace(0.0, 1.0, m_ref)
        rows, cols = np.tril_indices(m_ref)
        table = np.zeros((m_ref, m_ref), dtype=complex)
        table[rows, cols] = kernel_values_loop(xi[rows], xi[cols], coeffs, 1.0)
        tri = row_weight_matrix_loop(m_ref, basis.grid.h_s / refine)
        cardinals = interp_quadratic(np.eye(m), refine)
        want = ((tri * table) @ cardinals.T)[::refine]
        assert np.array_equal(basis.volterra_fwd_refined, want)


class TestKernelSet:
    def test_rate_formula(self, ks):
        lam = ks.basis.coeffs.shifted_reaction
        for n in (0, 1, 5):
            for i in (1, 3, 10):
                expect = ks.delay * (lam - n**2 - (i * np.pi) ** 2)
                assert ks.rates[n, i - 1] == pytest.approx(expect, rel=1e-14)

    def test_rates_for_modes_uses_wavenumber_magnitude(self, ks):
        modes = ks.grid.modes
        rows = rates_for_modes(ks, modes)
        n = 3
        j_pos = np.where(modes == n)[0][0]
        j_neg = np.where(modes == -n)[0][0]
        assert np.array_equal(rows[j_pos], rows[j_neg])

    def test_predictor_table_edge_values(self, ks):
        tab = predictor_table(ks, 1)
        assert np.max(np.abs(tab[:, 0])) == 0.0
        assert np.max(np.abs(tab[:, -1])) <= 1e-10 * np.max(np.abs(tab))

    def test_edge_derivative_consistent_with_table(self, ks):
        # one-sided difference of the table toward tau = 1, mid-span row
        grid = ks.grid
        h = grid.h_s
        tab = predictor_table(ks, 2)
        r = grid.M // 2
        fd = (3 * tab[r, -1] - 4 * tab[r, -2] + tab[r, -3]) / (2 * h)
        exact = edge_derivative(ks, 2)[r]
        assert abs(fd - exact) <= 5e-3 * (abs(exact) + 1.0)

    def test_wavenumber_out_of_band_rejected(self, ks):
        with pytest.raises(KeyError):
            predictor_table(ks, ks.grid.N // 2 + 1)

    def test_truncation_guard_trips_for_tiny_delay(self, ks):
        with pytest.raises(KernelTruncationError):
            KernelSet(ks.basis, 0.005)

    def test_peak_gain(self, ks):
        # widest-wavenumber leading harmonic decays here, so the tables peak
        # at the launch edge s = 0
        lam = ks.basis.coeffs.shifted_reaction.real
        expect = max(1.0, np.exp(ks.delay * (lam - np.pi**2)))
        assert ks.peak_gain == pytest.approx(expect, rel=1e-12)
        hot = KernelSet(ks.basis, 2.0)
        assert hot.peak_gain == pytest.approx(1.0, rel=1e-12)

    def test_peak_gain_grows_for_supercritical_reaction(self):
        basis = KernelBasis(PlantCoeffs(12.0, 0.0), CylinderGrid(51, 16), i_max=64)
        ks = KernelSet(basis, 1.5)
        expect = np.exp(1.5 * (12.0 - np.pi**2))
        assert ks.peak_gain == pytest.approx(expect, rel=1e-12)


class TestHistorySolveMatrix:
    def test_reproduces_forward_history_map(self):
        grid = CylinderGrid(21, 16)
        basis = KernelBasis(PlantCoeffs(8.0, 1.0), grid, i_max=48)
        ks = KernelSet(basis, 1.3)
        rng = np.random.default_rng(5)
        prof = rng.normal(size=grid.M) + 1j * rng.normal(size=grid.M)
        for n in (0, 2, 7):
            conv = exp_conv_paired(ks.rates[abs(n)], prof, grid.h_s)
            direct = prof + 2.0 * ks.delay * basis.fwd_edge @ conv
            via_mat = ks.history_map[abs(n)] @ prof
            assert np.max(np.abs(via_mat - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("shape", [(21, 16), (51, 50)])
    @pytest.mark.parametrize("coeffs", [PlantCoeffs(12.0, 0.5),
                                        PlantCoeffs(10.0 + 2.0j, 0.5 + 0.5j)],
                             ids=["real", "complex"])
    def test_closed_form_matches_convolution_of_identity(self, shape, coeffs):
        basis = KernelBasis(coeffs, CylinderGrid(*shape))
        for delay in (0.2, 1.0, 2.0):
            ks = KernelSet(basis, delay)
            for n in range(ks.grid.N // 2 + 1):
                want = seed_pipeline.history_map(ks, n)
                got = ks.history_map[n]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_cached_and_invertible(self):
        # one map per |n|, built with the set as a block of the contiguous
        # step map, and well conditioned
        grid = CylinderGrid(21, 8)
        basis = KernelBasis(PlantCoeffs(4.0, 0.0), grid, i_max=32)
        ks = KernelSet(basis, 0.8)
        assert ks.history_map.shape == (grid.N // 2 + 1, grid.M, grid.M)
        assert ks.step_map.flags.c_contiguous
        assert np.shares_memory(ks.history_map, ks.step_map)
        for a in range(grid.N // 2 + 1):
            assert np.linalg.cond(ks.history_map[a]) < 1e6


class TestStepMap:
    @pytest.mark.parametrize("coeffs, dtype", [
        (PlantCoeffs(12.0, 0.5), np.float64),
        (PlantCoeffs(10.0 + 2.0j, 0.5 + 0.5j), np.complex128)],
        ids=["real", "complex"])
    def test_layout(self, coeffs, dtype):
        # [transport | measured] -> [history | state drift]: real when the
        # rates are, and the transport does not enter the drift
        grid = CylinderGrid(21, 16, band=3)
        ks = KernelSet(KernelBasis(coeffs, grid), 1.3)
        m = grid.M
        assert ks.step_map.shape == (4, 2 * m, 2 * m)
        assert ks.step_map.dtype == dtype
        assert np.all(ks.step_map[:, :m, m:] == 0.0)
        assert np.array_equal(ks.history_map, ks.step_map[:, :m, :m].transpose(0, 2, 1))
        rows = np.abs(grid.modes)
        assert np.array_equal(ks.rim_weight, ks.history_map[rows, -1, -1])
        assert np.array_equal(ks.command_column, ks.history_map[rows, :, -1])
        for name in ("rim_weight", "command_column", "edge_flow"):
            assert getattr(ks, name).dtype == dtype, name
            assert len(getattr(ks, name)) == grid.modes.size, name


class TestBandTables:
    def test_band_set_is_the_leading_rows_of_the_whole_set(self):
        # tables are indexed by |n|, so a band keeps rows 0 .. band of them
        coeffs = PlantCoeffs(12.0, 0.5)
        full = KernelSet(KernelBasis(coeffs, CylinderGrid(21, 16)), 1.3)
        ks = KernelSet(KernelBasis(coeffs, CylinderGrid(21, 16, band=2)), 1.3)
        assert ks.history_map.shape == (3, 21, 21)
        for name in ("rates", "inv_rates", "exp_s", "history_map"):
            got, want = getattr(ks, name), getattr(full, name)[:3]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), name

    def test_apply_on_a_band_equals_the_whole_grid(self):
        coeffs = PlantCoeffs(12.0, 0.5)
        full = KernelSet(KernelBasis(coeffs, CylinderGrid(21, 16)), 1.3)
        ks = KernelSet(KernelBasis(coeffs, CylinderGrid(21, 16, band=2)), 1.3)
        rows = np.abs(full.grid.modes) <= 2
        rng = np.random.default_rng(3)
        table = rng.normal(size=(16, 21)) + 1j * rng.normal(size=(16, 21))
        want = full.apply(table, full.history_map)[rows]
        got = ks.apply(table[rows], ks.history_map)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestHeatRingKernel:
    def test_angular_normalization_exact_on_grid(self):
        grid = CylinderGrid(11, 32)
        q = heat_ring_kernel(0.3, grid.theta, 0.7, grid.N // 2)
        assert abs(np.sum(q) * grid.h_theta - 1.0) <= 1e-13

    def test_positive_once_diffused(self):
        # at very short diffusion times the truncation tail exceeds the
        # (astronomically small) true minimum, so test from times where the
        # retained band already dominates
        theta = np.linspace(-np.pi, np.pi, 257)
        for s in (0.1, 0.5, 1.0):
            q = heat_ring_kernel(s, theta, 1.0, 25)
            assert np.min(q) > 0.0

    def test_semigroup_property(self):
        grid = CylinderGrid(11, 64)
        d = 0.8
        q1 = heat_ring_kernel(0.25, grid.theta, d, grid.N // 2)
        q2 = heat_ring_kernel(0.4, grid.theta, d, grid.N // 2)
        conv = np.real(np.fft.ifft(np.fft.fft(q1) * np.fft.fft(q2))) * grid.h_theta
        # the circular convolution of samples starting at -pi lands on the
        # angle grid shifted by half a period
        direct = heat_ring_kernel(0.65, grid.theta + np.pi, d, grid.N // 2)
        assert np.max(np.abs(conv - direct)) <= 1e-12

    def test_2d_kernel_matches_mode_synthesis(self):
        grid = CylinderGrid(21, 16)
        basis = KernelBasis(PlantCoeffs(6.0, 1.0), grid, i_max=32)
        ks = KernelSet(basis, 0.9)
        s, tau = 0.55, np.array([0.2, 0.7])
        dtheta = np.array([0.0, 0.9, 2.4])
        direct = predictor_kernel_2d(ks, s, tau, dtheta)
        sin_tab = sine_basis(basis.i_max, tau)
        acc = np.zeros((tau.size, dtheta.size), dtype=complex)
        for n in range(-grid.N // 2, grid.N // 2 + 1):
            g_n = 2.0 * (np.exp(ks.rates[abs(n)] * s) * basis.fwd_sine) @ sin_tab
            acc += np.multiply.outer(g_n, np.exp(1j * n * dtheta)) / (2 * np.pi)
        assert np.max(np.abs(direct - acc)) <= 1e-12 * np.max(np.abs(acc))
