"""Grid, field, and angular-spectrum behaviour.

Closed-form targets: surface L2 of the constant 1 on the unit cylinder is
sqrt(2*pi); of sin(pi*s) it is sqrt(pi) (axial integral 1/2 times 2*pi).
"""

import numpy as np
import pytest

from cylform.geometry import CylinderGrid
from oracles.field_norms import d_s, field_l2, h1_norm, h2_norm, l2_norm, laplacian
from oracles.mode_symmetry import conjugate_symmetry_defect


@pytest.fixture
def grid():
    return CylinderGrid(M=41, N=32)


class TestGridValidation:
    @pytest.mark.parametrize("M,N", [(2, 8), (4, 8), (5, 3), (5, 7), (1, 4)])
    def test_bad_sizes_rejected(self, M, N):
        with pytest.raises(ValueError):
            CylinderGrid(M, N)

    def test_axes(self, grid):
        assert grid.s[0] == 0.0 and grid.s[-1] == 1.0
        assert np.isclose(grid.theta[0], -np.pi)
        assert np.isclose(grid.theta[1] - grid.theta[0], 2 * np.pi / grid.N)
        assert grid.modes[0] == -grid.N // 2 and grid.modes[-1] == grid.N // 2 - 1


class TestSpectralRoundTrip:
    def test_analyze_synthesize_identity(self, grid):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(grid.M, grid.N)) + 1j * rng.normal(size=(grid.M, grid.N))
        back = grid.synthesize(grid.analyze(vals))
        assert np.max(np.abs(back - vals)) < 1e-12

    def test_single_harmonic_lands_in_one_mode(self, grid):
        n = 5
        vals = np.outer(np.sin(np.pi * grid.s), np.exp(1j * n * grid.theta))
        table = grid.analyze(vals)
        assert np.allclose(table[n + grid.N // 2], np.sin(np.pi * grid.s), atol=1e-12)
        others = [k for k in grid.modes if k != n]
        worst = max(np.max(np.abs(table[k + grid.N // 2])) for k in others)
        assert worst < 1e-12

    def test_parseval(self, grid):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(grid.M, grid.N))
        table = grid.analyze(vals)
        lhs = np.sum(np.abs(vals) ** 2, axis=1) / grid.N
        rhs = np.sum(np.abs(table) ** 2, axis=0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_real_synthesis_requires_symmetry(self, grid):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(grid.M, grid.N))
        table = grid.analyze(vals)
        assert conjugate_symmetry_defect(table) < 1e-12
        back = grid.synthesize(table, kind="real")
        assert not np.iscomplexobj(back)
        assert np.max(np.abs(back - vals)) < 1e-12

    def test_defect_sees_imaginary_zero_mode(self, grid):
        # an otherwise symmetric table with a complex zero-mode row must be
        # flagged: real synthesis would silently drop the imaginary part
        coeffs = np.zeros((grid.N, grid.M), dtype=complex)
        coeffs[grid.N // 2] = 0.3j
        assert abs(conjugate_symmetry_defect(coeffs) - 0.3) < 1e-15

    def test_defect_sees_imaginary_unpaired_mode(self, grid):
        coeffs = np.zeros((grid.N, grid.M), dtype=complex)
        coeffs[0] = 0.7j
        assert abs(conjugate_symmetry_defect(coeffs) - 0.7) < 1e-15


class TestNorms:
    def test_l2_of_constant(self, grid):
        ones = grid.analyze(np.ones((grid.M, grid.N)))
        assert abs(l2_norm(grid, ones) - np.sqrt(2 * np.pi)) < 1e-12

    def test_l2_of_axial_sine(self, grid):
        vals = np.outer(np.sin(np.pi * grid.s), np.ones(grid.N))
        # Simpson on sin^2(pi s) at M=41 is accurate far below 1e-8.
        assert abs(l2_norm(grid, grid.analyze(vals)) - np.sqrt(np.pi)) < 1e-8

    def test_h1_of_angular_harmonic(self, grid):
        # f = cos(3 theta): |f|^2 = pi, |f_theta|^2 = 9 pi, f_s = 0.
        vals = np.outer(np.ones(grid.M), np.cos(3 * grid.theta))
        want = np.sqrt(np.pi + 9 * np.pi * np.sinc(3 * 2 / grid.N) ** 2)
        # central differences damp the derivative by sin(n h)/(n h)
        assert abs(h1_norm(grid, vals) - want) < 1e-10

    def test_h2_exceeds_h1_exceeds_l2(self, grid):
        rng = np.random.default_rng(4)
        stack = np.zeros((grid.N, grid.M), dtype=complex)
        # band-limited random field: only |n| <= 4 populated
        for n in range(-4, 5):
            stack[n + grid.N // 2] = rng.normal(size=grid.M) + 1j * rng.normal(size=grid.M)
        f = grid.synthesize(stack)
        assert h2_norm(grid, f) > h1_norm(grid, f) > l2_norm(grid, stack) > 0

    @pytest.mark.parametrize("band", [None, 3], ids=["full", "band"])
    def test_l2_of_table_is_the_field_formula(self, band):
        # Parseval: the table's norm is the Simpson x rectangle-rule norm of
        # its field, for any field whose angular content lies in the band
        grid = CylinderGrid(M=41, N=32, band=band)
        rng = np.random.default_rng(5)
        for _ in range(5):
            table = (rng.normal(size=(grid.modes.size, grid.M))
                     + 1j * rng.normal(size=(grid.modes.size, grid.M)))
            f = grid.synthesize(table)
            want = field_l2(grid, f)
            assert abs(l2_norm(grid, grid.analyze(f)) - want) <= 1e-14 * want


class TestDerivatives:
    def test_laplacian_second_order(self):
        errs = []
        for M, N in [(41, 32), (81, 64)]:
            g = CylinderGrid(M, N)
            vals = np.outer(np.sin(np.pi * g.s), np.cos(2 * g.theta))
            lap = laplacian(g, vals)
            want = -(np.pi**2 + 4.0) * vals
            errs.append(np.max(np.abs(lap - want)))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_axial_derivative_endpoints(self):
        g = CylinderGrid(21, 8)
        vals = np.outer(g.s**2, np.ones(8))
        d = d_s(g, vals)
        # one-sided second-order stencils are exact for quadratics
        assert np.allclose(d[0], 0.0, atol=1e-12)
        assert np.allclose(d[-1], 2.0, atol=1e-12)

    def test_field_shape_validation(self, grid):
        with pytest.raises(ValueError):
            grid.analyze(np.zeros((grid.M, grid.N + 1)))
        with pytest.raises(ValueError):
            grid.synthesize(np.zeros((grid.N, grid.M - 1)))
        # M is odd and N even, so neither transform takes the other's array
        table = grid.analyze(np.zeros((grid.M, grid.N)))
        with pytest.raises(ValueError):
            grid.analyze(table)
        with pytest.raises(ValueError):
            grid.synthesize(table.T)


class TestProfileTransforms:
    def test_round_trip(self, grid):
        rng = np.random.default_rng(21)
        vals = rng.normal(size=grid.N) + 1j * rng.normal(size=grid.N)
        back = grid.synthesize_profile(grid.analyze_rows(vals))
        assert np.allclose(back, vals, atol=1e-13)

    def test_agrees_with_field_transform_rows(self, grid):
        rng = np.random.default_rng(22)
        vals = rng.normal(size=(grid.M, grid.N))
        table = grid.analyze(vals)
        row = grid.analyze_rows(vals[5])
        assert np.allclose(row, table[:, 5], atol=1e-13)
        back = grid.synthesize_profile(table[:, 5], kind="real")
        assert np.allclose(back, vals[5], atol=1e-13)

    def test_single_harmonic_coefficient(self, grid):
        prof = np.exp(3j * grid.theta)
        coeffs = grid.analyze_rows(prof)
        n_idx = np.flatnonzero(grid.modes == 3)[0]
        assert abs(coeffs[n_idx] - 1.0) < 1e-13
        others = np.delete(coeffs, n_idx)
        assert np.max(np.abs(others)) < 1e-13

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            grid.analyze_rows(np.zeros(grid.N + 1))
        with pytest.raises(ValueError):
            grid.synthesize_profile(np.zeros(grid.N - 2, dtype=complex))


class TestShiftGather:
    """The transforms reorder FFT bins with one precomputed gather; they must
    equal the ``fftshift``/``ifftshift`` formulas bit for bit."""

    @pytest.mark.parametrize("N", [4, 16, 50])
    def test_transforms_equal_fftshift_formulas(self, N):
        grid = CylinderGrid(M=7, N=N)
        rng = np.random.default_rng(N)
        vals = rng.normal(size=(grid.M, N)) + 1j * rng.normal(size=(grid.M, N))
        coeffs = rng.normal(size=(N, grid.M)) + 1j * rng.normal(size=(N, grid.M))
        rows = rng.normal(size=(3, grid.M, N))
        parity = np.where(grid.modes % 2 == 0, 1.0, -1.0)

        spec = np.fft.fftshift(np.fft.fft(vals, axis=1), axes=1) / N
        assert np.array_equal(grid.analyze(vals), (spec * parity).T)
        spec = (coeffs.T * parity) * N
        want = np.fft.ifft(np.fft.ifftshift(spec, axes=1), axis=1)
        assert np.array_equal(grid.synthesize(coeffs), want)
        want = np.fft.fftshift(np.fft.fft(rows, axis=-1), axes=-1) / N * parity
        assert np.array_equal(grid.analyze_rows(rows), want)
        want = np.fft.ifft(np.fft.ifftshift(coeffs[:, 0] * parity * N))
        assert np.array_equal(grid.synthesize_profile(coeffs[:, 0]), want)

    @pytest.mark.parametrize("N", [4, 16, 50])
    def test_mode_pairs_group_rows_by_magnitude(self, N):
        grid = CylinderGrid(M=3, N=N)
        absn = np.abs(grid.modes)
        want = [np.flatnonzero(absn == a)[[0, -1]] for a in range(N // 2 + 1)]
        assert np.array_equal(grid.mode_pairs, want)

    @pytest.mark.parametrize("N, band", [(4, 1), (16, 0), (16, 7), (50, 2)])
    def test_mode_pairs_on_a_band(self, N, band):
        grid = CylinderGrid(M=3, N=N, band=band)
        assert np.array_equal(grid.mode_pairs,
                              np.stack([band - np.arange(band + 1),
                                        band + np.arange(band + 1)], axis=1))

    @pytest.mark.parametrize("N", [4, 16, 50])
    def test_pairs_equal_index_formulas_on_the_whole_band(self, N):
        # the row layout ``n + N // 2`` the pairs replaced
        grid = CylinderGrid(M=5, N=N)
        half = N // 2
        a = np.arange(half + 1)
        assert np.array_equal(grid.mode_pairs,
                              np.stack([half - a, (half + a) % N], axis=1))


class TestBand:
    """A grid that keeps the wavenumbers ``|n| <= band`` transforms like the
    whole grid restricted to them."""

    @pytest.mark.parametrize("N, band", [(16, 0), (16, 2), (16, 7), (50, 2)])
    def test_band_rows_equal_whole_grid_rows(self, N, band):
        full, grid = CylinderGrid(M=7, N=N), CylinderGrid(M=7, N=N, band=band)
        rows = np.abs(full.modes) <= band
        assert np.array_equal(grid.modes, full.modes[rows])
        assert grid.modes.size == 2 * band + 1
        rng = np.random.default_rng(band)
        vals = rng.normal(size=(grid.M, N)) + 1j * rng.normal(size=(grid.M, N))
        assert np.array_equal(grid.analyze(vals), full.analyze(vals)[rows])
        assert np.array_equal(grid.analyze_rows(vals), full.analyze_rows(vals)[:, rows])
        table = rng.normal(size=(grid.modes.size, grid.M)) + 0j
        padded = np.zeros((N, grid.M), dtype=complex)
        padded[rows] = table
        assert np.array_equal(grid.synthesize(table), full.synthesize(padded))
        assert np.array_equal(grid.synthesize_profile(table[:, 0]),
                              full.synthesize_profile(padded[:, 0]))

    def test_band_limited_round_trip(self):
        grid = CylinderGrid(M=9, N=16, band=3)
        rng = np.random.default_rng(1)
        table = rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))
        assert np.max(np.abs(grid.analyze(grid.synthesize(table)) - table)) < 1e-14

    @pytest.mark.parametrize("band, rows", [(None, 16), (8, 16), (40, 16),
                                            (7, 15), (0, 1)])
    def test_band_row_count(self, band, rows):
        # a band reaching N/2 or beyond keeps the whole grid
        grid = CylinderGrid(M=3, N=16, band=band)
        assert grid.modes.size == rows
        assert (grid == CylinderGrid(3, 16)) == (rows == 16)

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            CylinderGrid(3, 16, band=-1)

    def test_shape_checks_follow_the_band(self):
        grid = CylinderGrid(M=5, N=16, band=2)
        with pytest.raises(ValueError):
            grid.synthesize(np.zeros((16, 5), dtype=complex))
        with pytest.raises(ValueError):
            grid.synthesize_profile(np.zeros(16, dtype=complex))
        assert grid.synthesize(np.zeros((5, 5))).shape == (5, 16)
