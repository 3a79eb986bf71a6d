"""Checks for the kernel-weighted quadrature toolkit.

Expected values come from scipy.integrate.quad on the same integrands, or
from closed forms where the rule is exact by construction (polynomial data).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cylform.quadrature import (
    _exp_moments,
    exp_half_weights,
    exp_lin_weights,
    exp_pair_weights,
    exp_weights,
    interp_quadratic,
    simpson_weights,
    sine_weights,
)
from oracles.running_conv import exp_conv_paired
from oracles.volterra_kernels import simpson_trap_row_weights


def complex_quad(f, a, b):
    re = quad(lambda x: f(x).real, a, b, epsabs=1e-14, limit=400)[0]
    im = quad(lambda x: f(x).imag, a, b, epsabs=1e-14, limit=400)[0]
    return re + 1j * im


class TestSimpson:
    def test_weights_sum_to_interval(self):
        w = simpson_weights(11, 0.05)
        assert np.isclose(w.sum(), 0.5, rtol=0, atol=1e-15)

    def test_exact_for_cubic(self):
        m, h = 9, 0.125
        x = np.arange(m) * h
        w = simpson_weights(m, h)
        assert np.isclose(w @ x**3, 1.0 / 4.0, rtol=0, atol=1e-14)

    def test_rejects_even_node_count(self):
        with pytest.raises(ValueError):
            simpson_weights(10, 0.1)

    def test_row_weights_border_cases(self):
        h = 0.1
        assert simpson_trap_row_weights(0, h).size == 1
        w1 = simpson_trap_row_weights(1, h)
        assert np.allclose(w1, [h / 2, h / 2])

    @pytest.mark.parametrize("j", [2, 3, 6, 9])
    def test_row_weights_against_quad(self, j):
        h = 0.05
        x = np.arange(j + 1) * h
        w = simpson_trap_row_weights(j, h)
        got = w @ np.exp(x)
        want = np.exp(j * h) - 1.0
        # Simpson panels with at most one trapezoid closure: O(h^3) worst case.
        assert abs(got - want) < 5.0 * h**3


class TestExpWeights:
    def test_zero_rate_recovers_simpson(self):
        m, h = 13, 0.07
        w = exp_weights(np.array([0.0 + 0.0j]), m, h)[0]
        assert np.allclose(w, simpson_weights(m, h), rtol=0, atol=1e-14)

    def test_pair_weights_integrate_quadratics_exactly(self):
        h = 0.25
        for z in [0.3 - 1.0j, -12.0 + 0.0j, 0.0 + 40.0j]:
            w0, w1, w2 = exp_pair_weights(np.array([z]), h)
            nodes = np.array([0.0, h, 2 * h])
            for p in range(3):
                got = (w0 * nodes[0] ** p + w1 * nodes[1] ** p + w2 * nodes[2] ** p)[0]
                want = complex_quad(lambda x, p=p: np.exp(z * x) * x**p, 0, 2 * h)
                assert abs(got - want) < 1e-13 * max(1.0, abs(want))

    def test_half_weights_reduce_to_classic_rule(self):
        g0, g1, g2 = exp_half_weights(np.array([0.0 + 0.0j]), 0.2)
        assert np.allclose(
            [g0[0], g1[0], g2[0]],
            [5 * 0.2 / 12, 2 * 0.2 / 3, -0.2 / 12],
            rtol=0,
            atol=1e-15,
        )

    def test_lin_weights_match_quad(self):
        h, z = 0.1, 2.0 - 7.0j
        a, b = exp_lin_weights(np.array([z]), h)
        got = a[0] * 1.0 + b[0] * 3.0  # linear ramp v(0)=1, v(h)=3
        want = complex_quad(lambda x: np.exp(z * (h - x)) * (1 + 2 * x / h), 0, h)
        assert abs(got - want) < 1e-14

    def test_lin_weights_broadcast_over_widths(self):
        z = np.array([0.3, -40.0, 2.0 - 7.0j, -900.0])
        h = np.array([0.01, 0.004])[:, None]
        a, b = exp_lin_weights(z, h)
        for i, hi in enumerate(h[:, 0]):
            ai, bi = exp_lin_weights(z, hi)
            assert np.array_equal(a[i], ai) and np.array_equal(b[i], bi)

    def test_stacked_moment_series_equals_plain_division(self):
        """The small-argument branch scales the three series by stacked
        reciprocals; that must be bit for bit the per-series sum of
        ``u**q / (q! (q + 1 + p))``."""
        rng = np.random.default_rng(4)
        u = rng.uniform(-0.7, 0.7, 300) + 1j * rng.uniform(-0.7, 0.7, 300)
        u[:50] = u[:50].real
        want = [np.zeros_like(u) for _ in range(3)]
        upow, fact = np.ones_like(u), 1.0
        for q in range(24):
            if q > 0:
                fact *= q
                upow = upow * u
            for p in range(3):
                want[p] += upow / (fact * (q + 1 + p))
        for got, ref in zip(_exp_moments(u), want):
            assert np.array_equal(got, ref)

    @given(
        re=st.floats(-60.0, 60.0),
        im=st.floats(-60.0, 60.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_integrate_the_quadratic_model_exactly(self, re, im):
        """For polynomial data up to degree 2 the rule has no model error."""
        z = re + 1j * im
        m, h = 9, 0.125
        x = np.arange(m) * h
        w = exp_weights(np.array([z]), m, h)[0]
        got = w @ (x**2 - 0.4 * x + 0.1)
        want = complex_quad(lambda t: np.exp(z * t) * (t**2 - 0.4 * t + 0.1), 0, 1)
        assert abs(got - want) < 1e-11 * max(1.0, abs(want), np.abs(w).sum())

    def test_sine_weights_match_quad(self):
        m, h = 21, 0.05
        f = 3.0 * np.pi
        x = np.arange(m) * h
        w = sine_weights(np.array([f]), m, h)[0]
        got = w @ x**2
        want = quad(lambda t: np.sin(f * t) * t * t, 0, 1, epsabs=1e-14)[0]
        assert abs(got - want) < 1e-14


class TestExpConv:
    @pytest.mark.parametrize("z", [0.0 + 0.0j, 3.0 - 5.0j, -40.0 + 0.0j, 80.0 + 0.0j])
    def test_exact_for_quadratic_data(self, z):
        m, h = 11, 0.1
        x = np.arange(m) * h
        out = exp_conv_paired(np.array([z]), x**2, h)[0]
        for r in range(m):
            want = complex_quad(lambda t: np.exp(z * (x[r] - t)) * t * t, 0, x[r]) if r else 0.0
            scale = max(1.0, abs(want))
            assert abs(out[r] - want) < 1e-11 * scale

    def test_fourth_order_on_smooth_data(self):
        z = 1.5 - 2.0j
        errs = []
        for m in (11, 21, 41):
            h = 1.0 / (m - 1)
            x = np.linspace(0, 1, m)
            out = exp_conv_paired(np.array([z]), np.sin(2 * x) + 0.3 * x, h)[0]
            want = complex_quad(lambda t: np.exp(z * (1 - t)) * (np.sin(2 * t) + 0.3 * t), 0, 1)
            errs.append(abs(out[-1] - want))
        assert errs[0] / errs[1] > 12.0
        assert errs[1] / errs[2] > 12.0

    def test_broadcasts_over_rates_and_stacks(self):
        # one family of rates shared by a stack of profiles
        zs = np.array([0.5 + 1j, -2.0 + 0j, 7.0 - 3j])
        vals = np.random.default_rng(7).normal(size=(4, 9))
        out = exp_conv_paired(zs, vals, 0.125)
        assert out.shape == (4, 3, 9)
        single = exp_conv_paired(zs[1:2], vals[2], 0.125)[0]
        assert np.array_equal(out[2, 1], single)

    def test_rejects_even_node_count(self):
        with pytest.raises(ValueError):
            exp_conv_paired(np.array([1.0 + 0j]), np.zeros(8), 0.1)


class TestExpConvPaired:
    def test_matches_plain_conv_rowwise(self):
        rng = np.random.default_rng(11)
        zs = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        vals = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        out = exp_conv_paired(zs, vals, 0.125)
        assert out.shape == (4, 3, 9)
        for r in range(4):
            want = exp_conv_paired(zs[r], vals[r], 0.125)
            assert np.allclose(out[r], want, atol=1e-14)

    def test_broadcast_rates_against_stack(self):
        # one shared profile convolved against every rate row
        rng = np.random.default_rng(12)
        zs = rng.normal(size=(5, 2)).astype(complex)
        vals = rng.normal(size=9)
        out = exp_conv_paired(zs, vals, 0.125)
        assert out.shape == (5, 2, 9)
        assert np.allclose(out[3], exp_conv_paired(zs[3], vals, 0.125))

    def test_rejects_even_node_count(self):
        with pytest.raises(ValueError):
            exp_conv_paired(np.ones((2, 2), dtype=complex), np.zeros((2, 8)), 0.1)


class TestInterpQuadratic:
    def test_reproduces_nodes(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=11)
        fine = interp_quadratic(v, 5)
        assert np.allclose(fine[::5], v)

    def test_exact_on_quadratics(self):
        m, refine = 9, 4
        x = np.linspace(0, 1, m)
        fine = interp_quadratic(3 * x**2 - x + 0.5, refine)
        xf = np.linspace(0, 1, (m - 1) * refine + 1)
        assert np.allclose(fine, 3 * xf**2 - xf + 0.5, atol=1e-13)
