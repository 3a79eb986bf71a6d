import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_bvp

from cylform.config import PRESETS, preset
from cylform.errors import ConfigError, ResonantModeError
from cylform.geometry import CylinderGrid
from cylform.kernels import PlantCoeffs
from cylform.plant import Stencil
from cylform.runner import run
from cylform.steady import FormationSpec, formation_fields, steady_table
from oracles import continuum_steady
from oracles.continuum_steady import steady_mode
from oracles.field_norms import d2_s, d2_theta, d_s, l2_norm
from oracles.mode_symmetry import conjugate_symmetry_defect


class TestSteadyMode:
    def test_neutral_mode_is_linear(self):
        # reaction exactly cancelled by the wavenumber: double root at zero
        s = np.linspace(0, 1, 41)
        prof = steady_mode(2, PlantCoeffs(4.0, 0.0), 1.0, 3.0, s)
        assert np.max(np.abs(prof - (1.0 + 2.0 * s))) <= 1e-13

    def test_decaying_mode_matches_sinh_form(self):
        s = np.linspace(0, 1, 41)
        k = 3.0  # reaction - n^2 = -9
        f, g = 0.7, -0.2
        prof = steady_mode(0, PlantCoeffs(-9.0, 0.0), f, g, s)
        ref = (f * np.sinh(k * (1 - s)) + g * np.sinh(k * s)) / np.sinh(k)
        assert np.max(np.abs(prof - ref)) <= 1e-12

    def test_double_root_branch(self):
        # advection 2, reaction - n^2 = 1: repeated root at -1
        s = np.linspace(0, 1, 21)
        f, g = 1.0, 0.5
        prof = steady_mode(0, PlantCoeffs(1.0, 2.0), f, g, s)
        slope = g * np.e - f
        ref = (f + slope * s) * np.exp(-s)
        assert np.max(np.abs(prof - ref)) <= 1e-12

    def test_generic_case_against_bvp_solver(self):
        coeffs = PlantCoeffs(12.0, 0.5)
        n, f, g = 1, 0.3, -1.1

        def rhs(x, y):
            return np.vstack([y[1], -0.5 * y[1] - (12.0 - n * n) * y[0]])

        def bc(ya, yb):
            return np.array([ya[0] - f, yb[0] - g])

        x = np.linspace(0, 1, 101)
        sol = solve_bvp(rhs, bc, x, np.zeros((2, x.size)), tol=1e-10, max_nodes=200000)
        assert sol.success
        s = np.linspace(0, 1, 51)
        ours = steady_mode(n, coeffs, f, g, s)
        assert np.max(np.abs(ours - sol.sol(s)[0])) <= 1e-8

    def test_complex_coefficients_satisfy_the_ode(self):
        coeffs = PlantCoeffs(10.0 + 3.0j, 1.0 + 0.5j)
        n, f, g = 2, 1.0 + 2.0j, -0.7j

        def residual(h):
            s = np.linspace(0.2, 0.8, 7)
            y = lambda x: steady_mode(n, coeffs, f, g, x)
            d2 = (y(s + h) - 2 * y(s) + y(s - h)) / h**2
            d1 = (y(s + h) - y(s - h)) / (2 * h)
            return np.max(np.abs(d2 + coeffs.advection * d1 + (coeffs.reaction - n * n) * y(s)))

        r1, r2 = residual(2e-3), residual(1e-3)
        assert r2 <= 0.3 * r1 + 1e-10

    def test_boundary_interpolation_exact(self):
        ends = steady_mode(3, PlantCoeffs(25.0, 1.0), 0.4 + 0.1j, -2.0, np.array([0.0, 1.0]))
        assert abs(ends[0] - (0.4 + 0.1j)) <= 1e-13
        assert abs(ends[1] - (-2.0)) <= 1e-13

    def test_resonant_mode_detected(self):
        with pytest.raises(ResonantModeError) as info:
            steady_mode(0, PlantCoeffs(np.pi**2, 0.0), 1.0, 0.0, np.linspace(0, 1, 5))
        assert info.value.mode == 0
        with pytest.raises(ResonantModeError):
            steady_mode(3, PlantCoeffs(np.pi**2 + 9.0, 0.0), 1.0, 0.0, np.linspace(0, 1, 5))

    def test_near_resonant_mode_is_large_but_finite(self):
        prof = steady_mode(0, PlantCoeffs(np.pi**2 + 1e-4, 0.0), 1.0, 0.0,
                           np.linspace(0, 1, 11))
        assert np.all(np.isfinite(prof))
        assert np.max(np.abs(prof)) > 1e3


def map_row(coeff_map, grid):
    """A sparse ``wavenumber -> value`` map as a row in ``grid.modes`` order."""
    return np.array([coeff_map.get(int(n), 0.0) for n in grid.modes], dtype=complex)


class TestSteadyField:
    """``steady_table`` builds the equilibrium's mode table; its synthesis
    is the physical field."""

    grid = CylinderGrid(41, 24)

    def test_rim_rows_are_imposed_data(self):
        anchor = {1: -1.0 + 0.0j, -2: 1.0}
        leader = {1: 1.0, -2: -0.5j}
        tab = steady_table(Stencil(self.grid, PlantCoeffs(10.0, 0.0)), anchor, leader)
        assert np.array_equal(tab[:, 0], map_row(anchor, self.grid))
        assert np.array_equal(tab[:, -1], map_row(leader, self.grid))

    def test_single_mode_field_matches_profile(self):
        # the stencil's equilibrium tends to the continuum closed form at
        # second order in the grid spacing
        coeffs = PlantCoeffs(6.0, 1.0)

        def gap(g):
            fld = g.synthesize(steady_table(Stencil(g, coeffs), {2: 0.5}, {2: 1.5}))
            prof = steady_mode(2, coeffs, 0.5, 1.5, g.s)
            return np.max(np.abs(fld - np.outer(prof, np.exp(2j * g.theta))))

        coarse, fine = gap(self.grid), gap(CylinderGrid(81, 48))
        assert coarse <= 5e-2
        assert fine <= 0.3 * coarse

    def test_interior_satisfies_steady_equation(self):
        coeffs = PlantCoeffs(8.0, 0.7)

        def resid(g):
            v = g.synthesize(steady_table(Stencil(g, coeffs), {0: 1.0, 1: 0.5j},
                                          {0: -0.3, 1: 1.0}))
            r = (d2_s(g, v) + d2_theta(g, v) + coeffs.advection * d_s(g, v)
                 + coeffs.reaction * v)
            return np.max(np.abs(r[2:-2]))

        # the equilibrium of the stencil solves it to roundoff, which the
        # second differences amplify by 1/h^2
        for g in (self.grid, CylinderGrid(81, 48)):
            assert resid(g) <= 1e-13 / g.h_s**2

    def test_out_of_band_coefficient_rejected(self):
        with pytest.raises(ConfigError):
            steady_table(Stencil(self.grid, PlantCoeffs(1.0, 0.0)),
                         {self.grid.N // 2 + 1: 1.0}, {})

    def test_axial_channel_comes_out_real(self):
        spec = FormationSpec(
            planar_coeffs=PlantCoeffs(10.0, 0.0),
            axial_coeffs=PlantCoeffs(5.0, 0.0),
            planar_anchor={1: -1.0, -2: 1.0},
            planar_leader={1: 1.0, -2: -1.0},
            axial_anchor={0: -1.9},
            axial_leader={0: 1.9},
        )
        planar, axial = formation_fields(spec, self.grid)
        assert planar.shape == axial.shape == (self.grid.N, self.grid.M)
        # axial mode 0 with reaction 5: cos/sin combination, real throughout,
        # so the table is the table of a real field
        assert conjugate_symmetry_defect(axial) == 0.0
        assert np.max(np.abs(self.grid.synthesize(axial).imag)) == 0.0


class TestContinuumGap:
    """The goal is the stencil's equilibrium, not the continuum one; their
    gap on the ``moderate`` desired formation is pinned."""

    @pytest.mark.parametrize("m, n, planar, axial",
                             [(21, 16, 0.7369, 0.06114), (51, 50, 0.1068, 0.009701)],
                             ids=["21x16", "51x50"])
    def test_moderate_goal_gap(self, m, n, planar, axial):
        spec = preset("moderate").desired
        grid = CylinderGrid(m, n, band=spec.band)
        ours = formation_fields(spec, grid)
        continuum = continuum_steady.formation_fields(spec, grid)
        gaps = [l2_norm(grid, a - b) for a, b in zip(ours, continuum)]
        assert gaps == pytest.approx([planar, axial], rel=0.01)


class TestFormationTables:
    """The rim columns of both formation tables are the rim maps exactly,
    on the whole grid and on a band; synthesized, they are the rim profiles
    ``sum_n c_n exp(i n theta)``."""

    spec = FormationSpec(
        planar_coeffs=PlantCoeffs(10.0, 0.5),
        axial_coeffs=PlantCoeffs(5.0, 0.5),
        planar_anchor={1: -1.0 + 0.3j, -2: 1.0},
        planar_leader={1: 1.0, -2: -0.5j, 0: 0.25},
        axial_anchor={0: -1.9, 1: 0.2 + 0.1j, -1: 0.2 - 0.1j},
        axial_leader={0: 1.9, 2: 0.3j, -2: -0.3j},
    )

    @pytest.mark.parametrize("band", [None, 2], ids=["full", "band"])
    def test_rim_columns_are_the_maps(self, band):
        grid = CylinderGrid(21, 16, band=band)
        planar, axial = formation_fields(self.spec, grid)
        for tab, anchor, leader in (
                (planar, self.spec.planar_anchor, self.spec.planar_leader),
                (axial, self.spec.axial_anchor, self.spec.axial_leader)):
            for col, coeff_map in ((0, anchor), (-1, leader)):
                assert np.array_equal(tab[:, col], map_row(coeff_map, grid))
                want = np.zeros(grid.N, dtype=complex)
                for n, c in coeff_map.items():
                    want += c * np.exp(1j * n * grid.theta)
                got = grid.synthesize_profile(tab[:, col])
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestBand:
    spec = FormationSpec(
        planar_coeffs=PlantCoeffs(10.0, 0.5),
        axial_coeffs=PlantCoeffs(5.0, 0.5),
        planar_anchor={1: -1.0, -2: 1.0},
        planar_leader={1: 1.0, -2: -1.0},
        axial_anchor={0: -1.9},
        axial_leader={0: 1.9},
    )

    def test_band_is_the_largest_listed_wavenumber(self):
        assert self.spec.band == 2
        coeffs = PlantCoeffs(1.0, 0.0)
        assert FormationSpec(coeffs, coeffs).band == 0
        # a listed zero counts
        assert FormationSpec(coeffs, coeffs, axial_leader={3: 0.0, -3: 0.0}).band == 3

    def test_fields_on_the_band_equal_the_whole_grid(self):
        whole = CylinderGrid(21, 16)
        full = formation_fields(self.spec, whole)
        band = formation_fields(self.spec, CylinderGrid(21, 16, band=2))
        kept = np.abs(whole.modes) <= 2
        for a, b in zip(band, full):
            assert np.all(b[~kept] == 0.0)
            assert np.max(np.abs(a - b[kept])) <= 1e-14 * np.max(np.abs(b))

    def test_rim_data_outside_the_band_rejected(self):
        with pytest.raises(ValueError, match=r"\[-2\]"):
            formation_fields(self.spec, CylinderGrid(21, 16, band=1))


class TestFormationSpecValidation:
    def test_axial_symmetry_enforced(self):
        with pytest.raises(ConfigError):
            FormationSpec(
                planar_coeffs=PlantCoeffs(1.0, 0.0),
                axial_coeffs=PlantCoeffs(1.0, 0.0),
                axial_leader={1: 1.0 + 1.0j, -1: 1.0 + 1.0j},
            )

    @pytest.mark.parametrize("mate", [complex(np.nextafter(0.3, 1.0), -0.2),
                                      complex(0.3, np.nextafter(-0.2, 0.0))],
                             ids=["real-part", "imaginary-part"])
    def test_axial_pair_one_ulp_off_rejected(self, mate):
        # the run keeps the axial commands real on exact pairs alone, so a
        # pair off by roundoff is refused, not absorbed
        with pytest.raises(ConfigError, match="conjugate-symmetric"):
            FormationSpec(
                planar_coeffs=PlantCoeffs(1.0, 0.0),
                axial_coeffs=PlantCoeffs(1.0, 0.0),
                axial_anchor={1: 0.3 + 0.2j, -1: mate},
            )

    def test_axial_symmetric_pair_accepted(self):
        FormationSpec(
            planar_coeffs=PlantCoeffs(1.0, 0.0),
            axial_coeffs=PlantCoeffs(1.0, 0.0),
            axial_leader={1: 1.0 + 1.0j, -1: 1.0 - 1.0j},
        )

    def test_axial_coeffs_must_be_real(self):
        with pytest.raises(ConfigError):
            FormationSpec(
                planar_coeffs=PlantCoeffs(1.0, 0.0),
                axial_coeffs=PlantCoeffs(1.0 + 2.0j, 0.0),
            )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_goal_is_far_from_resonance_and_runs(name):
    # the near-resonance guard rejects a goal beyond 1e6 times its rim data;
    # the bundled goals reach 12.2 (``moderate`` desired, 51x50)
    cfg = preset(name)
    grid = CylinderGrid(cfg.grid_m, cfg.grid_n,
                        band=max(cfg.initial.band, cfg.desired.band))
    for spec in (cfg.initial, cfg.desired):
        for table in formation_fields(spec, grid):
            rims = np.abs(table[:, [0, -1]]).max()
            assert np.abs(table).max() <= 13.0 * rims
    rec = run(dataclasses.replace(cfg, duration=0.01, snapshot_times=()))
    assert rec.times[-1] == pytest.approx(0.01)
