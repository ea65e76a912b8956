"""Curve geometry: pair difference quotients, stretching, area, energy, constructors."""

import numpy as np
import pytest

from ibstring import (
    CurveState,
    GridField,
    PerturbationMode,
    effective_radius,
    elastic_energy,
    enclosed_area,
    make_circle,
    make_perturbed_circle,
    make_reparam_circle,
    sobolev_seminorm,
    well_stretched_constant,
)
from ibstring import curve
from ibstring.curve import OrientationError, _offset_rows, _pair_blocks
from ibstring.equilibrium import closest_equilibrium
from ibstring.spectral import derivative

from conftest import grid, random_smooth_curve


def pair_chords(X: CurveState):
    """(w, d, w2, tau, inv_tau) over all sample pairs, from _pair_blocks and
    _offset_rows.

    w and d are the chords of X and X', shape (N, N, 2); |w|^2, tau and 1/tau
    have shape (N, N). The blocks share one workspace, so each is copied.
    """
    w, d, w2 = [], [], []
    for _, _, wx, wy, dx, dy, b2 in _pair_blocks(X):
        w.append(np.stack([wx, wy], axis=-1))
        d.append(np.stack([dx, dy], axis=-1))
        w2.append(b2.copy())
    return (*(np.concatenate(part) for part in (w, d, w2)), *_offset_rows(X.n))


def pair_quotients(X: CurveState):
    """(L, M, N, tau) over all sample pairs, formed from the chords.

    L = w/tau and M = d/tau off the diagonal, with their diagonal limits X'
    and X''; N = (L - X'(s)) / tau off the diagonal and 0 on it. Vector
    quotients have shape (N, N, 2), tau has shape (N, N).
    """
    w, d, _, tau, inv_tau = pair_chords(X)
    idx = np.arange(X.n)
    L = w * inv_tau[..., None]
    M = d * inv_tau[..., None]
    L[idx, idx], M[idx, idx] = X.xp.values, X.xpp.values
    N = (L - X.xp.values[:, None, :]) * inv_tau[..., None]
    return L, M, N, tau


class TestDifferenceQuotients:
    def test_circle_diagonal(self):
        X = make_circle(256)
        L, M, _, tau = pair_quotients(X)
        assert np.allclose(L[0, 0], [0.0, 1.0], atol=1e-12)
        assert np.allclose(M[0, 0], [-1.0, 0.0], atol=1e-12)
        assert tau[0, 0] == 0.0

    def test_circle_quarter_turn(self):
        X = make_circle(256)
        L, _, _, tau = pair_quotients(X)
        # s = 0, s' = pi/2
        assert np.allclose(L[0, 64], [-2.0 / np.pi, 2.0 / np.pi], atol=1e-12)
        assert abs(tau[0, 64] - np.pi / 2.0) < 1e-14

    def test_diagonal_matches_derivatives_everywhere(self, rng):
        # the chords vanish exactly on the diagonal, where 1/|w|^2 and 1/tau
        # are 0, so only the limits X' and X'' stand there
        X = random_smooth_curve(rng, n=128)
        w, d, w2, _, inv_tau = pair_chords(X)
        idx = np.arange(X.n)
        assert not w[idx, idx].any() and not d[idx, idx].any() and not inv_tau[idx, idx].any()
        assert np.all(w2[idx, idx] == np.inf)
        off = ~np.eye(X.n, dtype=bool)
        assert np.array_equal(w2[off], np.einsum("ijk,ijk->ij", w, w)[off])
        L, M, _, _ = pair_quotients(X)
        assert np.array_equal(L[idx, idx], X.xp.values)
        assert np.array_equal(M[idx, idx], X.xpp.values)

    def test_maximal_function_bounds(self, rng):
        # |L| <= 2 max|X'| and |N| <= 2 max|X''| over every grid pair
        X = random_smooth_curve(rng, n=64)
        cap_l = 2.0 * np.max(np.linalg.norm(X.xp.values, axis=1))
        cap_n = 2.0 * np.max(np.linalg.norm(X.xpp.values, axis=1))
        L, _, N, _ = pair_quotients(X)
        assert np.all(np.linalg.norm(L, axis=-1) <= cap_l + 1e-12)
        assert np.all(np.linalg.norm(N, axis=-1) <= cap_n + 1e-12)


class TestWellStretched:
    def test_unit_circle_value(self):
        assert abs(well_stretched_constant(make_circle(256)) - 2.0 / np.pi) < 1e-12

    def test_radius_scaling(self):
        assert abs(well_stretched_constant(make_circle(256, radius=3.0)) - 6.0 / np.pi) < 1e-12

    def test_translation_rotation_invariance(self):
        for theta, center in ((0.3, (2.0, -1.0)), (4.1, (-0.5, 0.25))):
            lam = well_stretched_constant(make_circle(128, 1.0, theta, center))
            assert abs(lam - 2.0 / np.pi) < 1e-10

    def test_two_lobes_near_contact(self):
        # dumbbell whose lobes close to within 2*eps near the origin
        eps = 0.02
        s = grid(256)
        y = np.sin(s) * (eps + (1.0 - eps) * np.cos(s) ** 2)
        X = CurveState(GridField(np.stack([np.cos(s), y], axis=1)))
        lam = well_stretched_constant(X)
        assert lam < 0.05
        assert abs(lam - 2.0 * eps / np.pi) < 1e-6

    def test_definition_inequality_all_pairs(self, rng):
        X = random_smooth_curve(rng, n=64)
        lam = well_stretched_constant(X)
        v = X.x.values
        h = X.h
        n = X.n
        for j in range(n):
            for jp in range(j + 1, n):
                torus = min(jp - j, n - (jp - j)) * h
                assert lam * torus <= np.linalg.norm(v[jp] - v[j]) + 1e-12


class TestAreaAndEnergy:
    def test_circle_area_and_radius(self):
        X = make_circle(256, radius=2.0)
        assert abs(enclosed_area(X) - 4.0 * np.pi) < 1e-12
        assert abs(effective_radius(X) - 2.0) < 1e-13

    def test_reversed_orientation_rejected(self):
        s = grid(128)
        X = CurveState(GridField(np.stack([np.cos(-s), np.sin(-s)], axis=1)))
        with pytest.raises(OrientationError):
            enclosed_area(X)

    def test_perturbed_circle_against_dense_quadrature(self):
        # 1e6-point trapezoid of the same analytic curve as the oracle
        amp, k = 0.1, 2
        X = make_perturbed_circle(256, 1.0, [PerturbationMode(k, amp, amp)])
        m = 1_000_000
        s = 2.0 * np.pi * np.arange(m) / m
        x = np.cos(s) + amp * np.cos(k * s)
        y = np.sin(s) + amp * np.cos(k * s)
        xp = -np.sin(s) - amp * k * np.sin(k * s)
        yp = np.cos(s) - amp * k * np.sin(k * s)
        oracle = 0.5 * (2.0 * np.pi / m) * np.sum(x * yp - y * xp)
        assert abs(enclosed_area(X) - oracle) < 1e-10

    def test_area_invariance_and_scaling(self, rng):
        base = make_perturbed_circle(128, 1.0, [PerturbationMode(3, 0.1, 0.05)])
        a0 = enclosed_area(base)
        shifted = CurveState(GridField(base.x.values + np.array([3.0, -2.0])))
        assert abs(enclosed_area(shifted) - a0) < 1e-12
        th = 0.77
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rotated = CurveState(GridField(base.x.values @ rot.T))
        assert abs(enclosed_area(rotated) - a0) < 1e-12
        scaled = CurveState(GridField(2.5 * base.x.values))
        assert abs(enclosed_area(scaled) - 2.5**2 * a0) < 1e-10

    def test_unit_circle_energy(self):
        assert abs(elastic_energy(make_circle(256)) - np.pi) < 1e-12

    def test_energy_radius_scaling(self):
        for r in (0.5, 2.0, 3.0):
            assert abs(elastic_energy(make_circle(128, radius=r)) - np.pi * r**2) < 1e-10

    def test_energy_at_least_equilibrium_energy(self, rng):
        # uniformly parameterized circle minimizes energy at fixed area
        for _ in range(10):
            X = random_smooth_curve(rng, n=128)
            fit = closest_equilibrium(X)
            assert elastic_energy(X) >= np.pi * fit.radius**2 - 1e-10


class TestConstructors:
    def test_circle_sample_at_zero(self):
        X = make_circle(64, 1.0, 0.0, (0.0, 0.0))
        assert np.allclose(X.x.values[0], [1.0, 0.0], atol=1e-15)

    def test_reparam_image_is_circle(self):
        X = make_reparam_circle(256, 1.0, 0.3)
        radii = np.linalg.norm(X.x.values, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_reparam_beta_range(self):
        with pytest.raises(ValueError, match="beta"):
            make_reparam_circle(64, 1.0, 1.0)

    def test_perturbed_circle_h1_distance(self):
        # single mode k = 2, amplitude eps in x: H1 distance 2 eps sqrt(pi)
        eps = 1e-3
        X = make_perturbed_circle(128, 1.0, [PerturbationMode(2, eps, 0.0)])
        D = GridField(X.x.values - make_circle(128).x.values)
        assert abs(sobolev_seminorm(D, 1.0) - 2.0 * eps * np.sqrt(np.pi)) < 1e-15

    def test_circle_radius_validation(self):
        for make in (make_circle, make_reparam_circle):
            with pytest.raises(ValueError, match="radius must be positive, got -1.0"):
                make(64, radius=-1.0)


@pytest.fixture
def derivative_calls(monkeypatch):
    """Orders m of every derivative call the curve module makes."""
    calls = []

    def counted(f, m):
        calls.append(m)
        return derivative(f, m)

    monkeypatch.setattr(curve, "derivative", counted)
    return calls


class TestLazyDerivatives:
    def test_construction_computes_no_derivative(self, derivative_calls):
        X = CurveState(GridField(make_circle(64).x.values))
        make_perturbed_circle(64, 1.0, [PerturbationMode(2, 0.01)])  # builds two states
        assert X.n == 64
        assert derivative_calls == []

    def test_each_derivative_computed_once_and_bitwise(self, rng, derivative_calls):
        samples = random_smooth_curve(rng, n=64).x
        derivative_calls.clear()
        X = CurveState(samples)
        for _ in range(2):
            assert np.array_equal(X.xp.values, derivative(X.x, 1).values)
            assert np.array_equal(X.xpp.values, derivative(X.x, 2).values)
        assert X.xp is X.xp and X.xpp is X.xpp
        assert derivative_calls == [1, 2]

    def test_closest_equilibrium_computes_no_derivative(self, rng, derivative_calls):
        Y = random_smooth_curve(rng, n=128)  # its X' is read by the draw's lambda check
        derivative_calls.clear()
        fit = closest_equilibrium(Y)
        assert fit.radius > 0.0
        assert derivative_calls == []
