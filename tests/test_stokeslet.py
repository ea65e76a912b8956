"""Boundary-integral kernels: on/off-curve flow, dissipation, forcing."""

import hashlib
import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import ibstring
from ibstring import (
    CurveState,
    GridField,
    PerturbationMode,
    dissipation_rate,
    forcing_derivative_quadrature,
    make_circle,
    make_perturbed_circle,
    make_reparam_circle,
    nonstiff_forcing,
    off_curve_velocity,
    on_curve_velocity,
    pressure_at,
    sample_flow,
)
from ibstring.cli_io import FieldGrid, read_snapshot, write_field_csv, write_snapshot
from ibstring.spectral import derivative, fractional_laplacian_half, resample_field, to_spectral
from ibstring.stokeslet import (
    OnCurvePointError,
    _forcing_derivative_rows,
    _forcing_derivative_rows_direct,
    _nearest_samples,
    _tau_factor,
    _velocity_rows,
)

from conftest import random_smooth_curve, relax_curve, run_with_blas_threads


def on_curve_velocity_zero_gauge(X: CurveState) -> GridField:
    """On-curve velocity in the zero-constant gauge, diagonal excluded.

    Integrand (1/4pi)[-|X'(s')|^2/|w|^2 + 2(w.X'(s'))^2/|w|^4] w with
    w = X(s') - X(s). Symmetric exclusion of the principal value leaves an
    O(h) quadrature error; agreement with on_curve_velocity under refinement
    realizes the vanishing of the excluded principal-value kernel integral.
    """
    v, vp = X.x.values, X.xp.values
    w = v[None, :, :] - v[:, None, :]
    r2 = np.einsum("ijk,ijk->ij", w, w)
    np.fill_diagonal(r2, 1.0)
    a2 = np.einsum("ij,ij->i", vp, vp)
    wa = np.einsum("ijk,jk->ij", w, vp)
    coeff = -a2[None, :] / r2 + 2.0 * wa**2 / r2**2
    np.fill_diagonal(coeff, 0.0)
    u = X.h * np.einsum("ij,ijk->ik", coeff, w) / (4.0 * np.pi)
    return GridField(u)


def integrand_matrix(row_blocks, n: int) -> np.ndarray:
    """(N, N, 2) integrand over all sample pairs from its 4pi-scaled row blocks."""
    out = np.empty((n, n, 2))
    for rows, fx, fy in row_blocks:
        out[rows, :, 0] = fx
        out[rows, :, 1] = fy
    return out / (4.0 * np.pi)


def velocity_integrand_matrix(X: CurveState) -> np.ndarray:
    """(N, N, 2) on-curve velocity integrand (C a^perp - D a + E w)/4pi,
    assembled from the coefficient and chord blocks of _velocity_rows."""
    a = X.xp.values
    a_perp = np.stack([-a[:, 1], a[:, 0]], axis=1)
    out = np.empty((X.n, X.n, 2))
    for rows, C, D, E, wx, wy in _velocity_rows(X):
        w = np.stack([wx, wy], axis=-1)
        out[rows] = C[..., None] * a_perp - D[..., None] * a + E[..., None] * w
    return out / (4.0 * np.pi)


def test_package_attribute_is_the_module():
    assert inspect.ismodule(ibstring.stokeslet)


class TestVelocityIntegrand:
    def test_circle_quadrature_sums_to_zero(self):
        X = make_circle(256)
        pairs = velocity_integrand_matrix(X)
        for j in (0, 41):
            total = X.h * pairs[j].sum(axis=0)
            assert np.max(np.abs(total)) < 1e-12

    def test_circle_diagonal_limit(self):
        X = make_circle(256)
        pairs = velocity_integrand_matrix(X)
        assert np.allclose(pairs[0, 0], [-1.0 / (4 * np.pi), 0.0], atol=1e-12)

    def test_near_diagonal_first_order_convergence(self):
        gaps = []
        for n in (64, 128, 256):
            X = make_perturbed_circle(n, 1.0, [PerturbationMode(3, 0.08, 0.0)])
            pairs = velocity_integrand_matrix(X)
            gaps.append(np.linalg.norm(pairs[0, 1] - pairs[0, 0]))
        ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
        assert all(1.8 < r < 2.2 for r in ratios)


class TestOnCurveVelocity:
    def test_circle_is_steady(self):
        u = on_curve_velocity(make_circle(256))
        assert np.max(np.abs(u.values)) < 1e-10

    def test_translated_rotated_circle_steady(self):
        u = on_curve_velocity(make_circle(256, 1.3, 2.1, (4.0, -7.0)))
        assert np.max(np.abs(u.values)) < 1e-10

    def test_reparam_circle_has_tangential_flow(self):
        X = make_reparam_circle(256, 1.0, 0.3)
        u = on_curve_velocity(X)
        tangent = X.xp.values / np.linalg.norm(X.xp.values, axis=1)[:, None]
        assert np.max(np.abs(np.einsum("ij,ij->i", u.values, tangent))) > 1e-3

    def test_translation_invariance(self, rng):
        X = random_smooth_curve(rng, n=128)
        shifted = CurveState(GridField(X.x.values + np.array([2.5, -0.75])))
        du = on_curve_velocity(shifted).values - on_curve_velocity(X).values
        assert np.max(np.abs(du)) < 1e-12

    def test_rotation_equivariance(self, rng):
        X = random_smooth_curve(rng, n=128)
        th = 1.234
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        u_rot = on_curve_velocity(CurveState(GridField(X.x.values @ rot.T))).values
        assert np.max(np.abs(u_rot - on_curve_velocity(X).values @ rot.T)) < 1e-12

    def test_zero_gauge_form_agrees_at_quadrature_order(self):
        # symmetric-exclusion principal value converges to the regularized
        # form at first order in h, realizing the vanishing p.v. identity
        diffs = []
        for n in (128, 256, 512):
            X = make_perturbed_circle(n, 1.0, [PerturbationMode(2, 0.05, 0.02)])
            d = np.abs(on_curve_velocity(X).values - on_curve_velocity_zero_gauge(X).values)
            diffs.append(np.max(d))
        assert diffs[1] < 2e-3
        ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
        assert all(1.8 < r < 2.2 for r in ratios)


class TestOffCurveFlow:
    def test_circle_interior_point(self):
        u = off_curve_velocity(make_circle(256), np.array([0.0, 0.0]))
        assert np.max(np.abs(u)) < 1e-12

    def test_circle_exterior_point(self):
        u = off_curve_velocity(make_circle(256), np.array([5.0, 5.0]))
        assert np.max(np.abs(u)) < 1e-12

    def test_far_field_inverse_distance_decay(self):
        X = make_perturbed_circle(256, 1.0, [PerturbationMode(2, 0.1, 0.05, 0.2, 0.9)])
        d = np.array([1.0, 0.3])
        d /= np.linalg.norm(d)
        ratio = np.linalg.norm(off_curve_velocity(X, 200 * d)) / np.linalg.norm(
            off_curve_velocity(X, 100 * d)
        )
        assert 0.4 < ratio < 0.6

    def test_sample_coincidence_rejected(self):
        X = make_circle(64)
        with pytest.raises(OnCurvePointError):
            off_curve_velocity(X, X.x.values[3].copy())

    def test_pressure_at_circle_center(self):
        X = make_circle(256)
        p = pressure_at(X, np.array([0.0, 0.0]))
        assert abs(p - 1.0) < 1e-12
        # dense-quadrature oracle of the same integrand (constant 1/(2 pi))
        m = 100_000
        s = 2 * np.pi * np.arange(m) / m
        integrand = 1.0 / (2 * np.pi) * np.ones(m)
        assert abs(p - (2 * np.pi / m) * np.sum(integrand)) < 1e-12

    def test_pressure_far_field_decay(self):
        X = make_circle(256)
        assert abs(pressure_at(X, np.array([100.0, 0.0]))) < 1e-3

    def test_pressure_rotational_symmetry(self):
        X = make_circle(256)
        a = 1.7
        pa = pressure_at(X, np.array([a, 0.0]))
        pb = pressure_at(X, np.array([0.0, a]))
        assert abs(pa - pb) < 1e-12

    def test_pressure_on_curve_rejected(self):
        X = make_circle(64)
        with pytest.raises(OnCurvePointError):
            pressure_at(X, X.x.values[0].copy())

    @pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 0.0), (0.3, -np.inf)])
    def test_non_finite_point_rejected(self, bad):
        # before any search: the message names the first such point
        X = make_circle(64)
        points = np.array([[0.2, 0.1], bad, [np.nan, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: sample_flow(X, points), lambda: off_curve_velocity(X, np.array(bad)),
                         lambda: pressure_at(X, np.array(bad))):
                with pytest.raises(ValueError, match="is not finite") as info:
                    call()
                assert not isinstance(info.value, OnCurvePointError)
        with pytest.raises(ValueError, match="point 1 is not finite"):
            sample_flow(X, points)

    @pytest.mark.parametrize("d", [1e8, 1e16, 1e17, 1e40, 1e75])
    def test_far_rows_mirror_each_other(self, d):
        # the uniform circle is symmetric under x -> -x and y -> -y, so each
        # row equals its mirror row up to sign. From about 1e16 times the
        # curve's size every squared sample distance rounds to the same
        # value, and the nearest sample no longer tells the side
        X = make_circle(64)
        points = np.array([[d, 0.0], [-d, 0.0], [d, -1.0], [-d, -1.0],
                           [0.0, d], [0.0, -d], [-1.0, d], [-1.0, -d]])
        u, p = sample_flow(X, points)
        rows = np.abs(np.column_stack([u, p]))
        assert np.max(np.abs(rows[0::2] - rows[1::2])) <= 1e-12 / d

    def test_points_whose_squares_overflow_are_silent(self):
        # beyond about 1.3e154 the squared sample distances overflow to inf
        X = make_circle(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, p = sample_flow(X, np.array([[1e160, 0.0], [-1e160, 0.0]]))
        assert np.max(np.abs(u)) <= 1e-170 and np.max(np.abs(p)) <= 1e-170
        assert np.max(np.abs(np.abs(u[0]) - np.abs(u[1]))) <= 1e-180

    def test_curve_only_work_runs_once_per_state(self, monkeypatch):
        calls = []
        boundary_values = ibstring.stokeslet._boundary_values

        def counted(*args):
            calls.append(len(args[0]))
            return boundary_values(*args)

        monkeypatch.setattr(ibstring.stokeslet, "_boundary_values", counted)
        X = make_perturbed_circle(256, 1.0, [PerturbationMode(3, 0.05, 0.02)])
        rows = [off_curve_velocity(X, np.array([x, 0.1])) for x in (0.2, 0.9, 1.3)]
        pressure_at(X, np.array([0.2, 0.1]))
        assert len(calls) == 1
        fresh = CurveState(GridField(X.x.values.copy()))
        assert off_curve_velocity(fresh, np.array([0.9, 0.1])).tolist() == rows[1].tolist()
        assert len(calls) == 2

    def test_sample_flow_bundles_both(self):
        X = make_circle(128)
        u, p = sample_flow(X, np.array([[0.2, 0.1]]))
        assert u.shape == (1, 2) and p.shape == (1,)
        assert np.max(np.abs(u)) < 1e-10
        assert abs(p[0] - 1.0) < 1e-8

    def test_membrane_continuity_light(self):
        # joint-refinement behavior at moderate resolution; the acceptance
        # suite runs the N = 1024 version
        X = make_perturbed_circle(512, 1.0, [PerturbationMode(3, 0.05, 0.0)])
        u_on = on_curve_velocity(X)
        t = X.xp.values[0] / np.linalg.norm(X.xp.values[0])
        normal = np.array([-t[1], t[0]])
        gaps = []
        for d in (1e-1, 1e-2, 1e-3):
            gap = max(
                np.linalg.norm(off_curve_velocity(X, X.x.values[0] + sgn * d * normal) - u_on.values[0])
                for sgn in (+1.0, -1.0)
            )
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]


def curve_at(X: CurveState, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, X' and X'' of the band-limited curve at the parameters s, as complex
    numbers x + iy, summed from every Fourier mode but the Nyquist one and
    those below 1e-15 of the largest (rounding)."""
    c = to_spectral(X.x)
    coef = c[:, 0] + 1j * c[:, 1]
    coef[X.n // 2] = 0.0
    k = np.fft.fftfreq(X.n, 1.0 / X.n)
    keep = np.abs(coef) > 1e-15 * np.abs(coef).max()
    coef, k = coef[keep], k[keep]
    e = np.exp(1j * np.outer(s, k))
    return e @ coef, e @ (1j * k * coef), e @ (-k * k * coef)


def foot_distance(X: CurveState, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance of each point to the band-limited curve and |X'| at its foot
    point, by Newton steps on (X(s) - x).X'(s) = 0 from the nearest sample
    (all_pairs_nearest)."""
    z = points[:, 0] + 1j * points[:, 1]
    s = X.s[all_pairs_nearest(X, points)[0]]
    for _ in range(8):
        xi, dxi, ddxi = curve_at(X, s)
        r = xi - z
        s = s - (r.conj() * dxi).real / (np.abs(dxi) ** 2 + (r.conj() * ddxi).real)
    xi, dxi, _ = curve_at(X, s)
    return np.abs(z - xi), np.abs(dxi)


def direct_flow(X: CurveState, points: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Velocity (P, 2) and pressure (P,) by the trapezoid rule on m samples of
    the band-limited curve in real arithmetic, the velocity conditioned by
    b = X' at the nearest of the N samples (all_pairs_nearest). Each term is
    the one a loop over single points forms; blocks of points share each
    operation over chunks of up to 8192 samples, and each point sums its
    terms pairwise within a chunk, the chunks in order."""
    xs, a = resample_field(X.x, m).values, resample_field(X.xp, m).values
    samples = np.vstack([xs.T, a.T, np.einsum("ij,ij->i", a, a)])  # x, y, a_x, a_y and |a|^2 by sample
    b = X.xp.values[all_pairs_nearest(X, points)[0]]
    u, p = np.zeros((len(points), 2)), np.zeros(len(points))
    chunk = min(m, 2**13)
    step = 2**13 // chunk
    for lo in range(0, len(points), step):
        (x, y), (bx, by) = points[lo:lo + step].T[..., None], b[lo:lo + step].T[..., None]
        for j in range(0, m, chunk):
            sx, sy, ax, ay, a2 = samples[:, j:j + chunk]
            wx, wy, dx, dy = sx - x, sy - y, ax - bx, ay - by
            r2 = wx * wx + wy * wy
            r4 = r2 * r2  # r2**2
            wa, wd, ad = wx * ax + wy * ay, wx * dx + wy * dy, ax * dx + ay * dy
            c_d, c_a, c_w, wa2 = wa / r2, wd / r2, ad / r2, 2.0 * wa
            c_2 = wa2 * wd / r4  # 2 wa wd / r2**2, as doubling is exact
            for k, (dk, ak, wk) in enumerate(((dx, ax, wx), (dy, ay, wy))):
                term = c_d * dk
                term -= c_a * ak
                term -= c_w * wk
                term += c_2 * wk
                u[lo:lo + step, k] += np.sum(term, axis=1)
            p[lo:lo + step] += np.sum(a2 / r2 - wa2 * wa / r4, axis=1)
    h = 2.0 * np.pi / m
    return h * u / (4.0 * np.pi), h * p / (2.0 * np.pi)


def dense_flow(X: CurveState, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """direct_flow at each point, checked against itself: M starts at the
    fewest power of two >= N/2 with M d/|X'| >= 24 (d the distance to the
    curve, X' at the foot point) and doubles until the velocity sums on M
    and 2M samples agree to 1e-13 of the curve's size (u scales like it
    under dilation); the point takes the 2M sums. Where the first pair
    agrees, that is the fewest power of two >= N with M d/|X'| >= 48.

    That rule alone is a guess, not a bound: the sum converges like
    e^{-M sigma}, with sigma the half-width of the strip where the integrand
    is analytic, which is near d/|X'| only close to the curve (a lattice
    point 0.6 off a random N = 64 curve, with M d/|X'| = 50.8, was 7.3e-11
    off at M = 64). The pressure is left out of the check: near the curve
    its sum's own rounding (terms up to h/d^2) lies above 1e-13 at any M.
    Points nearer than 5e-5 |X'| would need more than 1024 N samples and
    are refused. The sums run level by level, from the smallest M up, over
    every point that starts at or is still doubling through that M.
    """
    dist, speed = foot_distance(X, points)
    assert np.all(dist >= 5e-5 * speed)
    start = np.maximum(X.n // 2, 2 ** np.ceil(np.log2(24.0 * speed / dist))).astype(int)
    u, p = np.empty((len(points), 2)), np.empty(len(points))
    last = np.full((len(points), 2), np.nan)  # each point's velocity at the level below
    size = np.max(np.abs(X.x.values - np.mean(X.x.values, axis=0)))
    todo, m = np.ones(len(points), dtype=bool), start.min()
    while todo.any():
        assert m <= 4096 * X.n
        rows = np.flatnonzero(todo & (start <= m))
        u[rows], p[rows] = direct_flow(X, points[rows], int(m))
        todo[rows[np.max(np.abs(u[rows] - last[rows]), axis=1) <= 1e-13 * size]] = False
        last[rows], m = u[rows], 2 * m
    return u, p


def pointwise_direct_flow(X: CurveState, points: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """direct_flow as a loop over single points: each point's terms as one
    (m, 2) array, the velocity's summed in order along the samples and the
    pressure's pairwise."""
    xs, a = resample_field(X.x, m).values, resample_field(X.xp, m).values
    h = 2.0 * np.pi / m
    a2 = np.einsum("ij,ij->i", a, a)
    u, p = np.empty((len(points), 2)), np.empty(len(points))
    for i, (x, b) in enumerate(zip(points, X.xp.values[all_pairs_nearest(X, points)[0]])):
        w, d = xs - x, a - b
        r2 = np.einsum("ij,ij->i", w, w)
        wa, wd = np.einsum("ij,ij->i", w, a), np.einsum("ij,ij->i", w, d)
        ad = np.einsum("ij,ij->i", a, d)
        term = (wa / r2)[:, None] * d - (wd / r2)[:, None] * a - (ad / r2)[:, None] * w
        term += (2.0 * wa * wd / r2**2)[:, None] * w
        u[i] = h * term.sum(axis=0) / (4.0 * np.pi)
        p[i] = h * np.sum(a2 / r2 - 2.0 * wa**2 / r2**2) / (2.0 * np.pi)
    return u, p


@pytest.mark.parametrize("m", [512, 16384])
def test_blocked_oracle_is_the_point_loop(m):
    # the blocks change only the order of each point's sums over the samples
    X = relax_curve(1)
    points = np.vstack([field_lattice(6), *(midway_points(X, 1e-3, side, 97)[0] for side in (1.0, -1.0))])
    u, p = direct_flow(X, points, m)
    ref_u, ref_p = pointwise_direct_flow(X, points, m)
    size = np.max(np.abs(X.x.values - np.mean(X.x.values, axis=0)))
    assert np.max(np.abs(u - ref_u)) <= 1e-13 * size
    assert np.all(np.abs(p - ref_p) <= 1e-12 * np.maximum(1.0, np.abs(ref_p)))


def near_lattice(X: CurveState) -> np.ndarray:
    """A coarse lattice plus points on both sides of the curve at distances
    48 |X'| / (f N), f = 1, 2, ..., 64, from about 0.05 to 7e-4 at N = 1024."""
    xs = np.linspace(-1.6, 1.6, 9)
    points = [(x, y) for y in xs for x in xs]
    for j in (0, X.n // 3, X.n // 2 + 1):
        normal = np.array([-X.xp.values[j, 1], X.xp.values[j, 0]])  # |normal| = |X'|
        for f in (1, 2, 4, 8, 16, 32, 64):
            for sgn in (1.0, -1.0):
                points.append(tuple(X.x.values[j] + sgn * 48.0 / (f * X.n) * normal))
    return np.array(points)


def midway_points(X: CurveState, d: float, side: float, every: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points at distance d |X'| from the curve on the normal through X(s) at
    s midway between samples j and j + 1 (every `every`-th j), inside the
    counterclockwise curve for side = 1 and outside for side = -1; returns
    the points and the complex X' and X'' at their foot points."""
    xi, dxi, ddxi = curve_at(X, X.s[::every] + 0.5 * X.h)
    z = xi + side * d * 1j * dxi  # i X' is the inward normal times |X'|
    return np.column_stack([z.real, z.imag]), dxi, ddxi


def field_lattice(side: int) -> np.ndarray:
    """side x side points over [-1.6, 1.6]^2, the field_n1024 benchmark's
    lattice at side = 80."""
    axis = np.linspace(-1.6, 1.6, side)
    return np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)


def far_ring() -> np.ndarray:
    """Eight points on each circle of radius 2, 4, 16 and 100 about the origin."""
    angle = 2.0 * np.pi * np.arange(8) / 8 + 0.1
    return np.array([(r * np.cos(a), r * np.sin(a)) for r in (2.0, 4.0, 16.0, 100.0) for a in angle])


def all_pairs_nearest(X: CurveState, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The all-pairs pass the two-level search replaced, as sample_flow ran
    it: the nearest sample of each point and its squared distance
    (x_j - x)^2 + (y_j - y)^2 over every sample, in blocks of points, ties
    to the lowest index (argmin)."""
    px, py = points[:, 0].copy(), points[:, 1].copy()
    vx, vy = X.x.values[:, 0].copy(), X.x.values[:, 1].copy()
    nearest, d2 = np.empty(len(points), dtype=np.intp), np.empty(len(points))
    step = max(1, 32 * 1024 // X.n)
    work = np.empty((2, min(step, len(points)), X.n))
    for lo in range(0, len(points), step):
        sx, sy = work[:, : min(step, len(points) - lo)]
        for s, c, pc in ((sx, vx, px), (sy, vy, py)):
            s[:] = c
            s -= pc[lo:lo + step, None]
            np.square(s, out=s)
        sx += sy
        j = np.argmin(sx, axis=1)
        nearest[lo:lo + step], d2[lo:lo + step] = j, sx[np.arange(len(j)), j]
    return nearest, d2


def assert_nearest_is_all_pairs(X: CurveState, points: np.ndarray) -> None:
    nearest, d2 = _nearest_samples(X, points)
    ref_nearest, ref_d2 = all_pairs_nearest(X, points)
    assert np.array_equal(nearest, ref_nearest)
    assert np.array_equal(d2, ref_d2)


@pytest.fixture
def search_pairs(monkeypatch):
    """Point-sample pairs whose coordinate differences numpy squares: each
    (2, points, samples) array squared holds one pair per entry. The
    nearest-sample search squares every pair it evaluates this way."""
    pairs = []
    square = np.square

    def counted(a, *args, **kwargs):
        if a.ndim == 3 and len(a) == 2 and a.dtype == float:
            pairs.append(a[0].size)
        return square(a, *args, **kwargs)

    monkeypatch.setattr(np, "square", counted)
    return pairs


def assert_rows_independent_of_blocks_and_order(X: CurveState, points: np.ndarray, rng, monkeypatch) -> None:
    """Each lattice row equals its one-point call and does not depend on the
    order of the points or on the block size, bit for bit."""
    u, p = sample_flow(X, points)
    for x, ux, px in zip(points, u, p):
        uy, py = sample_flow(X, x)
        assert uy[0].tolist() == ux.tolist() and py[0] == px
        assert off_curve_velocity(X, x).tolist() == ux.tolist() and pressure_at(X, x) == px
    order = rng.permutation(len(points))
    us, ps = sample_flow(X, points[order])
    assert np.array_equal(us, u[order]) and np.array_equal(ps, p[order])
    for entries in (1, 7 * X.n, 64 * X.n):  # 1, 7 and 64 points per N-sample block
        monkeypatch.setattr(ibstring.stokeslet, "_BLOCK_ENTRIES", entries)
        ub, pb = sample_flow(X, points)
        assert np.array_equal(ub, u) and np.array_equal(pb, p)


class TestNearestSampleSearch:
    """The two-level search returns the all-pairs pass's nearest sample and
    squared distance bit for bit, and evaluates a fraction of the pairs."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_field_lattices(self, seed):
        assert_nearest_is_all_pairs(relax_curve(seed), field_lattice(80))

    def test_near_lattice_and_far_ring(self, rng):
        for X in (random_smooth_curve(rng, 64), relax_curve(2)):
            assert_nearest_is_all_pairs(X, np.vstack([near_lattice(X), far_ring()]))

    def test_uniform_circle_lattice_with_a_near_tie_at_the_centre(self):
        # every sample of the circle is within rounding of 1 from (0, 0)
        X = make_circle(1024)
        axis = np.linspace(-1.05, 1.05, 41)
        points = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        assert [0.0, 0.0] in points.tolist()
        assert_nearest_is_all_pairs(X, points)

    def test_lattices_that_hold_samples(self):
        for X in (make_circle(64), relax_curve(1)):
            points = np.vstack([field_lattice(20), X.x.values[::5], X.x.values[[0, -1]]])
            assert_nearest_is_all_pairs(X, points)
            assert np.sum(_nearest_samples(X, points)[1] == 0.0) >= len(X.x.values[::5]) + 2

    @pytest.mark.parametrize("n", [8, 10, 1000, 1026])
    def test_sample_counts_with_a_short_last_run(self, n):
        # S = ceil(sqrt(N)) does not divide these N, so the last run
        # overlaps the one before it
        assert n % (math.isqrt(n - 1) + 1) != 0
        X = make_perturbed_circle(n, 1.0, [PerturbationMode(3, 0.05, 0.02, 0.3, 1.1)])
        axis = np.linspace(-1.1, 1.1, 23)
        points = np.vstack([np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2),
                            X.x.values, 0.5 * (X.x.values + np.roll(X.x.values, -1, axis=0)), far_ring()])
        assert_nearest_is_all_pairs(X, points)

    @pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e-100, 1e-50, 1e25, 1e50, 1e75])
    def test_scaled_circles(self, scale):
        # at 1e-150 the squares sit below the pruning floor, at 1e-160 they
        # are subnormal, and at 1e75 near 1e150
        for X in (make_circle(1024), relax_curve(1)):
            scaled = CurveState(GridField(scale * X.x.values))
            assert_nearest_is_all_pairs(scaled, scale * np.vstack([field_lattice(30), near_lattice(X)]))

    def test_tie_a_reach_behind_the_nearest_middle(self):
        # samples stepping back and forth by c along a ray from the point:
        # sample 6, the second run's middle, coincides with sample 0, and the
        # first run's middle lies 2c, its reach, farther out. That run's bound
        # equals sqrt(D) up to rounding; only the margin of _kept keeps it, so
        # that the tie goes to sample 0 (without it 10 of these 240 fail)
        steps = [0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1, 1, 2, 2, 1]
        for r, c in ((1.0, 1e-3), (3.0, 1e-5), (0.7, 1e-5), (3.0, 1e-7)):
            for angle in np.linspace(0.0, 2 * np.pi, 60, endpoint=False):
                u = np.array([np.cos(angle), np.sin(angle)])
                X = CurveState(GridField(np.array([(r + k * c) * u for k in steps])))
                assert_nearest_is_all_pairs(X, np.zeros((1, 2)))

    def test_clockwise_curve(self):
        X = relax_curve(3)
        clockwise = CurveState(GridField(X.x.values[::-1]))
        assert_nearest_is_all_pairs(clockwise, np.vstack([field_lattice(40), near_lattice(X)]))

    def test_overflowing_squares(self):
        # every square overflows at 1e300: each distance is inf, and the
        # nearest sample is the first, as in the all-pairs pass
        X = relax_curve(1)
        points = np.array([[1e300, 0.0], [0.3, 0.2], [-1e300, 1e300], [0.0, -1e155], [1e154, 0.0]])
        with np.errstate(over="ignore"):
            assert_nearest_is_all_pairs(X, points)
            nearest, d2 = _nearest_samples(X, points)
        assert nearest[0] == 0 and np.isinf(d2[[0, 2, 3]]).all() and np.isfinite(d2[[1, 4]]).all()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_field_lattice_evaluates_at_most_a_fifth_of_the_pairs(self, seed, search_pairs):
        X, points = relax_curve(seed), field_lattice(80)
        _nearest_samples(X, points)
        assert 0 < sum(search_pairs) <= 0.2 * len(points) * X.n

    def test_one_point_evaluates_few_runs(self, search_pairs):
        # the coarse level plus the runs within reach of the nearest middle
        # sample: the run holding the foot point and its neighbours
        X = relax_curve(1)
        _nearest_samples(X, np.array([[0.9, 0.3]]))
        assert sum(search_pairs) <= 32 + 3 * 32


def perturbed_1000() -> CurveState:
    """A two-mode perturbed circle at N = 1000, where S = 32 leaves a short
    last run."""
    modes = [PerturbationMode(2, 0.03, -0.01, 0.4), PerturbationMode(3, -0.01, 0.015, 1.3, 2.2)]
    return make_perturbed_circle(1000, 1.0, modes)


class TestFieldAtN1000:
    """`field` rows of the N = 1000 curve on a 40 x 40 lattice over
    [-1.6, 1.6]^2, read back from its snapshot as the command reads it."""

    grid = FieldGrid(-1.6, 1.6, -1.6, 1.6, 40, 40)

    def test_rows_equal_the_all_pairs_rows(self, tmp_path, monkeypatch):
        write_snapshot(tmp_path / "perturbed_1000.csv", perturbed_1000())
        X = read_snapshot(tmp_path / "perturbed_1000.csv")
        write_field_csv(tmp_path / "search.csv", X, self.grid)
        monkeypatch.setattr(ibstring.stokeslet, "_nearest_samples", all_pairs_nearest)
        write_field_csv(tmp_path / "all_pairs.csv", CurveState(X.x), self.grid)
        assert (tmp_path / "search.csv").read_bytes() == (tmp_path / "all_pairs.csv").read_bytes()

    def test_blas_thread_count_keeps_bytes(self, tmp_path):
        # one `field` process per count, since OpenBLAS reads it when it loads
        write_snapshot(tmp_path / "perturbed_1000.csv", perturbed_1000())
        g = self.grid
        config = {"grid_n": 1000, "t_end": 1.0, "output_dir": str(tmp_path / "out"), "initial": {"kind": "circle"},
                  "field_grid": {"xmin": g.xmin, "xmax": g.xmax, "ymin": g.ymin, "ymax": g.ymax, "nx": g.nx, "ny": g.ny}}
        (tmp_path / "field_1000.json").write_text(json.dumps(config))
        rows = set()
        for threads in (1, 2):
            run_with_blas_threads(threads, ["-m", "ibstring.cli_io", "field", "field_1000.json", "perturbed_1000.csv"],
                                  cwd=tmp_path)
            rows.add((tmp_path / "out" / "field.csv").read_bytes())
        assert len(rows) == 1 and len(rows.pop().splitlines()) == 1 + 40 * 40


class TestBatchedOffCurveFlow:
    def test_near_points_match_the_dense_oracle(self, rng):
        X = random_smooth_curve(rng, 64)
        points = near_lattice(X)
        u, p = sample_flow(X, points)
        ref_u, ref_p = dense_flow(X, points)
        assert np.max(np.abs(u - ref_u)) <= 1e-9  # 3.6e-10 measured, 9.7e-9 before
        assert np.all(np.abs(p - ref_p) <= 1e-8 * np.maximum(1.0, np.abs(ref_p)))

    def test_rows_bitwise_independent_of_blocks_and_order(self, rng, monkeypatch):
        X = random_smooth_curve(rng, 64)
        assert_rows_independent_of_blocks_and_order(X, near_lattice(X), rng, monkeypatch)

    def test_truncated_groups_bitwise_independent_of_blocks_and_order(self, rng, monkeypatch):
        # at N = 1024 near and far points alike take the Cauchy sums on the
        # curve truncated to M_c samples
        X = relax_curve(2)
        points = np.vstack([near_lattice(X), far_ring()])
        assert_rows_independent_of_blocks_and_order(X, points, rng, monkeypatch)

    def test_rigid_motion_rotates_velocity_and_keeps_pressure(self, rng):
        X = random_smooth_curve(rng, 64)
        points = near_lattice(X)
        th, shift = 0.7, np.array([0.3, -1.2])
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        moved = CurveState(GridField(X.x.values @ rot.T + shift))
        u, p = sample_flow(X, points)
        um, pm = sample_flow(moved, points @ rot.T + shift)
        near = np.arange(len(points)) >= 81  # past the 9 x 9 lattice
        for rows in (~near, near):
            for got, want in ((um[rows], u[rows] @ rot.T), (pm[rows], p[rows])):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_clockwise_curve_gives_the_same_flow(self):
        # the force X'' and the measure |X'| ds do not depend on the direction
        X = relax_curve(1)
        points = np.vstack([field_lattice(40), midway_points(X, 1e-6, 1.0, 97)[0],
                            midway_points(X, 1e-6, -1.0, 97)[0]])
        u, p = sample_flow(X, points)
        ur, pr = sample_flow(CurveState(GridField(X.x.values[::-1])), points)
        assert np.max(np.abs(ur - u)) <= 1e-13
        assert np.all(np.abs(pr - p) <= 1e-12 * np.maximum(1.0, np.abs(p)))

    def test_blas_thread_count_keeps_bytes(self):
        # one child process per count, since OpenBLAS reads it when it loads;
        # the N = 2048 curve fills its spectrum, so its Cauchy sums run over
        # all 2048 samples, in two chunks
        code = (
            "import hashlib, sys, numpy as np\n"
            "from ibstring import PerturbationMode, make_perturbed_circle\n"
            "from ibstring.acceptance import random_smooth_curve\n"
            "from ibstring.stokeslet import sample_flow\n"
            "points = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 2)\n"
            "n = 2048\n"
            "modes = [PerturbationMode(k, 1e-2 * 10.0 ** (-8.0 * k / (n // 6))) for k in range(2, n // 2)]\n"
            "flows = [sample_flow(random_smooth_curve(np.random.default_rng(5), n=1024, amp=0.01), points),\n"
            "         sample_flow(make_perturbed_circle(n, 1.0, modes), points)]\n"
            "print(hashlib.sha256(b''.join(a.tobytes() for flow in flows for a in flow)).hexdigest())\n"
        )
        X = random_smooth_curve(np.random.default_rng(5), n=1024, amp=0.01)
        points = near_lattice(X)
        digests = {run_with_blas_threads(threads, ["-c", code], input=points.tobytes()).stdout for threads in (1, 2)}
        n = 2048
        modes = [PerturbationMode(k, 1e-2 * 10.0 ** (-8.0 * k / (n // 6))) for k in range(2, n // 2)]
        flows = [sample_flow(X, points), sample_flow(make_perturbed_circle(n, 1.0, modes), points)]
        digest = hashlib.sha256(b"".join(a.tobytes() for flow in flows for a in flow)).hexdigest()
        assert digests == {(digest + "\n").encode()}

    def test_on_curve_points_give_nan_rows_without_warnings(self):
        X = make_perturbed_circle(64, 1.0, [PerturbationMode(2, 0.05, 0.0)])
        points = np.array([[0.1, 0.2], X.x.values[5], [1.7, -0.3], X.x.values[40]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, p = sample_flow(X, points)
            for x in (points[1], points[3]):
                with pytest.raises(OnCurvePointError):
                    off_curve_velocity(X, x)
                with pytest.raises(OnCurvePointError):
                    pressure_at(X, x)
        assert np.isnan(u[[1, 3]]).all() and np.isnan(p[[1, 3]]).all()
        assert np.isfinite(u[[0, 2]]).all() and np.isfinite(p[[0, 2]]).all()

    def test_lattice_memory_peak(self):
        # the field benchmark's size: N = 1024 and an 80 x 80 lattice, with
        # the truncated curve built inside the evaluation
        modes = [PerturbationMode(k, 0.008, 0.006, 0.3 * k, 1.1 * k) for k in range(2, 7)]
        samples = make_perturbed_circle(1024, 1.0, modes).x
        X = CurveState(samples)
        tracemalloc.start()
        try:
            u, p = sample_flow(X, field_lattice(80))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(u).all() and np.isfinite(p).all()
        assert peak < 16e6


class TestCauchyEvaluator:
    @pytest.mark.parametrize("seed, scale", [(1, 1.0), (2, 1.0), (3, 1.0), (None, 1.0), (1, 100.0)])
    def test_field_rows_match_the_dense_oracle(self, seed, scale):
        # every field_n1024 row on the benchmark's curves, a beta = 0.5
        # circle (None) and a radius-100 copy
        X = make_reparam_circle(1024, 1.0, 0.5) if seed is None else relax_curve(seed)
        X = CurveState(GridField(scale * X.x.values))
        points = scale * field_lattice(80)
        u, p = sample_flow(X, points)
        ref_u, ref_p = dense_flow(X, points)
        assert np.max(np.abs(u - ref_u)) <= 3e-13 * scale
        assert np.all(np.abs(p - ref_p) <= 2e-9 * np.maximum(1.0, np.abs(ref_p)))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_midway_points_match_the_dense_oracle(self, side):
        X = relax_curve(1)
        for d in (1e-4, 1e-3, 1e-2, X.h, 5.0 * X.h):
            points = midway_points(X, d, side, 97)[0]
            u, p = sample_flow(X, points)
            ref_u, ref_p = dense_flow(X, points)
            assert np.max(np.abs(u - ref_u)) <= 1e-13
            assert np.all(np.abs(p - ref_p) <= 5e-9 * np.maximum(1.0, np.abs(ref_p)))

    def test_uniform_circle_is_at_rest_with_unit_pressure_inside(self):
        # every point of a 41 x 41 lattice and of midway points within 1e-8
        # of the curve: u = 0, p = 1 inside and 0 outside
        X = make_circle(1024)
        axis = np.linspace(-1.05, 1.05, 41)
        points = np.vstack([np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)]
                           + [midway_points(X, d, side, 31)[0] for d in (1e-6, 1e-8) for side in (1.0, -1.0)])
        u, p = sample_flow(X, points)
        inside = np.hypot(points[:, 0], points[:, 1]) < 1.0
        assert np.max(np.abs(u)) <= 2e-13
        assert np.max(np.abs(p - inside)) <= 1e-12

    def test_pressure_jumps_by_the_normal_force(self):
        # across the string p_in - p_out = X''.n_in/|X'|, and u is continuous
        X = relax_curve(1)
        inner, dxi, ddxi = midway_points(X, 1e-8, 1.0, 7)
        outer = midway_points(X, 1e-8, -1.0, 7)[0]
        (u_in, p_in), (u_out, p_out) = sample_flow(X, inner), sample_flow(X, outer)
        jump = (ddxi.conj() * 1j * dxi).real / np.abs(dxi) ** 2
        assert np.max(np.abs(p_in - p_out - jump)) <= 1e-7
        assert np.max(np.abs(u_in - u_out)) <= 1e-8

    @pytest.mark.parametrize("d", [1e-6, 1e-8])
    def test_side_of_midway_points_off_a_convex_curve(self, d):
        # outside a convex curve, midway between samples, the nearest sample's
        # tangent line passes beyond the point; the foot point decides
        X = relax_curve(1)
        _, dxi, ddxi = curve_at(X, X.s)
        assert np.all((dxi.conj() * ddxi).imag > 0.0)  # convex
        outer = midway_points(X, d, -1.0)[0]
        inner = midway_points(X, d, 1.0)[0]
        z = ibstring.stokeslet._complex(np.vstack([outer, inner]))
        v = X.x.values[:, 0] + 1j * X.x.values[:, 1]
        nearest = np.argmin(np.abs(v[None, :] - z[:, None]), axis=1)
        dist = np.abs(z - v[nearest])
        r, b = z - v[nearest], X.xp.values[nearest, 0] + 1j * X.xp.values[nearest, 1]
        assert np.all((r.conj() * b).imag[: X.n] < 0.0)  # the tangent line alone says inside
        setup = X.derived(ibstring.stokeslet._cauchy_setup)
        inside = ibstring.stokeslet._inside(X, z, nearest, dist, setup)
        assert not inside[: X.n].any() and inside[X.n:].all()


class TestSampleCounts:
    @pytest.mark.parametrize("scale", [2.0**7, 2.0**-7])
    def test_dilation_by_a_power_of_two_is_exact(self, rng, scale):
        # the truncated curve M_c and the side test depend on the curve's
        # shape only, and every float operation of the sums scales exactly
        for X in (random_smooth_curve(rng, 64), relax_curve(1)):
            points = np.vstack([near_lattice(X), far_ring()])
            u, p = sample_flow(X, points)
            us, ps = sample_flow(CurveState(GridField(scale * X.x.values)), scale * points)
            assert np.array_equal(us, scale * u) and np.array_equal(ps, p)

    @pytest.mark.parametrize("radius", [1.0, 100.0])
    def test_near_rows_as_accurate_at_any_curve_scale(self, radius):
        # one local sample spacing h|X'| off the curve, against 16 N samples
        X = make_perturbed_circle(256, radius, [PerturbationMode(3, 0.05 * radius, 0.02 * radius)])
        for j in (0, 100, 171):
            x = X.x.values[j] + X.h * np.array([-X.xp.values[j, 1], X.xp.values[j, 0]])
            u, p = sample_flow(X, x)
            ref_u, ref_p = direct_flow(X, x[None], 16 * X.n)
            assert np.max(np.abs(u[0] - ref_u[0])) <= 1e-10 * np.max(np.abs(ref_u))
            assert abs(p[0] - ref_p[0]) <= 1e-10 * abs(ref_p[0])

    @pytest.mark.parametrize("seed", [1, 2, 3, None])
    def test_far_rows_match_the_full_resolution_oracle(self, seed):
        # the benchmark's curves and a beta = 0.5 circle (None), whose speed
        # |X'| runs from 0.5 to 1.5, at points from 2 to 100 curve radii out
        X = make_reparam_circle(1024, 1.0, 0.5) if seed is None else relax_curve(seed)
        points = far_ring()
        u, p = sample_flow(X, points)
        ref_u, ref_p = direct_flow(X, points, X.n)
        ref = np.column_stack([ref_u, ref_p])
        got = np.column_stack([u, p])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_field_lattice_evaluates_at_most_half_the_pairs(self, monkeypatch):
        X = relax_curve(1)
        points = field_lattice(80)
        pairs = []
        row_sums = ibstring.stokeslet._row_sums

        def counted(A, q):
            if q.shape[1] == 3:  # the first sum of each block
                pairs.append(A.size)
            return row_sums(A, q)

        monkeypatch.setattr(ibstring.stokeslet, "_row_sums", counted)
        sample_flow(X, points)
        # the rule before per-point resolution: N samples at every point,
        # refined within 5h (absolute distance) until f N dist >= 32
        dist = np.array([np.sqrt(np.min(np.sum((X.x.values - x) ** 2, axis=1))) for x in points])
        factor = np.ones(len(points))
        grow = dist < 5.0 * X.h
        while (grow := grow & (factor < 64) & (factor * X.n * dist < 32.0)).any():
            factor[grow] *= 2
        assert sum(pairs) <= 0.5 * np.sum(X.n * factor[dist > 0.0])


class TestDissipation:
    def test_circle_zero(self):
        assert abs(dissipation_rate(make_circle(256))) < 1e-12

    def test_nonnegative_on_test_curves(self, rng):
        for _ in range(5):
            X = random_smooth_curve(rng, n=128)
            assert dissipation_rate(X) >= -1e-10

    def test_quadratic_scaling_in_amplitude(self):
        # leading order of the dissipation is quadratic in the perturbation
        values = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            X = make_perturbed_circle(256, 1.0, [PerturbationMode(2, eps, 0.0)])
            values.append(dissipation_rate(X))
        ratios = [values[i] / values[i + 1] for i in range(2)]
        assert all(abs(r - 4.0) < 0.05 for r in ratios)


class TestNonstiffForcing:
    def test_unit_circle_quarter_of_position(self):
        X = make_circle(256)
        g = nonstiff_forcing(X)
        assert np.max(np.abs(g.values - 0.25 * X.x.values)) < 1e-10

    def test_radius_scaling(self):
        X = make_circle(256, radius=2.0, center=(1.0, -1.0))
        g = nonstiff_forcing(X)
        s = X.s
        expected = 0.5 * np.stack([np.cos(s), np.sin(s)], axis=1)  # R/4 = 0.5, mean dropped
        assert np.max(np.abs(g.values - expected)) < 1e-10

    def test_splitting_identity(self, rng):
        X = random_smooth_curve(rng, n=128)
        u = on_curve_velocity(X)
        recomposed = -0.25 * fractional_laplacian_half(X.x).values + nonstiff_forcing(X, u).values
        assert np.max(np.abs(recomposed - u.values)) < 1e-14


class TestForcingDerivative:
    def test_diagonal_is_zero(self, rng):
        X = random_smooth_curve(rng, n=64)
        simplified = integrand_matrix(_forcing_derivative_rows(X), X.n)
        idx = np.arange(X.n)
        assert np.array_equal(simplified[idx, idx], np.zeros((X.n, 2)))

    def test_direct_form_rejects_diagonal(self, rng):
        # the direct form has no implemented limit: NaN on the diagonal only
        X = random_smooth_curve(rng, n=64)
        direct = integrand_matrix(_forcing_derivative_rows_direct(X), X.n)
        diagonal = np.eye(X.n, dtype=bool)
        assert np.all(np.isnan(direct[diagonal]))
        assert np.all(np.isfinite(direct[~diagonal]))

    def test_two_forms_agree_on_random_pairs(self, rng):
        # every off-diagonal pair of a random curve
        X = random_smooth_curve(rng, n=256)
        simplified = integrand_matrix(_forcing_derivative_rows(X), X.n)
        direct = integrand_matrix(_forcing_derivative_rows_direct(X), X.n)
        off = ~np.eye(X.n, dtype=bool)
        assert np.max(np.abs(simplified[off] - direct[off])) < 1e-10

    def test_circle_antipodal_pair(self):
        X = make_circle(256)
        a = integrand_matrix(_forcing_derivative_rows(X), X.n)[0, 128]
        b = integrand_matrix(_forcing_derivative_rows_direct(X), X.n)[0, 128]
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_quadrature_matches_spectral_derivative_unit_circle(self):
        X = make_circle(256)
        g = nonstiff_forcing(X)
        gap = forcing_derivative_quadrature(X).values - derivative(g, 1).values
        assert np.max(np.abs(gap)) < 1e-8

    def test_quadrature_matches_spectral_derivative_generic(self, rng):
        X = random_smooth_curve(rng, n=256)
        direct = derivative(nonstiff_forcing(X), 1).values
        quad = forcing_derivative_quadrature(X).values
        rel = np.sqrt(np.mean((direct - quad) ** 2) / np.mean(direct**2))
        assert rel < 1e-6

    def test_tau_factor_branch_crossing(self):
        # series and direct evaluation agree where the branch switches
        for tau in (1e-2, 1.0000001e-2, -1e-2):
            series = tau / 12.0 + tau**3 / 240.0 + tau**5 / 6048.0
            direct = (tau**2 - 4 * np.sin(tau / 2) ** 2) / (4 * tau * np.sin(tau / 2) ** 2)
            assert abs(series - direct) < 1e-12
            assert abs(float(_tau_factor(np.array([tau]))[0]) - direct) < 1e-12
