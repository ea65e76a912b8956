"""Boundary-integral evaluations for the immersed string.

The regularized on-curve velocity integrand of steady 2-D Stokes flow,
off-curve velocity/pressure, the energy dissipation rate, the nonstiff
forcing of the contour dynamics and the s-derivative of that forcing. The
on-curve integrands exist once, as private generators over the row blocks of
their pair matrices; the public functions sum those rows.

All on-curve integrals use the periodic trapezoid rule with the analytic
removable-singularity limit substituted on the diagonal (no point exclusion).
Off-curve velocity and pressure are batched over point blocks and written
in complex variables: every off-curve point takes compensated (barycentric)
Cauchy quadrature on the curve truncated to its resolved band, which stays
at rounding level at any distance; see README for the accuracy envelope.
Each point's nearest sample, which picks its side of the curve, comes from
an exact two-level search that evaluates a fraction of the point-sample
pairs.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .curve import (
    _BLOCK_ROWS,
    CurveState,
    _kept,
    _offset_rows,
    _pair_blocks,
    _row_blocks,
    _safe,
    _toeplitz_rows,
    _torus_offsets,
    _workspace,
)
from .spectral import GridField, band_samples, fractional_laplacian_half, resample_field, resolved_band

__all__ = [
    "OnCurvePointError",
    "on_curve_velocity",
    "off_curve_velocity",
    "pressure_at",
    "sample_flow",
    "dissipation_rate",
    "nonstiff_forcing",
    "forcing_derivative_quadrature",
]

_FOUR_PI = 4.0 * np.pi


class OnCurvePointError(ValueError):
    """Evaluation point coincides with a curve sample; use on_curve_velocity."""


# ---------------------------------------------------------------------------
# on-curve velocity
# ---------------------------------------------------------------------------

def _velocity_rows(X: CurveState) -> Iterator[tuple]:
    """Row blocks (rows, C, D, E, wx, wy) of 4pi times the on-curve velocity
    integrand C a^perp - D a + E w, with a = X'(s') and a^perp = (-a_y, a_x).

    The chord-slope form is homogeneous of degree 0 in tau, so it is written in
    the chords w, d of _pair_blocks: (w.a)d - (a.d)w = (w x d) a^perp gives
    C = (w x d)/|w|^2, D = (w.d)/|w|^2, E = 2(w.a)/|w|^2 D, and on the diagonal
    C = D = 0, E w = X''(s). The next block overwrites all five arrays.
    """
    vp, vpp = X.xp.values, X.xpp.values
    ax2, ay2 = 2.0 * vp[:, 0], 2.0 * vp[:, 1]
    work = _workspace(5, X.n)
    for rows, diag, wx, wy, dx, dy, w2 in _pair_blocks(X):
        inv, C, D, E, t = work[:, : rows.stop - rows.start]
        np.divide(1.0, w2, out=inv)  # 0 on the diagonal
        np.multiply(wx, dy, out=C)
        C -= np.multiply(wy, dx, out=t)
        C *= inv
        np.multiply(wx, dx, out=D)
        D += np.multiply(wy, dy, out=t)
        D *= inv
        np.multiply(wx, ax2, out=E)
        E += np.multiply(wy, ay2, out=t)
        E *= inv
        E *= D
        E[diag], wx[diag], wy[diag] = 1.0, vpp[rows, 0], vpp[rows, 1]  # E w = X''(s)
        yield rows, C, D, E, wx, wy


def on_curve_velocity(X: CurveState) -> GridField:
    """String velocity u(X(s_j)) by periodic trapezoid over all samples.

    The integrand is smooth across the diagonal, so the rule is spectrally
    accurate; this is the full right-hand side of the contour dynamics. The
    pass runs over row blocks of the pair matrices and sums each block's rows
    with BLAS products.
    """
    vp = X.xp.values
    a_perp = np.stack([-vp[:, 1], vp[:, 0]], axis=1)
    out = np.empty((X.n, 2))
    for rows, C, D, E, wx, wy in _velocity_rows(X):
        out[rows] = C @ a_perp - D @ vp
        for k, w in enumerate((wx, wy)):  # E.w row by row, one BLAS dot each
            out[rows, k] += np.matmul(E[:, None, :], w[:, :, None])[:, 0, 0]
    return GridField(X.h * out / _FOUR_PI)


# ---------------------------------------------------------------------------
# off-curve flow
# ---------------------------------------------------------------------------

# Pair entries (points x samples) per block of the off-curve evaluator: each
# complex block holds as many entries as a _BLOCK_ROWS-row pair block at N = 1024.
_BLOCK_ENTRIES = _BLOCK_ROWS * 1024
# Samples per BLAS product in the off-curve row sums. The sample axis is cut at
# fixed offsets, so a row's sums do not depend on its block, and no product is
# large enough for OpenBLAS to split it over threads (a 4096 x 3 product was
# split on a 2-core machine, and a cold process could then stall for ~1 s).
_SUM_CHUNK = 1024


def _complex(xy: np.ndarray) -> np.ndarray:
    """(n, 2) real pairs as n complex numbers x + iy (a view where possible)."""
    return np.ascontiguousarray(xy, dtype=float).view(complex)[:, 0]


def _row_sums(A: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(B, k) sums A[i, :] @ q as one BLAS product per row and sample chunk,
    the chunks added in order (a whole-block product is not bitwise the same
    row by row for every block height)."""
    out = np.matmul(A[:, None, :_SUM_CHUNK], q[:_SUM_CHUNK])[:, 0, :]
    for lo in range(_SUM_CHUNK, A.shape[1], _SUM_CHUNK):
        out += np.matmul(A[:, None, lo:lo + _SUM_CHUNK], q[lo:lo + _SUM_CHUNK])[:, 0, :]
    return out


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den for complex (P,) arrays in real arithmetic: numpy may round a
    complex operation on a one-element array differently from a longer one."""
    scale = den.real * den.real + den.imag * den.imag
    out = np.empty(len(num), dtype=complex)
    out.real = (num.real * den.real + num.imag * den.imag) / scale
    out.imag = (num.imag * den.real - num.real * den.imag) / scale
    return out


def _boundary_values(zeta: np.ndarray, a: np.ndarray, g: np.ndarray, g_prime: np.ndarray) -> np.ndarray:
    """(M, 2) exterior boundary values Phi^- = I/(2pi i) of the Cauchy
    integrals of the two densities g[:, k] on the M samples zeta, with
    a = X' there and g_prime = g'.

    I_j = h [sum over k != j of (g_k - g_j) a_k/(zeta_k - zeta_j) + g'_j] is
    the trapezoid rule of the integral of (g - g_j)/(zeta - zeta_j) dzeta,
    whose integrand is smooth with the limit g'_j on the diagonal. Each row
    block's sums are per-row products of C = a_k/(zeta_k - zeta_j) (zero on
    the diagonal) with [g, 1], through _row_sums.
    """
    m = len(zeta)
    q = np.column_stack([g, np.ones(m)])
    out = np.empty((m, 2), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // m)
    work = np.empty((min(step, m), m), dtype=complex)
    for lo in range(0, m, step):
        rows = np.arange(lo, min(lo + step, m))
        C = work[: len(rows)]
        C[:] = zeta
        C -= zeta[rows, None]
        C[np.arange(len(rows)), rows] = np.inf  # a/inf = 0 on the diagonal
        np.divide(a, C, out=C)
        s = _row_sums(C, q)
        out[rows] = s[:, :2] - g[rows] * s[:, 2:] + g_prime[rows]
    return out * ((2.0 * np.pi / m) / (2j * np.pi))


# Newton steps to the foot point in _inside, each quadratic from an error of
# about one sample spacing.
_NEWTON_STEPS = 3


class _CauchySetup(NamedTuple):
    """The curve-only part of the off-curve evaluator, built once per state
    by _cauchy_setup and held on it (CurveState.derived).

    zeta and w are the M_c samples and weights h X' as complex numbers and
    center their mean. sides holds (phi, q, shift) for the points inside and
    outside: the boundary values Phi^+ or Phi^-, the (M_c, 3) product
    columns [w, phi w] and the shift of the denominator's imaginary part.
    modes and foot are the mode numbers k and the (2K + 1, 3) coefficients
    of X, X' and X'' in e^{iks} for _inside's Newton steps. A point farther
    than disc_radius from disc_center lies outside the curve.
    """

    zeta: np.ndarray
    w: np.ndarray
    center: complex
    sides: tuple
    modes: np.ndarray
    foot: np.ndarray
    orientation: float
    disc_center: complex
    disc_radius: float


def _cauchy_setup(X: CurveState) -> _CauchySetup:
    """_cauchy_flow's and _inside's curve-only work: the resolved band K and
    M_c, the truncated curve, the boundary values (_boundary_values), the
    product columns of both sides, the foot-point coefficients and the
    bounding disc.

    The disc is centred at the samples' mean, and its radius is their
    largest distance from it plus X.max_step (room for the band-limited
    curve between samples), moved up by curve._safe. From about 1e16 times
    the curve's size every squared sample distance of a point rounds to the
    same value, so its nearest sample, and the tangent _inside would read
    there, are arbitrary; the disc places such points outside.
    """
    band = resolved_band(X.x)[0]
    m = min(X.n, band_samples(2 * band))
    zeta, a, app = (_complex(resample_field(v, m).values) for v in (X.x, X.xp, X.xpp))
    center = np.mean(zeta)
    w = (2.0 * np.pi / m) * a
    arm = np.conjugate(zeta - center)
    g = np.stack([a, arm * a]).T  # the densities a and gb
    g_prime = np.stack([app, a.real * a.real + a.imag * a.imag + arm * app]).T
    outer = _boundary_values(zeta, a, g, g_prime)
    orientation = 1.0 if X.area >= 0.0 else -1.0
    sides = tuple(
        (phi, np.column_stack([w, phi * w[:, None]]), shift)  # q: den and the two numerators of Phi
        for phi, shift in ((outer + orientation * g, 0.0), (outer, orientation * 2.0 * np.pi))
    )
    k = min(band, X.n // 2 - 1)
    half = X.x.spectrum[: k + 1] / X.n
    coef = np.concatenate([np.conj(half[:0:-1]), half])  # modes -k .. k, the negative ones as conjugates
    modes = np.arange(-k, k + 1)
    c = coef[:, 0] + 1j * coef[:, 1]
    foot = np.stack([c, 1j * modes * c, -(modes * modes) * c]).T  # X, X', X'' from e^{iks}
    samples = _complex(X.x.values)
    disc_center = np.mean(samples)
    disc_radius = _safe(float(np.max(np.abs(samples - disc_center))) + X.max_step, 1)
    return _CauchySetup(zeta, w, center, sides, modes, foot, orientation, disc_center, disc_radius)


def _inside(X: CurveState, z: np.ndarray, nearest: np.ndarray, dist: np.ndarray,
            setup: _CauchySetup) -> np.ndarray:
    """Whether each point z lies in the bounded region of the curve.

    A point beyond the curve's bounding disc lies outside. Otherwise the
    side is the sign of (z - zeta) x X' at the point's nearest sample.
    Within h|X'| of the curve, the sample is first moved to the foot point
    of z on the band-limited curve (modes |k| <= K) by Newton steps on
    (X(s) - z) . X'(s) = 0 from the sample's s; there the nearest sample's
    tangent line can lie on the other side of z. The orientation is +1 for
    a counterclockwise curve, whose bounded region lies to the left of X'.
    """
    zeta, b = _complex(X.x.values)[nearest], _complex(X.xp.values)[nearest]
    close = np.flatnonzero(dist < X.h * np.abs(b))
    if close.size:
        s, zc = X.s[nearest[close]], z[close]
        for step in range(_NEWTON_STEPS + 1):
            xi, dxi, ddxi = _row_sums(np.exp(1j * np.outer(s, setup.modes)), setup.foot).T
            if step < _NEWTON_STEPS:
                r = xi - zc
                slope = dxi.real * dxi.real + dxi.imag * dxi.imag + r.real * ddxi.real + r.imag * ddxi.imag
                s = s - (r.real * dxi.real + r.imag * dxi.imag) / slope
        zeta[close], b[close] = xi, dxi
    r = z - zeta
    within = np.abs(z - setup.disc_center) <= setup.disc_radius
    return within & (setup.orientation * (r.real * b.imag - r.imag * b.real) < 0.0)


def _cauchy_flow(X: CurveState, z: np.ndarray, nearest: np.ndarray,
                 dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Velocity (P, 2) and pressure (P,) at P off-curve points z by
    compensated (barycentric) Cauchy quadrature on the curve truncated to
    M_c samples (Helsing & Ojala, J. Comput. Phys. 227, 2008; Barnett, Wu &
    Veerapaneni, SIAM J. Sci. Comput. 37, 2015).

    With zeta = X(s), a = X'(s) and Phi_g(z) = (1/2pi i) integral of
    g/(zeta - z) dzeta, the Stokeslet integral of the string force is
        u_x + i u_y = (i/4) (Phi_a - conj(Phi'_{gb} - conj(z - c) Phi'_a)),
        p = Im Phi'_a,
    for gb = conj(zeta - c) a and c the curve's mean. M_c is the smallest
    power of two that is at least 16 and 8K, at most N: the densities a and
    gb have band 2K, so M_c passes the tail test on them. The boundary
    values Phi^- come from _boundary_values once per state (_cauchy_setup),
    and Phi^+ = Phi^- + o g inside, o = 1 for a counterclockwise curve and
    -1 for a clockwise one (the sign of its enclosed area). With w = h a, a
    point takes Phi = sum Phi^+-_k w_k/(zeta_k - z) / den and
    Phi' = sum (Phi^+-_k - Phi) w_k/(zeta_k - z)^2 / den, den the sum of
    w_k/(zeta_k - z), less o 2pi i outside. Numerator and denominator carry
    the same quadrature error near the curve, so the quotient stays at
    rounding level at any distance. Each sum is one BLAS product per point
    (_row_sums), and the point-only arithmetic is real, so a row is bitwise
    the same in any block.
    """
    setup = X.derived(_cauchy_setup)
    zeta, w, center = setup.zeta, setup.w, setup.center
    inside = _inside(X, z, nearest, dist, setup)

    u, p = np.empty((len(z), 2)), np.empty(len(z))
    step = max(1, _BLOCK_ENTRIES // len(zeta))
    work = np.empty((4, min(step, len(z)), len(zeta)), dtype=complex)
    for side, (phi, q, shift) in zip((inside, ~inside), setup.sides):
        group = np.flatnonzero(side)
        for lo in range(0, len(group), step):
            idx = group[lo:lo + step]
            W, R, Ea, Eb = work[:, : len(idx)]
            W[:] = zeta
            W -= z[idx, None]
            np.divide(1.0, W, out=R)
            den, na, nb = _row_sums(R, q).T
            den.imag -= shift
            fa, fb = _quotient(na, den), _quotient(nb, den)
            np.square(R, out=R)
            np.subtract(phi[:, 0], fa[:, None], out=Ea)
            np.subtract(phi[:, 1], fb[:, None], out=Eb)
            Eb -= np.multiply(np.conjugate(z[idx] - center)[:, None], Ea, out=W)
            Ea *= R
            Eb *= R
            da = _quotient(_row_sums(Ea, w[:, None])[:, 0], den)
            dG = _quotient(_row_sums(Eb, w[:, None])[:, 0], den)
            u[idx, 0], u[idx, 1] = -0.25 * (fa.imag + dG.imag), 0.25 * (fa.real - dG.real)
            p[idx] = da.imag
    return u, p


def _nearest_samples(X: CurveState, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each point's nearest sample (the lowest index on a tie) and
    its squared distance (x_j - x)^2 + (y_j - y)^2, bitwise an argmin over
    all N samples, by an exact two-level search.

    The samples are cut into runs of S = ceil(sqrt(N)) consecutive samples,
    the last run ending at sample N - 1 (it may overlap the one before).
    Every sample of a run lies within S // 2 samples, so within
    r = (S // 2) c (c = X.max_step), of the run's middle sample. The coarse
    level takes every point's squared distance to each middle sample; the
    smallest, D, is a real sample's. A run's samples lie at least the middle
    sample's distance less r away, and only the runs whose bound curve._kept
    keeps against D are evaluated in full (an overflowed D prunes nothing).
    A point's runs go in increasing sample order and no pair's arithmetic
    depends on which others are evaluated, so the first smallest value is at
    the lowest index, bit for bit.
    """
    n, size = X.n, math.isqrt(X.n - 1) + 1
    first = np.arange(0, n, size)  # each run's first sample
    first[-1] = n - size
    xy = X.x.values.T
    samples = np.concatenate([xy[:, : (len(first) - 1) * size], xy[:, n - size:]], axis=1).reshape(2, -1, size)
    middle = samples[:, None, :, size // 2]
    reach = (size // 2) * X.max_step
    pxy = points.T[:, :, None]
    nearest, d2 = np.empty(len(points), dtype=np.intp), np.empty(len(points))
    step = max(1, _BLOCK_ENTRIES // len(first))  # points per chunk
    pairs = max(1, _BLOCK_ENTRIES // size)  # (point, run) pairs per block of the fine level
    coarse = np.empty((2, min(step, len(points)), len(first)))
    index = np.empty(coarse.shape[1:], dtype=np.intp)
    fine = np.empty((2, min(pairs, index.size), size))
    for lo in range(0, len(points), step):
        q = pxy[:, lo:lo + step]
        w = np.subtract(middle, q, out=coarse[:, : q.shape[1]])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed square is inf, as in an all-pairs pass
            np.square(w, out=w)
            d = np.add(w[0], w[1], out=w[0])
            rows = np.arange(len(d))
            np.subtract(np.sqrt(d, out=w[1]), reach, out=w[1])  # a lower bound on each run's distance
            flat = np.flatnonzero(_kept(w[1], d.min(axis=1, keepdims=True)))  # (point, run) pairs
            for a in range(0, len(flat), pairs):
                pt, rn = np.divmod(flat[a:a + pairs], len(first))
                # rn is in range; "clip" spares the copy that "raise" makes with out
                e = np.take(samples, rn, axis=1, out=fine[:, : len(pt)], mode="clip")
                e -= q[:, pt]
                np.square(e, out=e)
                f = np.add(e[0], e[1], out=e[0])
                j = f.argmin(axis=1)  # ties resolve to the lowest index
                np.put(d, flat[a:a + pairs], f[np.arange(len(j)), j])
                np.put(index, flat[a:a + pairs], first[rn] + j)
        j = d.argmin(axis=1)
        nearest[lo:lo + step], d2[lo:lo + step] = index[rows, j], d[rows, j]
    return nearest, d2


def sample_flow(X: CurveState, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Velocity (P, 2) and pressure (P,) at P points; NaN rows on the curve.

    A point that coincides with a sample gets a NaN row; every other point,
    however near the curve or far from it, goes to the compensated Cauchy
    evaluator _cauchy_flow. The nearest sample of each point, which decides
    both, comes from the exact two-level search _nearest_samples. Raises
    ValueError, naming the first one, on a non-finite point.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(points).all():
        i = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
        raise ValueError(f"evaluation point {i} is not finite: ({points[i, 0]!r}, {points[i, 1]!r})")
    nearest, d2 = _nearest_samples(X, points)
    dist = np.sqrt(d2)

    u, p = np.full((len(points), 2), np.nan), np.full(len(points), np.nan)
    off = np.flatnonzero(dist > 0.0)
    if off.size:
        u[off], p[off] = _cauchy_flow(X, _complex(points)[off], nearest[off], dist[off])
    return u, p


def _at_point(X: CurveState, x: np.ndarray) -> tuple[np.ndarray, float]:
    u, p = sample_flow(X, x)
    if np.isnan(p[0]):
        raise OnCurvePointError("point coincides with a curve sample; use on_curve_velocity")
    return u[0], float(p[0])


def off_curve_velocity(X: CurveState, x: np.ndarray) -> np.ndarray:
    """Flow velocity at a point off the curve: sample_flow's one-point case.

    Raises OnCurvePointError at a sample and ValueError at a non-finite
    point."""
    return _at_point(X, x)[0]


def pressure_at(X: CurveState, x: np.ndarray) -> float:
    """Pressure at a point off the curve, in the zero-constant gauge (only
    pressure differences are physical): sample_flow's one-point case.

    Raises OnCurvePointError at a sample and ValueError at a non-finite
    point."""
    return _at_point(X, x)[1]


# ---------------------------------------------------------------------------
# dissipation and the nonstiff forcing
# ---------------------------------------------------------------------------

def dissipation_rate(X: CurveState, u: GridField | None = None) -> float:
    """Viscous dissipation of the reconstructed flow, as the boundary integral
    of u(X(s)) . X''(s).

    Equals the spatial integral of |grad u|^2, so it is nonnegative up to
    quadrature error. Pass u to reuse an already computed on-curve velocity.
    """
    if u is None:
        u = on_curve_velocity(X)
    products = np.einsum("ij,ij->i", u.values, X.xpp.values)
    return X.h * math.fsum(products.tolist())


def nonstiff_forcing(X: CurveState, u: GridField | None = None) -> GridField:
    """Nonstiff part of the string velocity: u + (1/4)(-Lap)^{1/2} X.

    The contour dynamics splits as X_t = -(1/4)(-Lap)^{1/2} X + this term;
    the identity u = -(1/4)(-Lap)^{1/2}X + nonstiff_forcing(X) holds by
    construction.
    """
    if u is None:
        u = on_curve_velocity(X)
    return GridField(u.values + 0.25 * fractional_laplacian_half(X.x).values)


# ---------------------------------------------------------------------------
# derivative of the nonstiff forcing: two forms of the integrand
# ---------------------------------------------------------------------------

def _tau_factor(tau: np.ndarray) -> np.ndarray:
    """(tau^2 - 4 sin^2(tau/2)) / (4 tau sin^2(tau/2)) with a series branch.

    Below |tau| = 1e-2 the direct form loses ~6 digits to cancellation; the
    Taylor series tau/12 + tau^3/240 + tau^5/6048 is exact to <1e-12 there.
    """
    tau = np.asarray(tau, dtype=float)
    out = np.empty_like(tau)
    small = np.abs(tau) < 1e-2
    ts = tau[small]
    out[small] = ts / 12.0 + ts**3 / 240.0 + ts**5 / 6048.0
    tl = tau[~small]
    sin2 = np.sin(tl / 2.0) ** 2
    out[~small] = (tl**2 - 4.0 * sin2) / (4.0 * tl * sin2)
    return out


def _forcing_derivative_rows(X: CurveState) -> Iterator[tuple]:
    """Row blocks (rows, gx, gy) of 4pi times the simplified integrand of the
    s-derivative of the nonstiff forcing.

    Closed form in the quotients L = w/tau, M = d/tau of _pair_blocks' chords
    (diagonal limits X', X'') and N = (L - X'(s))/tau, with b = X'(s); its
    continuous limit on the diagonal is zero. The tau factor and 1/tau depend
    only on s' - s, so they are tabulated once per pass. Each block is formed
    by a function of its own, whose temporaries are freed before the yield.
    """
    f_rows = _toeplitz_rows(_tau_factor(_torus_offsets(X.n)))
    inv_rows = _offset_rows(X.n)[1]
    for rows, diag, wx, wy, dx, dy, _ in _pair_blocks(X):
        yield rows, *_forcing_derivative_block(X, rows, diag, wx, wy, dx, dy, f_rows[rows], inv_rows[rows])


def _forcing_derivative_block(X: CurveState, rows: slice, diag: tuple, wx, wy, dx, dy, f, inv_tau) -> tuple:
    """(gx, gy) of _forcing_derivative_rows on one row block, as fresh arrays."""
    vp, vpp = X.xp.values, X.xpp.values
    ax, ay = vp[:, 0], vp[:, 1]
    bx, by = vp[rows, 0, None], vp[rows, 1, None]
    Lx, Ly, Mx, My = wx * inv_tau, wy * inv_tau, dx * inv_tau, dy * inv_tau
    Lx[diag], Ly[diag] = vp[rows, 0], vp[rows, 1]
    Mx[diag], My[diag] = vpp[rows, 0], vpp[rows, 1]
    inv = 1.0 / (Lx * Lx + Ly * Ly)
    # N = (L - X'(s))/tau off the diagonal (diagonal is overwritten to zero)
    Nx, Ny = (Lx - bx) * inv_tau, (Ly - by) * inv_tau
    LM, LN, La = Lx * Mx + Ly * My, Lx * Nx + Ly * Ny, Lx * ax + Ly * ay
    Lb, NM, Na = Lx * bx + Ly * by, Nx * Mx + Ny * My, Nx * ax + Ny * ay
    MM = Mx * Mx + My * My
    inv2, inv3 = inv**2, inv**3
    c_M = ((bx - Lx) * Nx + (by - Ly) * Ny) * inv - 2.0 * LN * Lb * inv2 - f
    c_b = (MM - 2.0 * NM) * inv + 2.0 * LN * LM * inv2
    c_L = (2.0 * LM * (LM - LN) * Lb * inv3 + 2.0 * (NM - MM) * Lb * inv2 - 6.0 * LM * La * LN * inv3
           + 2.0 * NM * La * inv2 + 2.0 * LM * Na * inv2)
    c_N = 2.0 * LM * La * inv2
    gx = c_M * Mx + c_b * bx + c_L * Lx + c_N * Nx
    gy = c_M * My + c_b * by + c_L * Ly + c_N * Ny
    gx[diag] = gy[diag] = 0.0  # continuous limit of the integrand at the diagonal
    return gx, gy


def _forcing_derivative_rows_direct(X: CurveState) -> Iterator[tuple]:
    """Row blocks (rows, gx, gy) of 4pi times the unsimplified integrand.

    Chain-rule expansion of the mixed derivative of the log kernel, minus the
    flat-space counterterm Id/(16 pi sin^2(tau/2)), applied to
    d = X'(s') - X'(s). The chord w = X(s') - X(s) and d come straight from
    the samples, not from L and M, so this form checks the simplified one
    independently. Its removable singularity is not implemented: the
    diagonal is NaN. sin^2(tau/2) is tabulated once per pass, and each
    block is formed by a function of its own.
    """
    sin2_rows = _toeplitz_rows(np.sin(_torus_offsets(X.n) / 2.0) ** 2)
    for rows, diag in _row_blocks(X.n):
        yield rows, *_forcing_derivative_block_direct(X, rows, diag, sin2_rows[rows].copy())


def _forcing_derivative_block_direct(X: CurveState, rows: slice, diag: tuple, sin2: np.ndarray) -> tuple:
    """(gx, gy) of _forcing_derivative_rows_direct on one row block; sin2 is
    the block's own copy of its sin^2(tau/2) rows."""
    v, vp = X.x.values, X.xp.values
    ax, ay = vp[:, 0], vp[:, 1]
    bx, by = vp[rows, 0, None], vp[rows, 1, None]
    wx, wy = v[:, 0] - v[rows, 0, None], v[:, 1] - v[rows, 1, None]
    dx, dy = ax - bx, ay - by
    r2 = wx * wx + wy * wy
    r2[diag] = sin2[diag] = np.nan
    inv = 1.0 / r2
    wa = wx * ax + wy * ay
    wb = wx * bx + wy * by
    wd = wx * dx + wy * dy
    ab = ax * bx + ay * by
    ad = ax * dx + ay * dy
    bd = bx * dx + by * dy
    # the kernel part collected by vector: c_d d + c_a a + c_b b + c_w w
    c_d = -ab * inv + 2.0 * wa * wb * inv**2 - 0.25 / sin2
    c_a = bd * inv - 2.0 * wb * wd * inv**2
    c_b = ad * inv - 2.0 * wa * wd * inv**2
    c_w = -2.0 * (wb * ad + ab * wd + wa * bd) * inv**2 + 8.0 * wa * wb * wd * inv**3
    return c_d * dx + c_a * ax + c_b * bx + c_w * wx, c_d * dy + c_a * ay + c_b * by + c_w * wy


def forcing_derivative_quadrature(X: CurveState) -> GridField:
    """Trapezoid of the simplified integrand: the s-derivative of the forcing.

    The integrand is smooth on the whole torus (zero diagonal limit), so the
    rule is spectrally accurate; cross-checks the spectral derivative of
    nonstiff_forcing.
    """
    out = np.empty((X.n, 2))
    for rows, gx, gy in _forcing_derivative_rows(X):
        out[rows, 0], out[rows, 1] = gx.sum(axis=1), gy.sum(axis=1)
    return GridField(X.h * out / _FOUR_PI)
