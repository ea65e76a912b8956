"""Closed-string configurations and their geometry.

A CurveState holds N uniform samples of a closed planar curve X on the torus;
its first two spectral derivatives are computed on first read. Geometry
helpers: the row-blocked chords of X and X' over all sample pairs, the
well-stretched constant, enclosed area, effective radius and the elastic
(stretching) energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import GridField, NonFiniteFieldError, derivative, resample, sobolev_seminorm

__all__ = [
    "CurveState",
    "PerturbationMode",
    "OrientationError",
    "DegenerateCurveError",
    "well_stretched_constant",
    "enclosed_area",
    "effective_radius",
    "elastic_energy",
    "make_circle",
    "make_perturbed_circle",
    "make_reparam_circle",
]


class OrientationError(ValueError):
    """Enclosed area came out nonpositive: reversed or self-intersecting curve."""


class DegenerateCurveError(ValueError):
    """Two samples coincide (or the tangent X' vanished) at grid resolution."""


@dataclass(frozen=True)
class CurveState:
    """Sampled string configuration; X' and X'' are computed on first read.

    A derivative that overflows raises NonFiniteFieldError at that read.
    """

    x: GridField

    def __post_init__(self) -> None:
        # memo for band-limited upsamplings, keyed by factor (pure refinement)
        object.__setattr__(self, "_upsampled", {})

    @cached_property
    def xp(self) -> GridField:
        """X'."""
        return derivative(self.x, 1)

    @cached_property
    def xpp(self) -> GridField:
        """X''."""
        return derivative(self.x, 2)

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def h(self) -> float:
        return self.x.h

    @property
    def s(self) -> np.ndarray:
        return self.x.s

    def upsampled(self, factor: int) -> tuple[np.ndarray, np.ndarray]:
        """Samples (X, X') on a factor-times finer grid via zero-padded FFT.

        Exact for the band-limited curve the samples define; used by near-curve
        quadrature. Returns arrays of shape (factor*N, 2).
        """
        cached = self._upsampled.get(factor)
        if cached is None:
            m = factor * self.n
            cached = (resample(self.x, m), resample(self.xp, m))
            self._upsampled[factor] = cached
        return cached


# Rows per block of the pair matrices, so that each (rows, N) float64
# temporary stays cache-sized. On a 2-core Xeon (2 MB L2 per core) the on-curve
# velocity at N = 1024 took 21-26 ms with 16 or 32 rows, 24-30 with 8 or 64 and
# 29-31 with 128; at N = 256, 32 rows beat 16 (2.0 vs 2.5 ms; medians of 21).
_BLOCK_ROWS = 32


def _torus_offsets(n: int) -> np.ndarray:
    """wrap(k h) for k = 1 - N .. N - 1, the torus offset s' - s of every pair.

    The offset is wrapped in integers, so |tau| is the torus distance exactly
    up to the one rounding of the product with h.
    """
    return ((np.arange(1 - n, n) + n // 2) % n - n // 2) * (2.0 * np.pi / n)


def _toeplitz_rows(table: np.ndarray) -> np.ndarray:
    """(N, N) zero-copy view of a function of j' - j tabulated like
    _torus_offsets: row j is the window table[N-1-j : 2N-1-j]."""
    return sliding_window_view(table, (len(table) + 1) // 2)[::-1]


def _row_blocks(n: int):
    """Yield (rows, diag, tau, inv_tau) for each row block of the pair matrices.

    diag indexes the block's diagonal entries; inv_tau is 0 there. Both
    matrices are windows on one table of torus offsets (_toeplitz_rows).
    """
    tau = _torus_offsets(n)
    inv = np.zeros_like(tau)
    np.divide(1.0, tau, out=inv, where=tau != 0.0)
    tau_rows, inv_rows = _toeplitz_rows(tau), _toeplitz_rows(inv)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        cols = np.arange(rows.start, rows.stop)
        yield rows, (cols - start, cols), tau_rows[rows], inv_rows[rows]


def _workspace(k: int, n: int) -> np.ndarray:
    """k row-block arrays for every block of a pass to reuse: fresh (rows, N)
    arrays per block cost thousands of page faults once the heap is trimmed."""
    return np.empty((k, min(_BLOCK_ROWS, n), n))


def _pair_blocks(X: CurveState) -> Iterator[tuple]:
    """Row blocks of the chords w = X(s') - X(s), d = X'(s') - X'(s) and |w|^2.

    Yields (rows, diag, wx, wy, dx, dy, w2, tau, inv_tau) as (rows, N) arrays;
    the next block overwrites all but tau and inv_tau (as in _row_blocks).
    At the diagonal entries `diag` w = d = 0 and w2 = inf, so 1/|w|^2 = 0.
    Raises DegenerateCurveError on an off-diagonal |w|^2 <= 0 or a diagonal
    |X'|^2 <= 0.
    """
    (x, y), (ax, ay) = X.x.values.T.copy(), X.xp.values.T.copy()
    speed_sq = ax * ax + ay * ay
    work = _workspace(5, X.n)
    for rows, diag, tau, inv_tau in _row_blocks(X.n):
        wx, wy, dx, dy, w2 = work[:, : rows.stop - rows.start]
        for chord, c in ((wx, x), (wy, y)):
            np.subtract(c, c[rows, None], out=chord)
        np.multiply(wx, wx, out=w2)
        w2 += np.multiply(wy, wy, out=dx)
        for chord, c in ((dx, ax), (dy, ay)):
            np.subtract(c, c[rows, None], out=chord)
        w2[diag] = np.inf
        if float(w2.min()) <= 0.0 or float(speed_sq[rows].min()) <= 0.0:
            raise DegenerateCurveError("coincident samples: curve degenerate at grid resolution")
        yield rows, diag, wx, wy, dx, dy, w2, tau, inv_tau


def well_stretched_constant(X: CurveState) -> float:
    """Smallest chord-to-torus-distance ratio over all distinct sample pairs.

    Positive for non-self-intersecting configurations; values near zero flag
    degeneracy at grid resolution, and it is 0 when two samples coincide or
    the tangent vanishes at one.

    The pass runs over the torus offsets k = 1 .. N/2, each counted once:
    offset k's chords X(s_j+k) - X(s_j) are a zero-copy window on the doubled
    samples minus the samples, and its ratio is min_j |w|^2 times the scalar
    (1/tau_k)^2, tau_k as in _torus_offsets. Since fl(a c) is monotone in a
    for c > 0, this is bitwise the minimum over all pairs of |w|^2 (1/tau)^2.
    """
    vp = X.xp.values
    if float((vp[:, 0] * vp[:, 0] + vp[:, 1] * vp[:, 1]).min()) <= 0.0:
        return 0.0
    n, m = X.n, X.n // 2
    xy = X.x.values.T.copy()
    windows = sliding_window_view(np.concatenate([xy, xy], axis=1), n, axis=1)  # [c, k, j] = xy[c, j + k]
    inv_tau = 1.0 / (np.arange(1, m + 1) * (2.0 * np.pi / n))
    min_w2 = np.empty(m)
    step = max(1, _BLOCK_ROWS * 1024 // n)  # offsets per block: cache-sized, few blocks at small N
    work = np.empty((3, min(step, m), n))
    for lo in range(1, m + 1, step):
        hi = min(lo + step, m + 1)
        w, w2 = work[:2, : hi - lo], work[2, : hi - lo]
        np.subtract(windows[:, lo:hi], xy[:, None, :], out=w)
        np.square(w, out=w)
        np.add(w[0], w[1], out=w2)
        np.min(w2, axis=1, out=min_w2[lo - 1: hi - 1])
    lam_sq = float(np.min(inv_tau * inv_tau * min_w2))
    return float(np.sqrt(lam_sq)) if lam_sq > 0.0 else 0.0


def enclosed_area(X: CurveState) -> float:
    """Signed enclosed area (1/2) * integral of X x X' via trapezoid rule.

    Raises OrientationError when nonpositive (curve must be positively
    oriented and embedded at grid resolution) and NonFiniteFieldError when
    the products of X and X' overflow.
    """
    v, vp = X.x.values, X.xp.values
    cross = v[:, 0] * vp[:, 1] - v[:, 1] * vp[:, 0]
    area = 0.5 * X.h * float(np.sum(cross))
    if not np.isfinite(area):
        raise NonFiniteFieldError("enclosed area of the samples overflows")
    if area <= 0:
        raise OrientationError(f"nonpositive enclosed area {area:g}")
    return area


def effective_radius(X: CurveState) -> float:
    """Radius of the disk with the same enclosed area."""
    return float(np.sqrt(enclosed_area(X) / np.pi))


def elastic_energy(X: CurveState) -> float:
    """Hookean stretching energy (1/2) * ||X'||_{L2}^2."""
    return 0.5 * sobolev_seminorm(X.x, 1.0) ** 2


def make_circle(
    n: int,
    radius: float = 1.0,
    theta: float = 0.0,
    center: Sequence[float] = (0.0, 0.0),
) -> CurveState:
    """Uniformly parameterized circle (R cos(s+theta), R sin(s+theta)) + center."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    s = 2.0 * np.pi * np.arange(n) / n
    x = np.stack(
        [radius * np.cos(s + theta) + center[0], radius * np.sin(s + theta) + center[1]],
        axis=1,
    )
    return CurveState(GridField(x))


@dataclass(frozen=True)
class PerturbationMode:
    """One cosine mode added to a circle: (a_x cos(ks + p_x), a_y cos(ks + p_y))."""

    k: int
    amp_x: float = 0.0
    amp_y: float = 0.0
    phase_x: float = 0.0
    phase_y: float = 0.0


def make_perturbed_circle(
    n: int,
    radius: float = 1.0,
    modes: Iterable[PerturbationMode] = (),
) -> CurveState:
    """Circle of the given radius plus a sum of cosine perturbation modes."""
    base = make_circle(n, radius).x.values.copy()
    s = 2.0 * np.pi * np.arange(n) / n
    for mode in modes:
        base[:, 0] += mode.amp_x * np.cos(mode.k * s + mode.phase_x)
        base[:, 1] += mode.amp_y * np.cos(mode.k * s + mode.phase_y)
    return CurveState(GridField(base))


def make_reparam_circle(n: int, radius: float = 1.0, beta: float = 0.0) -> CurveState:
    """Circle traversed at non-uniform speed: s -> s + beta sin(s), |beta| < 1.

    The image is the exact circle, but the parameterization is stretched
    unevenly, so the configuration is out of equilibrium.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not abs(beta) < 1.0:
        raise ValueError(f"|beta| must be < 1 for a bijective reparameterization, got {beta}")
    s = 2.0 * np.pi * np.arange(n) / n
    phi = s + beta * np.sin(s)
    x = np.stack([radius * np.cos(phi), radius * np.sin(phi)], axis=1)
    return CurveState(GridField(x))
