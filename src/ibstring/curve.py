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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .spectral import GridField, NonFiniteFieldError, derivative, sobolev_seminorm

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


_T = TypeVar("_T")


@dataclass(frozen=True)
class CurveState:
    """Sampled string configuration; X', X'', the well-stretched constant
    and the signed area are computed on first read.

    A derivative that overflows raises NonFiniteFieldError at that read.
    The well-stretched pass leaves per-offset chord bounds on the state,
    which seed_well_stretched hands to a later state's pass.
    """

    x: GridField

    def __post_init__(self) -> None:
        # memo of derived() keyed by builder
        object.__setattr__(self, "_derived", {})
        # the _ChordBounds the well-stretched pass starts from, then the ones it leaves
        object.__setattr__(self, "_chords", None)

    @cached_property
    def xp(self) -> GridField:
        """X'."""
        return derivative(self.x, 1)

    @cached_property
    def xpp(self) -> GridField:
        """X''."""
        return derivative(self.x, 2)

    @cached_property
    def well_stretched(self) -> float:
        """The well-stretched constant (see well_stretched_constant)."""
        return _well_stretched_pass(self)

    @cached_property
    def max_step(self) -> float:
        """An upper bound on c = max_j |X(s_j+1) - X(s_j)|, the largest chord
        between consecutive samples (s_N = s_0): the computed root moved up
        by _safe, or inf when a square overflows. Samples k apart are at
        most |k| c apart; the well-stretched pass and the off-curve
        nearest-sample search both bound chords with it."""
        v = self.x.values
        step = np.concatenate([v[1:], v[:1]]) - v
        return _safe(float(np.sqrt(np.max(step[:, 0] * step[:, 0] + step[:, 1] * step[:, 1]))), 1)

    @cached_property
    def area(self) -> float:
        """The signed area, unchecked (see enclosed_area)."""
        return _signed_area(self)

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def h(self) -> float:
        return self.x.h

    @property
    def s(self) -> np.ndarray:
        return self.x.s

    def seed_well_stretched(self, other: CurveState) -> None:
        """Start this state's well-stretched pass from the chord bounds
        other's pass left (or was seeded with), unless this state holds its
        own.

        Only the work of the pass depends on the seed, never its value; a
        seed from another N is ignored.
        """
        if self._chords is None:
            object.__setattr__(self, "_chords", other._chords)

    def derived(self, build: Callable[[CurveState], _T]) -> _T:
        """build(self), memoized by build: curve-only work that another
        module derives from the samples, held on the state like X' (the
        off-curve evaluator's setup, stokeslet._cauchy_setup)."""
        cached = self._derived.get(build)
        if cached is None:
            cached = self._derived[build] = build(self)
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


def _offset_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, N) Toeplitz views (_toeplitz_rows) of the torus offset tau of every
    pair and of 1/tau, which is 0 on the diagonal."""
    tau = _torus_offsets(n)
    inv = np.zeros_like(tau)
    np.divide(1.0, tau, out=inv, where=tau != 0.0)
    return _toeplitz_rows(tau), _toeplitz_rows(inv)


def _row_blocks(n: int):
    """Yield (rows, diag) for each row block of the pair matrices; diag
    indexes the block's diagonal entries."""
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, n))
        cols = np.arange(rows.start, rows.stop)
        yield rows, (cols - start, cols)


def _workspace(k: int, n: int) -> np.ndarray:
    """k row-block arrays for every block of a pass to reuse: fresh (rows, N)
    arrays per block cost thousands of page faults once the heap is trimmed."""
    return np.empty((k, min(_BLOCK_ROWS, n), n))


def _pair_blocks(X: CurveState) -> Iterator[tuple]:
    """Row blocks of the chords w = X(s') - X(s), d = X'(s') - X'(s) and |w|^2.

    Yields (rows, diag, wx, wy, dx, dy, w2) as (rows, N) arrays, diag as in
    _row_blocks; the next block overwrites them. At the diagonal entries
    `diag` w = d = 0 and w2 = inf, so 1/|w|^2 = 0.
    Raises DegenerateCurveError on an off-diagonal |w|^2 <= 0 or a diagonal
    |X'|^2 <= 0.
    """
    (x, y), (ax, ay) = X.x.values.T.copy(), X.xp.values.T.copy()
    speed_sq = ax * ax + ay * ay
    work = _workspace(5, X.n)
    for rows, diag in _row_blocks(X.n):
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
        yield rows, diag, wx, wy, dx, dy, w2


# From N = 512 up the well-stretched pass evaluates only the torus offsets a
# lower bound cannot exclude; without carried bounds it starts from every S-th
# offset, S = N/64. Below 512 it evaluates every offset.
_PRUNE_MIN_N = 512
_COARSE_OFFSETS = 64
# Refinement runs separated by at most this many pairs (gap times N) are merged:
# evaluating the gap costs less than one more pass of the run loop.
_MERGE_PAIRS = 4096


def _min_chord_sq(windows: np.ndarray, xy: np.ndarray, offsets: range, min_w2: np.ndarray,
                  work: np.ndarray) -> None:
    """min_w2[k - 1] = min_j |X(s_j+k) - X(s_j)|^2 for each torus offset k in offsets.

    windows[c, k, j] = xy[c, j + k] on the doubled samples, and work is a (3,
    rows, N) scratch array that sets how many offsets one block takes.
    """
    for i in range(0, len(offsets), work.shape[1]):
        part = offsets[i: i + work.shape[1]]
        w, w2 = work[:2, : len(part)], work[2, : len(part)]
        np.subtract(windows[:, part.start: part.stop: part.step], xy[:, None, :], out=w)
        np.square(w, out=w)
        np.add(w[0], w[1], out=w2)
        np.min(w2, axis=1, out=min_w2[part.start - 1: part.stop - 1: part.step])


def well_stretched_constant(X: CurveState) -> float:
    """Smallest chord-to-torus-distance ratio over all distinct sample pairs.

    Positive for non-self-intersecting configurations; values near zero flag
    degeneracy at grid resolution, and it is 0 when two samples coincide or
    the tangent vanishes at one. The pass runs once per state, on the first
    call, and the value is held on X like X' and X''.
    """
    return X.well_stretched


_MARGIN = 1e-12  # the exact pruned searches' rounding discipline: see _safe
_PRUNE_FLOOR = 1e-250  # see _kept


def _safe(value, side: int, scale=0.0):
    """value moved to its safe side, up for side = 1 and down for -1, by a
    relative _MARGIN, far past the rounding of a computed root, constant or
    combined bound (a few ulp per operation, at most N eps for an N-term sum
    below N = 4,000), and by a further _MARGIN times scale."""
    return value * (1.0 + side * _MARGIN) + side * _MARGIN * scale


def _kept(lower, best_sq):
    """False only where lower exceeds the root of best_sq, the smallest
    square found, floored at _PRUNE_FLOOR (smaller squares may have lost to
    underflow the accuracy _MARGIN assumes) and moved up. A candidate dropped
    so is neither the minimum nor a tie; a NaN bound drops nothing."""
    return ~(lower > _safe(np.sqrt(np.maximum(best_sq, _PRUNE_FLOOR)), 1))


class _ChordBounds(NamedTuple):
    """What a well-stretched pass leaves on its state for a later state's pass.

    root[k - 1] is a lower bound on min_j |X(s_j+k) - X(s_j)| for the samples
    x, k = 1 .. N/2: the computed root, moved down by _safe, where the pass
    evaluated k, and the bound it skipped k with elsewhere. argmin is the
    offset where the smallest ratio fell. Arrays only, so a state never holds
    another state.
    """

    x: np.ndarray
    root: np.ndarray
    argmin: int


def _well_stretched_pass(X: CurveState) -> float:
    """well_stretched_constant's pass over the torus offsets.

    Offset k = 1 .. N/2, each counted once, has the ratio min_j |w|^2 times the
    scalar (1/tau_k)^2, w = X(s_j+k) - X(s_j) and tau_k as in _torus_offsets.
    Since fl(a c) is monotone in a for c > 0, the minimum over the offsets is
    bitwise the minimum over all pairs of |w|^2 (1/tau)^2. Below N = 512 the
    pass evaluates every offset; from 512 up it prunes them (_pruned_pass).
    """
    seed = X._chords
    object.__setattr__(X, "_chords", None)
    vp = X.xp.values
    if float((vp[:, 0] * vp[:, 0] + vp[:, 1] * vp[:, 1]).min()) <= 0.0:
        return 0.0
    n, m = X.n, X.n // 2
    xy = X.x.values.T.copy()
    doubled = np.concatenate([xy, xy], axis=1)
    row, col = doubled.strides
    windows = as_strided(doubled, (2, n, n), (row, col, col), writeable=False)  # [c, k, j] = xy[c, j + k]
    inv_tau = 1.0 / (np.arange(1, m + 1) * (2.0 * np.pi / n))
    min_w2 = np.full(m, np.inf)  # stays inf at the offsets the bound skips
    rows = max(1, _BLOCK_ROWS * 1024 // n)  # offsets per block: cache-sized, few blocks at small N
    work = np.empty((3, min(rows, m), n))
    if n < _PRUNE_MIN_N:
        _min_chord_sq(windows, xy, range(1, m + 1), min_w2, work)
    else:
        _pruned_pass(X, seed, windows, xy, inv_tau, min_w2, work)
    lam_sq = float(np.min(inv_tau * inv_tau * min_w2))
    return float(np.sqrt(lam_sq)) if lam_sq > 0.0 else 0.0


def _pruned_pass(X: CurveState, seed: _ChordBounds | None, windows: np.ndarray, xy: np.ndarray,
                 inv_tau: np.ndarray, min_w2: np.ndarray, work: np.ndarray) -> None:
    """Fill min_w2 (as _min_chord_sq) at every offset that can hold the
    smallest ratio, leaving inf at the others, and leave X's _ChordBounds.

    Each offset gets a lower bound on its min_j |w|, and after a first level
    of offsets the pass evaluates, in contiguous runs, only those whose bound
    times 1/tau_k _kept keeps against the smallest ratio of that level, so
    the minimum is bitwise the full pass's. The first level and the bounds
    come from one of two sources:

    - The seed, bounds carried from another state with the same N (a run
      hands each state the last observed state's, see seed_well_stretched).
      By the triangle inequality min_j |w_Y(k)| >= min_j |w_X(k)| - 2 max_j
      |Y_j - X_j|, so each carried bound is lowered by twice the largest
      displacement (moved up). The first level is the offset where the
      carried state's minimum fell; it must be that offset, because the
      bounds of small offsets fall to 0 within a few steps.
    - Otherwise the coarse level k = S, 2S, .. and N/2, S = N/64. For any
      offsets k and k', min_j |w(k')| >= sqrt(min_j |w(k)|^2) - |k' - k| c,
      with c = X.max_step, the bound on the largest chord between
      consecutive samples, and each skipped offset takes the larger of the
      bounds from its nearest coarse offset on either side (offset 0, whose
      chord is zero, below S).
    """
    n, m = X.n, len(min_w2)
    done = np.zeros(m, dtype=bool)

    def evaluate(offsets: range) -> None:
        _min_chord_sq(windows, xy, offsets, min_w2, work)
        done[offsets.start - 1: offsets.stop - 1: offsets.step] = True

    def roots() -> np.ndarray:
        # an overflowed min |w|^2 still bounds |w| below by sqrt of the largest
        # double; one below _PRUNE_FLOOR may have lost its accuracy to underflow
        root = _safe(np.sqrt(np.minimum(min_w2, np.finfo(float).max)), -1)
        return np.where(min_w2 < _PRUNE_FLOOR, 0.0, root)

    if seed is not None and seed.x.shape == X.x.values.shape:
        with np.errstate(over="ignore"):  # an overflowed displacement bounds nothing: every offset is evaluated
            moved = X.x.values - seed.x
            drift = _safe(float(np.sqrt(np.max(np.einsum("ij,ij->i", moved, moved)))), 1)
        lb = seed.root - 2.0 * drift
        evaluate(range(seed.argmin, seed.argmin + 1))
    else:
        stride = n // _COARSE_OFFSETS
        evaluate(range(stride, m + 1, stride))
        if m % stride:
            evaluate(range(m, m + 1))
        k = np.arange(1, m + 1)
        left = k - k % stride  # the nearest coarse offsets; offset 0 has the zero chord
        right = np.minimum(left + stride, m)
        root, c = np.concatenate(([0.0], roots())), X.max_step
        lb = np.maximum(root[left] - (k - left) * c, root[right] - (right - k) * c)
    lb = _safe(np.maximum(lb, 0.0), -1)  # shrunk on every state, so rounding cannot pile up over a run
    k = np.flatnonzero(~done & _kept(lb * inv_tau, np.min(inv_tau * inv_tau * min_w2))) + 1
    if k.size:
        breaks = (np.flatnonzero(np.diff(k) > 1 + _MERGE_PAIRS // n) + 1).tolist()  # where runs start
        for a, b in zip([0, *breaks], [*breaks, k.size]):
            evaluate(range(k[a], k[b - 1] + 1))
    argmin = int(np.argmin(inv_tau * inv_tau * min_w2))
    object.__setattr__(X, "_chords", _ChordBounds(X.x.values, np.where(done, roots(), lb), argmin + 1))


def _signed_area(X: CurveState) -> float:
    """(1/2) * integral of X x X' by the trapezoid rule."""
    v, vp = X.x.values, X.xp.values
    cross = v[:, 0] * vp[:, 1] - v[:, 1] * vp[:, 0]
    return 0.5 * X.h * float(np.sum(cross))


def enclosed_area(X: CurveState) -> float:
    """Signed enclosed area (1/2) * integral of X x X' via trapezoid rule,
    computed once per state and held on X as X.area.

    Raises OrientationError when nonpositive (curve must be positively
    oriented and embedded at grid resolution) and NonFiniteFieldError when
    the products of X and X' overflow.
    """
    area = X.area
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
