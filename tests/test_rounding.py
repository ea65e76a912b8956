"""The rounding discipline of the exact pruned searches (curve._safe and
curve._kept) against exact rational arithmetic, and each search's use of it:
every computed root, constant or combined bound lies on its safe side of the
exact value it bounds, on inputs where the unmoved float value does not."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ibstring import CurveState, GridField, StepperConfig, make_circle, run, well_stretched_constant
from ibstring import acceptance
from ibstring.acceptance import _PHASE_STRIDE, _PHASES, _theta_grid_search, _theta_objective
from ibstring.curve import _MARGIN, _PRUNE_FLOOR, _ChordBounds, _kept, _safe
from ibstring.equilibrium import closest_equilibrium
from ibstring.stokeslet import _cauchy_setup

from conftest import random_smooth_curve, relax_curve
from test_pair_kernel import full_pair_well_stretched_constant

# a value _safe moves lies at least half the margin past the exact value
HALF = Fraction(_MARGIN) / 2


def exact_sq(a, b) -> Fraction:
    """|b - a|^2 of two float points, exactly."""
    dx, dy = Fraction(b[0]) - Fraction(a[0]), Fraction(b[1]) - Fraction(a[1])
    return dx * dx + dy * dy


def exact_chord_sq(v: np.ndarray, k: int, largest: bool = False) -> Fraction:
    """The exact smallest (or largest) |v[j + k] - v[j]|^2 over j. Only the
    pairs whose float square lies within 1e-6 of the float extreme can hold
    the exact one."""
    d = np.roll(v, -k, axis=0) - v
    w2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    extreme = np.max(w2) if largest else np.min(w2)
    near = np.flatnonzero(np.abs(w2 - extreme) <= 1e-6 * extreme)
    chords = (exact_sq(v[j], v[(j + k) % len(v)]) for j in near)
    return max(chords) if largest else min(chords)


def at_most_root(x: float, e: Fraction) -> bool:
    """x <= sqrt(e), exactly."""
    return x <= 0.0 or Fraction(x) ** 2 <= e


def sample_curves():
    rng = np.random.default_rng(7)
    return [random_smooth_curve(rng, n) for n in (64, 128, 256) for _ in range(4)] + [relax_curve(1)]


# ---------------------------------------------------------------------------
# the helper
# ---------------------------------------------------------------------------

class TestSafe:
    def test_moves_past_the_exact_value(self, rng):
        # normal doubles from 1e-300 to 1e300
        for x in [1.0, 0.1, 2.0**-1000, *(rng.uniform(1.0, 10.0, 300) * 10.0 ** rng.integers(-300, 300, 300))]:
            scale = x * rng.uniform(0.0, 1e3)
            assert Fraction(_safe(x, 1)) >= Fraction(x) * (1 + HALF)
            assert Fraction(_safe(x, -1)) <= Fraction(x) * (1 - HALF)
            assert Fraction(_safe(x, -1, scale)) <= Fraction(x) * (1 - HALF) - HALF * Fraction(scale)


class TestKept:
    @pytest.mark.parametrize("best_sq", [1.0, 2.0, 0.3, 7e250, 3e-200, 1.5e-250, 1e-240])
    def test_drops_only_candidates_past_the_root_of_the_best(self, best_sq):
        root = math.sqrt(best_sq)
        lowers = [root * (1.0 + t * _MARGIN) for t in (-2, -1, -0.5, 0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3)]
        above = root
        for _ in range(4):  # the next doubles past the root
            above = float(np.nextafter(above, np.inf))
            lowers.append(above)
        kept = _kept(np.array(lowers), best_sq)
        for lower, keep in zip(lowers, kept):
            assert keep or Fraction(lower) ** 2 > Fraction(best_sq) * (1 + HALF) ** 2
        assert not kept.all()  # a rule that drops nothing passes the check above

    @pytest.mark.parametrize("best_sq", [0.0, 5e-324, 1e-310, 1e-300, 1e-260])
    def test_never_drops_against_squares_below_the_floor(self, best_sq):
        # such squares may have underflowed: their roots carry no relative accuracy
        floor_root = math.sqrt(_PRUNE_FLOOR)
        lowers = np.array([2.0 * math.sqrt(best_sq), 0.5 * floor_root, floor_root])
        assert _kept(lowers, best_sq).all()
        assert not _kept(np.array([1.1 * floor_root]), best_sq).any()

    def test_a_nan_bound_drops_nothing(self):
        assert _kept(np.array([np.nan, 1.0]), 0.25).tolist() == [True, False]
        assert _kept(np.array([1.0, 1e300]), np.nan).all()
        assert _kept(np.array([np.inf]), np.inf).all()

    def test_rows_against_their_own_best(self):
        # the nearest-sample search hands one best square per point
        lowers = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert _kept(lowers, np.array([[1.0], [4.0]])).tolist() == [[True, False, False], [True, True, False]]


# ---------------------------------------------------------------------------
# the constants and bounds each search moves
# ---------------------------------------------------------------------------

def test_max_step_bounds_every_consecutive_chord():
    short = 0  # curves whose unmoved root falls below the exact largest chord
    for X in sample_curves():
        v = X.x.values
        largest = exact_chord_sq(v, 1, largest=True)
        assert Fraction(X.max_step) ** 2 >= largest
        d = np.roll(v, -1, axis=0) - v
        short += Fraction(float(np.sqrt(np.max(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))) ** 2 < largest
    assert short


def test_off_curve_disc_holds_every_sample_with_room_for_a_step():
    short = 0  # curves whose unmoved radius falls below the exact one
    for X in sample_curves():
        setup = _cauchy_setup(X)
        center = (setup.disc_center.real, setup.disc_center.imag)
        v = X.x.values
        d = np.hypot(v[:, 0] - center[0], v[:, 1] - center[1])
        farthest = max(exact_sq(center, v[j]) for j in np.flatnonzero(d >= np.max(d) * (1 - 1e-6)))
        room = Fraction(setup.disc_radius) - Fraction(X.max_step)
        assert room >= 0 and room**2 >= farthest
        unmoved = Fraction(float(np.max(np.abs(v[:, 0] + 1j * v[:, 1] - setup.disc_center))) + X.max_step)
        short += (unmoved - Fraction(X.max_step)) ** 2 < farthest
    assert short


def assert_chord_bounds_hold(X: CurveState) -> int:
    """Every bound X's well-stretched pass left is at most the exact
    smallest chord at its offset. Returns the number of evaluated offsets
    whose unmoved computed root exceeds that chord."""
    v, bounds = X.x.values, X._chords
    over = 0
    for k in range(1, X.n // 2 + 1):
        smallest = exact_chord_sq(v, k)
        assert at_most_root(bounds.root[k - 1], smallest), k
        d = np.roll(v, -k, axis=0) - v
        unmoved = float(np.sqrt(np.min(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))
        over += bounds.root[k - 1] == _safe(unmoved, -1) and not at_most_root(unmoved, smallest)
    return over


def seeded_with(x: np.ndarray, y: np.ndarray, root: np.ndarray) -> CurveState:
    """A state of the samples x whose pass starts from bounds root on the
    samples y, with the smallest bounded ratio as the first level."""
    source = CurveState(GridField(y))
    argmin = int(np.argmin(root / np.arange(1, len(root) + 1))) + 1
    object.__setattr__(source, "_chords", _ChordBounds(y, root, argmin))
    X = CurveState(GridField(x))
    X.seed_well_stretched(source)
    return X


class TestCarriedChordBounds:
    def test_bounds_left_by_a_run_hold(self):
        # the first state takes the coarse level, the others the carried bounds
        res = run(relax_curve(2, 512), StepperConfig(dt=0.01, t_end=0.05, snapshot_every=1))
        over = 0
        for _, _, X in res.snapshots:
            assert well_stretched_constant(X) == full_pair_well_stretched_constant(X)
            over += assert_chord_bounds_hold(X)
        assert over

    @pytest.mark.parametrize("scale", [1e-155, 1e-157])
    def test_bounds_on_subnormal_squares_hold(self, scale):
        # the squares of the shortest chords are subnormal, so they lost their
        # relative accuracy to underflow: on this curve 3 (at 1e-155) and 143
        # (at 1e-157) of their moved roots would lie above the exact chords
        X = CurveState(GridField(relax_curve(1, 512).x.values * scale))
        assert well_stretched_constant(X) == full_pair_well_stretched_constant(X)
        assert_chord_bounds_hold(X)

    def test_every_state_shrinks_the_carried_bounds(self):
        # bounds that equal the exact chords, carried to a state where sample 0
        # moved 2^-70 towards sample k: twice that, subtracted from the bound at
        # k, is lost to rounding, so only the shrink keeps it below the new chord
        n, k = 512, 100
        y = chord_on_the_x_axis(relax_curve(1, n).x.values, k)
        root = np.array([tight_root(exact_chord_sq(y, i)) for i in range(1, n // 2 + 1)])
        x = y.copy()
        x[0] = (-(2.0**-70), 0.0)
        assert root[k - 1] - 2.0 * _safe(2.0**-70, 1) == root[k - 1]
        assert not at_most_root(root[k - 1], exact_chord_sq(x, k))
        X = seeded_with(x, y, root)
        assert well_stretched_constant(X) == full_pair_well_stretched_constant(X)
        assert_chord_bounds_hold(X)

    def test_carried_bounds_drop_by_twice_the_exact_drift(self):
        # bounds just above twice the displacement of a moved curve, so that
        # the bound left at each skipped offset nearly cancels; two samples
        # a step 1e-13 apart keep the smallest ratio tiny, so every other
        # offset is skipped. The computed length of the displacement rounds
        # below the exact one.
        n, step = 512, np.array([0.000421875, 0.000734375])
        y = relax_curve(1, n).x.values.copy()
        y[6] = y[5] + (1e-13, 0.0)
        x = y + step
        moved = x - y
        drift = max(exact_sq((0.0, 0.0), m) for m in moved)
        unmoved = float(np.sqrt(np.max(np.einsum("ij,ij->i", moved, moved))))
        assert Fraction(unmoved) ** 2 < drift
        root = np.full(n // 2, 2.0 * unmoved + 1e-9)
        root[0] = 0.0
        X = seeded_with(x, y, root)
        assert well_stretched_constant(X) == full_pair_well_stretched_constant(X)
        left = X._chords.root
        for i in range(1, n // 2):
            lowered = Fraction(root[i]) - Fraction(left[i])
            assert lowered > 0 and lowered**2 >= 4 * drift, i + 1


def chord_on_the_x_axis(v: np.ndarray, k: int) -> np.ndarray:
    """The samples v, rolled so that the pair holding the smallest chord at
    offset k starts at sample 0, rotated and moved so that sample 0 is the
    origin and sample k lies on the negative x-axis, then sample k pulled a
    relative 1e-6 towards sample 0, so that this pair alone holds it."""
    d = np.roll(v, -k, axis=0) - v
    v = np.roll(v, -int(np.argmin(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])), axis=0)
    w = v - v[0]
    angle = np.pi - np.arctan2(w[k, 1], w[k, 0])
    c, s = np.cos(angle), np.sin(angle)
    out = np.stack([c * w[:, 0] - s * w[:, 1], s * w[:, 0] + c * w[:, 1]], axis=1)
    out[0] = 0.0
    out[k] = (0.999999 * out[k, 0], 0.0)
    return out


def tight_root(e: Fraction) -> float:
    """The largest double whose square is at most e."""
    r = math.sqrt(e)
    while Fraction(r) ** 2 > e:
        r = np.nextafter(r, 0.0)
    while Fraction(np.nextafter(r, np.inf)) ** 2 <= e:
        r = np.nextafter(r, np.inf)
    return float(r)


# ---------------------------------------------------------------------------
# criterion 8's phase search
# ---------------------------------------------------------------------------

def test_phase_bounds_sit_below_their_exact_value(monkeypatch):
    # the bound of each interval, as handed to _kept, against the documented
    # bound evaluated in 60 digits: each end's root moved down, |c| and the
    # reach up, their combination down and then by a margin times |c| + |z|
    handed = []
    kept = acceptance._kept
    monkeypatch.setattr(acceptance, "_kept", lambda lower, best_sq: handed.append(lower) or kept(lower, best_sq))
    rng = np.random.default_rng(8)
    curves = [random_smooth_curve(rng, 128, amp=0.01) for _ in range(3)] + [make_circle(128, 1.3, 0.4, (0.2, -0.1))]
    coarse = np.linspace(0.0, 2 * np.pi, _PHASES, endpoint=False)[::_PHASE_STRIDE]
    for X in curves:
        fit = closest_equilibrium(X)
        handed.clear()
        _theta_grid_search(X, fit)
        (bound,) = handed
        obj = _theta_objective(X, fit, coarse)  # the coarse level's bits
        with localcontext() as ctx:
            ctx.prec = 60
            m, eps = Decimal(_MARGIN), Decimal(2.0**-52)
            c = Decimal(fit.radius) * Decimal(X.n).sqrt()
            reach = _PHASE_STRIDE * Decimal(2 * np.pi / _PHASES) * c * (1 + m) ** 2
            z = sum(exact_sq(fit.x_star, p) for p in X.x.values)
            z = Decimal(z.numerator).sqrt() / Decimal(z.denominator).sqrt()
            ends = [Decimal(o).sqrt() for o in obj]
            for i, b in enumerate(bound):
                a, e = ends[i], ends[(i + 1) % len(ends)]
                exact = (1 - m) * ((1 - m) * (a + e) / 2 - reach / 2) - m * ((1 + m) * c + z)
                assert Decimal(b) <= exact + 4 * eps * (a + e + reach), i
