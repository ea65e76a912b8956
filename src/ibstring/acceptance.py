"""Acceptance criteria: quantitative gates over the whole package.

Each criterion is a self-contained check returning a CheckResult; the
registry drives both the verify subcommand and the acceptance test module.
The quick criteria run in about 0.4 s and the full set in about 5 s (shared
2-core Xeon VM, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .curve import (
    CurveState,
    PerturbationMode,
    _kept,
    _safe,
    make_circle,
    make_perturbed_circle,
    make_reparam_circle,
    well_stretched_constant,
)
from .dynamics import DiagnosticsRow, StepperConfig, run
from .equilibrium import (
    EquilibriumFit,
    closest_equilibrium,
    first_order_residual,
    h1_energy_equivalence,
    linearized_velocity,
    measure_decay_rate,
)
from .spectral import GridField, derivative, semigroup_apply, sobolev_seminorm
from .stokeslet import (
    _FOUR_PI,
    _forcing_derivative_rows,
    _forcing_derivative_rows_direct,
    forcing_derivative_quadrature,
    nonstiff_forcing,
    off_curve_velocity,
    on_curve_velocity,
)


@dataclass(frozen=True)
class CheckResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    quick: bool
    fn: Callable[[], tuple[bool, str]]


def _mode_draws(rng, amp: float) -> np.ndarray:
    """(5, 4) rows (amp_x, amp_y, phase_x, phase_y) of modes k = 2..6: each
    amplitude uniform in [-amp, amp), each phase in [0, 2pi), drawn in that order."""
    return rng.uniform([-amp, -amp, 0.0, 0.0], [amp, amp, 2 * np.pi, 2 * np.pi], (5, 4))


def _random_modes(rng, amp: float):
    return [PerturbationMode(k, *row) for k, row in zip(range(2, 7), _mode_draws(rng, amp).tolist())]


def random_smooth_curve(rng, n: int = 256, amp: float = 0.05, min_lambda: float = 0.3) -> CurveState:
    """Random well-stretched perturbed circle, randomly posed.

    Modes 2..6 each get amplitudes up to amp; the pose is a random rotation
    and a centre in [-0.5, 0.5)^2. Draws are rejected until the
    well-stretched constant exceeds min_lambda.
    """
    s = 2.0 * np.pi * np.arange(n) / n
    unit = np.stack([np.cos(s), np.sin(s)], axis=1)  # make_circle(n)'s samples
    k = np.arange(2, 7)[:, None]
    while True:
        amp_x, amp_y, phase_x, phase_y = _mode_draws(rng, amp).T[..., None]
        pert = unit.copy()  # make_perturbed_circle's sums, in its order, minus the circle
        for tx, ty in zip(amp_x * np.cos(k * s + phase_x), amp_y * np.cos(k * s + phase_y)):
            pert[:, 0] += tx
            pert[:, 1] += ty
        pert -= unit
        base = make_circle(n, 1.0, rng.uniform(0, 2 * np.pi), rng.uniform(-0.5, 0.5, size=2))
        X = CurveState(GridField(base.x.values + pert))
        if well_stretched_constant(X) > min_lambda:
            return X


def random_band_limited(rng, n: int, kmax: int = 6, scale: float = 1.0, mean_zero: bool = False) -> GridField:
    """Random real field with content only in modes |k| <= kmax (|k| >= 1 if mean_zero)."""
    s = 2.0 * np.pi * np.arange(n) / n
    vals = np.zeros((n, 2))
    for k in range(1 if mean_zero else 0, kmax + 1):
        a = rng.normal(size=4) * scale
        vals[:, 0] += a[0] * np.cos(k * s) + (a[1] * np.sin(k * s) if k else 0.0)
        vals[:, 1] += a[2] * np.cos(k * s) + (a[3] * np.sin(k * s) if k else 0.0)
    return GridField(vals)


# --- criterion 1 -----------------------------------------------------------

def _c1_equilibrium_steadiness():
    X = make_circle(256)
    umax = float(np.max(np.abs(on_curve_velocity(X).values)))
    res = run(X, StepperConfig(scheme="exp_euler", dt=1e-2, t_end=1.0, snapshot_every=100))
    drift = max(
        abs(getattr(res.rows[-1], f.name) - getattr(res.rows[0], f.name))
        for f in fields(DiagnosticsRow) if f.name != "t"
    )
    ok = umax < 1e-10 and drift < 1e-9
    return ok, f"max|u| = {umax:.2e} (< 1e-10), diagnostic drift over t=1: {drift:.2e} (< 1e-9)"


# --- criteria 2 and 3 ------------------------------------------------------

def _balance_residuals(dt: float, t0: float = 0.05, count: int = 16):
    """Mean relative residual |dE/dt + diss(midpoint)|/diss at step dt.

    The run advances at dt/2 so the midpoint dissipation is available; the
    energy difference is formed from the exact state difference (then
    differentiated spectrally) to keep the residual above roundoff.
    """
    X0 = make_perturbed_circle(256, 1.0, [PerturbationMode(2, 1e-2, 0.0)])
    fine = dt / 2.0
    t_end = t0 + count * dt
    cfg = StepperConfig(scheme="rk4", dt=fine, t_end=t_end, snapshot_every=1, dealias_enabled=False)
    res = run(X0, cfg)
    states = [s for _, _, s in res.snapshots]
    rows = res.rows
    h = X0.h
    out = []
    start = int(round(t0 / fine))
    for w in range(count):
        i0, i1 = start + 2 * w, start + 2 * w + 2
        dvals = states[i1].x.values - states[i0].x.values
        dp = derivative(GridField(dvals), 1).values
        sm = states[i1].xp.values + states[i0].xp.values
        d_energy = 0.5 * h * math.fsum(np.einsum("ij,ij->i", dp, sm).tolist()) / dt
        diss_mid = rows[i0 + 1].dissipation
        out.append(abs(d_energy + diss_mid) / diss_mid)
    return float(np.mean(out))


def _c2_energy_dissipation_balance():
    r_coarse = _balance_residuals(1e-3)
    r_fine = _balance_residuals(5e-4)
    ratio = r_coarse / r_fine
    ok = r_coarse < 1e-3 and r_fine < 1e-3 / 4.0 and 3.5 < ratio < 4.5
    return ok, (
        f"rel residual {r_coarse:.2e} at dt=1e-3 (< 1e-3), {r_fine:.2e} at dt/2 "
        f"(< 2.5e-4), improvement factor {ratio:.3f} (second order)"
    )


def _c3_area_conservation():
    X0 = make_perturbed_circle(256, 1.0, [PerturbationMode(2, 1e-2, 0.0)])
    res = run(X0, StepperConfig(scheme="rk4", dt=1e-2, t_end=5.0, snapshot_every=1000))
    areas = [r.area for r in res.rows]
    drift = (max(areas) - min(areas)) / areas[0]
    return drift < 1e-6, f"relative area drift over t in [0,5]: {drift:.2e} (< 1e-6)"


# --- criterion 4 -----------------------------------------------------------

def _decay_run(k: int):
    X0 = make_perturbed_circle(256, 1.0, [PerturbationMode(k, 1e-3, 0.0)])
    res = run(X0, StepperConfig(scheme="exp_euler", dt=1e-2, t_end=8.0, snapshot_every=10_000))
    ts = [r.t for r in res.rows]
    d1 = [r.dist_h1 for r in res.rows]
    return res, measure_decay_rate(ts, d1, (4.0, 8.0))


def _c4_exponential_rates():
    _, rate2 = _decay_run(2)
    _, rate3 = _decay_run(3)
    ok = 0.225 <= rate2 <= 0.275 and 0.45 <= rate3 <= 0.55
    return ok, (
        f"mode-2 H1-distance rate {rate2:.4f} in [0.225, 0.275] (prediction 0.25); "
        f"mode-3 rate {rate3:.4f} in [0.45, 0.55] (prediction 0.5)"
    )


# --- criteria 5 and 6 ------------------------------------------------------

def _c5_integrand_algebra():
    rng = np.random.default_rng(11)
    worst, pairs = 0.0, 0
    for _ in range(10):
        X = make_perturbed_circle(256, 1.0, _random_modes(rng, 0.02))
        blocks = zip(_forcing_derivative_rows(X), _forcing_derivative_rows_direct(X))
        for (rows, sx, sy), (_, dx, dy) in blocks:
            # each block reduced as it arrives, in the simplified form's fresh rows
            gap = np.maximum(np.abs(np.subtract(sx, dx, out=sx), out=sx),
                             np.abs(np.subtract(sy, dy, out=sy), out=sy), out=sx)
            np.fill_diagonal(gap[:, rows.start:], 0.0)  # the direct form is NaN there
            worst = np.maximum(worst, np.max(gap))  # NaN-propagating: a non-finite pair fails the check
        pairs += X.n * (X.n - 1)
    worst = float(worst / _FOUR_PI)  # dividing by 4pi is monotone: the largest quotient
    return worst < 1e-10, (
        f"max |simplified - direct| over all {pairs} off-diagonal pairs of 10 curves: "
        f"{worst:.2e} (< 1e-10)"
    )


def _c6_forcing_derivative_crosscheck():
    rng = np.random.default_rng(12)
    worst = 0.0
    curves = [
        make_perturbed_circle(256, 1.0, _random_modes(rng, 0.02)),
        make_perturbed_circle(256, 1.0, [PerturbationMode(2, 0.05, 0.02, 0.3, 1.1)]),
        make_reparam_circle(256, 1.0, 0.3),
    ]
    for X in curves:
        direct = derivative(nonstiff_forcing(X), 1).values
        quad = forcing_derivative_quadrature(X).values
        rel = float(np.sqrt(np.mean((direct - quad) ** 2) / np.mean(direct**2)))
        worst = max(worst, rel)
    return worst < 1e-6, f"max relative L2 discrepancy over 3 smooth curves: {worst:.2e} (< 1e-6)"


# --- criteria 7 and 8 ------------------------------------------------------

def _c7_sandwich_ensemble():
    violations = 0
    worst = -np.inf
    rng = np.random.default_rng(7)
    for _ in range(100):
        X = random_smooth_curve(rng, 128, amp=0.01)
        lhs, mid, rhs_ = h1_energy_equivalence(X)
        lo = lhs - mid
        hi = mid - rhs_
        worst = max(worst, lo, hi)
        if lo > 1e-12 or hi > 1e-12:
            violations += 1
    return violations == 0, f"violations: {violations}/100 (worst margin {worst:.2e}, slack 1e-12)"


def _theta_objective(X: CurveState, fit: EquilibriumFit, thetas: np.ndarray) -> np.ndarray:
    """sum_j |e^{i theta} c_j - z_j|^2 at each theta, c = R e^{i s}, z = X - x*.

    The same pairwise objective as sum_j |X_j - x* - R(cos, sin)(s_j + theta)|^2,
    by rotation. Each block of angles forms its residuals as one real BLAS
    product [cos theta, sin theta, 1] @ B. B is the float view of the complex
    rows c, i c and -z: [Re c, Im c], [-Im c, Re c] and [-Re z, -Im z] with
    the pairs interleaved, so the product is the residuals' float view, whose
    rows are summed as squares. A block holds 16,384/N angles, a (block, 2N)
    temporary of 256 KB (128 angles at N = 128). Every product has at least two
    rows: numpy hands a one-row product to gemv, which rounds differently, so
    an angle's value does not depend on the block it falls in.
    """
    dev = X.x.values - fit.x_star[None, :]
    circle = fit.radius * np.exp(1j * X.s)
    table = np.stack([circle, 1j * circle, -(dev[:, 0] + 1j * dev[:, 1])]).view(np.float64)
    step = max(1, 16_384 // X.n)
    rotations = np.ones((max(2, min(step, len(thetas))), 3))
    work = np.empty((len(rotations), 2 * X.n))
    obj = np.empty(len(thetas))
    for lo in range(0, len(thetas), step):
        chunk = thetas[lo:lo + step]
        rows = max(2, len(chunk))
        rot, flat = rotations[:rows], work[:rows]
        rot[: len(chunk), 0], rot[: len(chunk), 1] = np.cos(chunk), np.sin(chunk)
        np.matmul(rot, table, out=flat)
        obj[lo:lo + step] = np.einsum("ij,ij->i", flat[: len(chunk)], flat[: len(chunk)])
    return obj


# Criterion 8's phase grid, and the stride of its search's coarse level (a divisor).
_PHASES = 100_000
_PHASE_STRIDE = 100


def _theta_grid_search(X: CurveState, fit: EquilibriumFit) -> float:
    """Minimizer of the discrete L2 fit objective over 100,000 evenly spaced
    phases in [0, 2pi); ties go to the smallest angle. Bitwise the argmin of
    _theta_objective over every phase, by an exact two-level search.

    For angles theta and theta' the residuals r = e^{i theta} c - z differ by
    (e^{i theta} - e^{i theta'}) c, so |r(theta)| >= |r(theta')| - |theta -
    theta'| |c|, with |c| = R sqrt(N). The coarse level evaluates every S-th
    phase, S = _PHASE_STRIDE; an angle inside the interval between two
    coarse phases a and b, S steps apart (the last interval wraps to phase
    0), lies t and S - t steps from them, so its |r| is at least the mean of
    the two bounds, (|r_a| + |r_b| - S step |c|)/2. Only the intervals whose
    bound curve._kept keeps against the smallest coarse value are evaluated
    in full, and every evaluated angle takes the bits it takes in a scan of
    all phases; only the evaluated phases are stored. Each term of the bound
    moves to its safe side (curve._safe), and the bound by a further margin
    times |c| + |z| for the rounding of the residuals and of the phases,
    which does not shrink with O (an exact circle's minimum is at rounding
    level). The bound reads no Fourier
    coefficient of X, so the check stays independent of the closed form the
    fit reads theta* from.
    """
    step = 2 * np.pi / _PHASES  # phase i is i step, np.linspace's value bit for bit
    coarse = np.arange(0, _PHASES, _PHASE_STRIDE)
    obj = _theta_objective(X, fit, coarse * step)
    c_norm, z_norm = _safe(fit.radius * math.sqrt(X.n), 1), float(np.linalg.norm(X.x.values - fit.x_star))
    reach = _safe(_PHASE_STRIDE * step * c_norm, 1)
    ends = _safe(np.sqrt(obj), -1)
    bound = _safe(0.5 * (ends + np.roll(ends, -1)) - 0.5 * reach, -1, c_norm + z_norm)
    fine = (coarse[_kept(bound, np.min(obj)), None] + np.arange(1, _PHASE_STRIDE)).ravel()
    phases = np.concatenate([coarse, fine])
    obj = np.concatenate([obj, _theta_objective(X, fit, fine * step)])
    order = np.argsort(phases)  # ties to the smallest angle, as a scan of all phases
    return float(phases[order][np.argmin(obj[order])] * step)


def _c8_fit_quality():
    rng = np.random.default_rng(8)
    members = [random_smooth_curve(rng, 128, amp=0.01) for _ in range(100)]
    fits = [closest_equilibrium(X) for X in members]
    worst_residual = max(abs(first_order_residual(X, fit)) for X, fit in zip(members, fits))
    worst_gap = max(
        abs((fit.theta_star - _theta_grid_search(X, fit) + np.pi) % (2 * np.pi) - np.pi)
        for X, fit in zip(members[:10], fits[:10])
    )
    ok = worst_gap < 1e-4 and worst_residual < 1e-10
    return ok, (
        f"max |theta* - grid search| over 10 members: {worst_gap:.2e} rad (< 1e-4); "
        f"max first-order residual over 100: {worst_residual:.2e} (< 1e-10)"
    )


# --- criterion 9 -----------------------------------------------------------

def _c9_linearization_remainder():
    rng = np.random.default_rng(9)
    circle = make_circle(256)
    slopes = []
    for _ in range(5):
        D = random_band_limited(rng, 256, kmax=6, scale=0.2)
        LD = linearized_velocity(D).values
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            X = CurveState(GridField(circle.x.values + eps * D.values))
            errs.append(float(np.max(np.abs(on_curve_velocity(X).values - eps * LD))))
        slopes.append(np.log(errs[0] / errs[2]) / np.log(4.0))
    ok = all(sl >= 1.9 for sl in slopes)
    return ok, f"Richardson slopes over 5 directions: {[f'{sl:.3f}' for sl in slopes]} (all >= 1.9)"


# --- criterion 10 ----------------------------------------------------------

def _c10_membrane_continuity():
    X = make_perturbed_circle(1024, 1.0, [PerturbationMode(3, 0.05, 0.0)])
    u_on = on_curve_velocity(X).values[0]
    t = X.xp.values[0] / np.linalg.norm(X.xp.values[0])
    normal = np.array([-t[1], t[0]])
    gaps = []
    for d in (1e-1, 1e-2, 1e-3):
        gap = max(
            float(np.linalg.norm(off_curve_velocity(X, X.x.values[0] + sgn * d * normal) - u_on))
            for sgn in (+1.0, -1.0)
        )
        gaps.append(gap)
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-3
    return ok, (
        f"gaps at d = 1e-1, 1e-2, 1e-3: {gaps[0]:.2e}, {gaps[1]:.2e}, {gaps[2]:.2e} "
        f"(monotone, final < 1e-3)"
    )


# --- criterion 11 ----------------------------------------------------------

def _c11_lambda_persistence():
    runs = [
        (make_perturbed_circle(128, 1.0, [PerturbationMode(2, 1e-2, 0.0)]),
         StepperConfig(scheme="rk4", dt=1e-2, t_end=5.0, snapshot_every=10_000)),
        (make_reparam_circle(128, 1.0, 0.5),
         StepperConfig(scheme="exp_euler", dt=1e-2, t_end=20.0, snapshot_every=10_000)),
        (make_circle(128),
         StepperConfig(scheme="exp_euler", dt=1e-2, t_end=1.0, snapshot_every=10_000)),
    ]
    worst = np.inf
    for X0, cfg in runs:
        res = run(X0, cfg)  # an abort raises, and run_criterion reports it as a FAIL
        lam0 = res.rows[0].well_stretched
        worst = min(worst, min(r.well_stretched for r in res.rows) / lam0)
    return worst >= 0.5, f"min lambda(t)/lambda(0) over the standard runs: {worst:.3f} (>= 0.5), no aborts"


# --- criterion 12 ----------------------------------------------------------

def _c12_semigroup_decay():
    rng = np.random.default_rng(122)
    worst = -np.inf
    for _ in range(20):
        f = random_band_limited(rng, 64, kmax=20, mean_zero=True)
        for t in (0.5, 1.0, 2.0):
            out = semigroup_apply(f, t)
            for order in (0.0, 1.0, 2.5):
                excess = sobolev_seminorm(out, order) - np.exp(-t / 4.0) * sobolev_seminorm(f, order)
                worst = max(worst, float(excess))
    return worst <= 1e-12, f"worst seminorm excess over e^(-t/4) bound: {worst:.2e} (<= 1e-12)"


# --- module invariant suites (fast spot checks behind `verify`) -------------

def _inv_spectral():
    f = random_band_limited(np.random.default_rng(1001), 64, kmax=20)
    vals = f.values
    from .spectral import from_spectral, fractional_laplacian_half, hilbert_transform, mean, to_spectral

    worst = float(np.max(np.abs(from_spectral(to_spectral(f)).values - f.values)))
    hh = hilbert_transform(hilbert_transform(f))
    worst = max(worst, float(np.max(np.abs(hh.values + f.values - mean(f)[None, :]))))
    mz = GridField(vals - vals.mean(axis=0))
    worst = max(
        worst,
        float(
            np.max(
                np.abs(
                    fractional_laplacian_half(mz).values
                    - hilbert_transform(derivative(mz, 1)).values
                )
            )
        ),
    )
    two_step = semigroup_apply(semigroup_apply(f, 0.6), 1.3)
    worst = max(worst, float(np.max(np.abs(two_step.values - semigroup_apply(f, 1.9).values))))
    return worst < 1e-12, f"round-trip / involution / composition / semigroup defects <= {worst:.2e}"


def _inv_curve():
    from .curve import effective_radius, elastic_energy, enclosed_area

    worst = 0.0
    for theta, center in ((0.0, (0.0, 0.0)), (1.1, (2.0, -3.0))):
        X = make_circle(128, 1.5, theta, center)
        worst = max(worst, abs(well_stretched_constant(X) - 3.0 / np.pi))
        worst = max(worst, abs(enclosed_area(X) - np.pi * 1.5**2))
        worst = max(worst, abs(effective_radius(X) - 1.5))
        worst = max(worst, abs(elastic_energy(X) - np.pi * 1.5**2))
    return worst < 1e-10, f"circle-family geometry defects <= {worst:.2e}"


def _inv_stokeslet():
    X = make_perturbed_circle(128, 1.0, [PerturbationMode(2, 0.05, 0.02, 0.3, 1.1)])
    u = on_curve_velocity(X)
    shifted = CurveState(GridField(X.x.values + np.array([2.0, -1.0])))
    worst = float(np.max(np.abs(on_curve_velocity(shifted).values - u.values)))
    th = 0.8
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = CurveState(GridField(X.x.values @ rot.T))
    worst = max(worst, float(np.max(np.abs(on_curve_velocity(rotated).values - u.values @ rot.T))))
    from .stokeslet import dissipation_rate

    ok = worst < 1e-12 and dissipation_rate(X, u) >= -1e-10
    return ok, f"translation/rotation defects <= {worst:.2e}, dissipation nonnegative"


def _inv_equilibrium():
    X = make_circle(128, 1.4, 0.9, (0.5, 0.25))
    fit = closest_equilibrium(X)
    refit = closest_equilibrium(CurveState(fit.x_star_samples))
    worst = abs(refit.theta_star - fit.theta_star) + float(np.max(np.abs(refit.x_star - fit.x_star)))
    D = GridField(np.stack([np.cos(3 * X.s), np.sin(5 * X.s)], axis=1))
    worst = max(worst, float(np.max(np.abs(linearized_velocity(D).values.mean(axis=0)))))
    return worst < 1e-10, f"fit idempotence / linearized mean defects <= {worst:.2e}"


INVARIANTS = [
    ("spectral operator identities", _inv_spectral),
    ("curve geometry invariance", _inv_curve),
    ("boundary-integral equivariance", _inv_stokeslet),
    ("equilibrium fit invariants", _inv_equilibrium),
]


CRITERIA = [
    Criterion(1, "equilibrium steadiness", True, _c1_equilibrium_steadiness),
    Criterion(2, "energy-dissipation balance", False, _c2_energy_dissipation_balance),
    Criterion(3, "area conservation", False, _c3_area_conservation),
    Criterion(4, "exponential rate vs linearized spectrum", False, _c4_exponential_rates),
    Criterion(5, "gradient-integrand algebra", True, _c5_integrand_algebra),
    Criterion(6, "forcing-derivative cross-check", True, _c6_forcing_derivative_crosscheck),
    Criterion(7, "energy/H1 sandwich ensemble", True, _c7_sandwich_ensemble),
    Criterion(8, "closest-equilibrium fit quality", True, _c8_fit_quality),
    Criterion(9, "linearization remainder order", True, _c9_linearization_remainder),
    Criterion(10, "membrane continuity", False, _c10_membrane_continuity),
    Criterion(11, "well-stretched persistence", False, _c11_lambda_persistence),
    Criterion(12, "semigroup decay bound", True, _c12_semigroup_decay),
]


def run_criterion(c: Criterion) -> CheckResult:
    """Run one check; a check that raises fails, with the exception as its detail."""
    start = time.perf_counter()
    try:
        passed, detail = c.fn()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(c.number, c.title, passed, detail, time.perf_counter() - start)


def run_suite(full: bool, stream=None) -> list[CheckResult]:
    """Run the invariants, numbered -1 .. -4, then the criteria, printing each
    check's line as it finishes."""
    stream = stream or sys.stdout
    invariants = [Criterion(-(i + 1), title, True, fn) for i, (title, fn) in enumerate(INVARIANTS)]
    results = []
    for c in invariants + [c for c in CRITERIA if full or c.quick]:
        r = run_criterion(c)
        results.append(r)
        line = (f"invariants ({r.title}): {r.detail}" if r.number < 0
                else f"criterion {r.number:2d} ({r.title}): {r.detail} [{r.seconds:.1f}s]")
        print(f"[{'PASS' if r.passed else 'FAIL'}] {line}", file=stream)
    print(
        f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        + ("" if full else " (quick subset; use --full for all)"),
        file=stream,
    )
    return results
