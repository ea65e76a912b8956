"""Time integration of the contour dynamics and per-step diagnostics.

The string velocity splits into a stiff dissipative multiplier -|k|/4 and a
bounded remainder. Two fixed-step schemes take the right-hand side as a callable
velocity(state), called once per stage: classical RK4, and an exponential Euler
step that applies the stiff multiplier exactly per Fourier mode and treats the
remainder explicitly, X + dt phi1(-|k|dt/4) u, one spectral.semigroup_phi1 call.

A run gives every stage and every diagnostics row one evaluator: the pair sum
on the curve truncated to the fewest samples it needs, N_c, a power of two set
by a spectral tail test on the state alone (see _resolved_velocity and
README), zero-padded back to N. A run restarted from any of its states thus
reproduces it bitwise. The run observes each state with its velocity, and the
step from that state takes the same velocity as its first stage.

The truncated curve and the padded velocity are seeded fields
(spectral.resample_field), which keep the coefficients they were built from
as their transform, and the fit distances are read from the state's own
transform (equilibrium.fit_distance); a relax_n1024 state thus costs five
real FFTs at N (one rfft, four irfft) and four at N_c (three irfft, one
rfft; see README).

Each state's well-stretched pass starts from the chord bounds the previous
state's pass left (CurveState.seed_well_stretched), so it evaluates
a few torus offsets where a pass from scratch evaluates about 45 at N = 1024.
The bounds hold arrays only, and lambda is bitwise the full pass's whatever
they hold, so a restarted run still reproduces the run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .curve import (
    CurveState,
    DegenerateCurveError,
    OrientationError,
    elastic_energy,
    enclosed_area,
    well_stretched_constant,
)
from .equilibrium import closest_equilibrium, fit_distance
from .spectral import (
    GridField,
    NonFiniteFieldError,
    band_samples,
    dealias,
    resample_field,
    resolved_band,
    semigroup_phi1,
)
from .stokeslet import dissipation_rate, on_curve_velocity

__all__ = [
    "StepperConfig",
    "DiagnosticsRow",
    "RunResult",
    "LambdaAbortError",
    "NonFiniteError",
    "SCHEMES",
    "step_rk4",
    "step_exp_euler",
    "diagnostics_row",
    "run",
]

class LambdaAbortError(RuntimeError):
    """Well-stretched constant fell below the abort threshold."""

    def __init__(self, t: float, value: float, threshold: float, rows: list):
        super().__init__(
            f"well-stretched constant {value:.6g} fell below threshold "
            f"{threshold:.6g} at t = {t:.6g}"
        )
        self.t = t
        self.value = value
        self.threshold = threshold
        self.rows = rows


class NonFiniteError(RuntimeError):
    """A step produced non-finite samples (blow-up guard)."""

    def __init__(self, t: float, rows: list):
        super().__init__(f"non-finite field after step at t = {t:.6g}")
        self.t = t
        self.rows = rows


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step integration parameters.

    The one place that states the stepper defaults and ranges: the CLI
    passes on only the keys a config gives. dealias_enabled = None resolves
    to "on for runs longer than t = 1" (filtering suppresses aliasing of the
    quadratic nonlinearity over long horizons). lambda_abort = None resolves
    to half the initial well-stretched constant.
    """

    scheme: str = "exp_euler"
    dt: float = 1e-2
    t_end: float = 1.0
    dealias_enabled: bool | None = None
    dealias_cutoff: float = 2.0 / 3.0
    krasny_floor: float = 1e-13
    lambda_abort: float | None = None
    snapshot_every: int = 100

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {', '.join(SCHEMES)}, got {self.scheme!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt > self.t_end:
            raise ValueError(f"dt = {self.dt} exceeds t_end = {self.t_end}")
        steps = self.t_end / self.dt  # infinite when the ratio overflows
        if not (steps < np.inf and abs(round(steps) * self.dt - self.t_end) <= 1e-9 * max(1.0, self.t_end)):
            raise ValueError(f"t_end = {self.t_end} is not an integer multiple of dt = {self.dt}")
        if not 0.0 < self.dealias_cutoff <= 1.0:
            raise ValueError(f"dealias_cutoff must be in (0, 1], got {self.dealias_cutoff}")
        if self.krasny_floor < 0:
            raise ValueError(f"krasny_floor must be >= 0, got {self.krasny_floor}")
        if self.lambda_abort is not None and self.lambda_abort <= 0:
            raise ValueError(f"lambda_abort must be positive, got {self.lambda_abort}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")

    def dealias_active(self) -> bool:
        if self.dealias_enabled is None:
            return self.t_end > 1.0
        return self.dealias_enabled


@dataclass(frozen=True)
class DiagnosticsRow:
    """Per-step scalars; column order matches the diagnostics CSV."""

    t: float
    energy: float
    dissipation: float
    well_stretched: float
    radius: float
    area: float
    dist_h1: float
    dist_h52: float
    theta_star: float
    xstar_x: float
    xstar_y: float


@dataclass(frozen=True)
class RunResult:
    rows: list[DiagnosticsRow]
    snapshots: list[tuple[int, float, CurveState]]
    final: CurveState


def step_rk4(
    X: CurveState, dt: float, velocity: Callable[[CurveState], GridField] = on_curve_velocity
) -> CurveState:
    """One classical RK4 step, velocity(state) evaluated at each of its four stages."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    v = X.x.values
    a1 = velocity(X).values
    a2 = velocity(CurveState(GridField(v + 0.5 * dt * a1))).values
    a3 = velocity(CurveState(GridField(v + 0.5 * dt * a2))).values
    a4 = velocity(CurveState(GridField(v + dt * a3))).values
    return CurveState(GridField(v + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0))


def step_exp_euler(
    X: CurveState, dt: float, velocity: Callable[[CurveState], GridField] = on_curve_velocity
) -> CurveState:
    """Exponential Euler step: X + dt phi1(-|k|dt/4) u, u = velocity(X): one
    FFT pair, or one inverse FFT when u carries its transform (a run's
    velocity padded back from N_c).

    This is e^{-|k|dt/4} x_hat + dt phi1(-|k|dt/4) g_hat with g the nonstiff
    forcing, since e^z - z phi1(z) = 1; the k = 0 mode reduces to an explicit
    Euler step on the curve's mean.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    phi1_u = semigroup_phi1(velocity(X), dt)
    return CurveState(GridField(X.x.values + dt * phi1_u.values))


# scheme name -> step(X, dt, velocity), velocity(state) the right-hand side at a stage
SCHEMES = {"rk4": step_rk4, "exp_euler": step_exp_euler}


def diagnostics_row(t: float, X: CurveState, u: GridField) -> DiagnosticsRow:
    """Assemble the per-step diagnostics from a state and its velocity."""
    fit = closest_equilibrium(X)
    return DiagnosticsRow(
        t=t,
        energy=elastic_energy(X),
        dissipation=dissipation_rate(X, u),
        well_stretched=well_stretched_constant(X),
        radius=fit.radius,
        area=enclosed_area(X),
        dist_h1=fit_distance(X, fit, 1.0),
        dist_h52=fit_distance(X, fit, 2.5),
        theta_star=float("nan") if fit.degenerate else fit.theta_star,
        xstar_x=float(fit.x_star[0]),
        xstar_y=float(fit.x_star[1]),
    )


def _resolved_velocity(X: CurveState) -> GridField:
    """on_curve_velocity on the fewest samples X needs, zero-padded back to N.

    N_c starts at the curve's floor, spectral.band_samples(k) with k the
    curve's band by spectral.resolved_band. It doubles until the velocity
    passes the same tail test on N_c samples, against the curve's bound: no
    Fourier mode above N_c/4 exceeds 1e-13 times the curve's largest k != 0
    mode. When no power of two below N passes, it is on_curve_velocity(X)
    itself. The walk reads X alone, so a state's velocity does not depend on
    the run that reached it.
    """
    k_curve, bound = resolved_band(X.x)
    n_c = band_samples(k_curve)
    while n_c < X.n:
        u = on_curve_velocity(CurveState(resample_field(X.x, n_c)))
        if 4 * resolved_band(u, bound)[0] <= n_c:
            return resample_field(u, X.n)
        n_c *= 2
    return on_curve_velocity(X)


def run(initial: CurveState, cfg: StepperConfig) -> RunResult:
    """Integrate to t_end, emitting one diagnostics row per step boundary.

    Iteration k >= 1 advances the previous state by one step, then the dealias
    filter when it is active; every iteration observes its state at t = k dt.
    Snapshots are stored every cfg.snapshot_every steps and at the last one
    (raw samples, exactly restartable). Aborts with LambdaAbortError when the
    well-stretched constant drops below the threshold and with NonFiniteError
    on blow-up.
    """
    n_steps = round(cfg.t_end / cfg.dt)  # a positive integer, by StepperConfig
    threshold = cfg.lambda_abort  # None until row 0 gives half its well-stretched constant
    filtering = cfg.dealias_active()
    X, u = initial, None  # the current state and its velocity
    rows: list[DiagnosticsRow] = []
    snapshots: list[tuple[int, float, CurveState]] = [(0, 0.0, X)]
    for step in range(n_steps + 1):
        t = step * cfg.dt
        # degeneracy (self-intersection, orientation flip) is a regime exit,
        # reported through the same channel as the threshold abort; a stepped
        # state's X' and X'' are first computed when it is observed, so their
        # overflow is a blow-up of the step
        try:
            if step:
                # the first stage takes the velocity the previous state was observed with
                prev = X
                X = SCHEMES[cfg.scheme](prev, cfg.dt, lambda Y: u if Y is prev else _resolved_velocity(Y))
                if filtering:
                    X = CurveState(dealias(X.x, cfg.dealias_cutoff, cfg.krasny_floor))
                X.seed_well_stretched(prev)
                if step % cfg.snapshot_every == 0 or step == n_steps:
                    snapshots.append((step, t, X))
            u = _resolved_velocity(X)
            row = diagnostics_row(t, X, u)
        except (OrientationError, DegenerateCurveError) as exc:
            if threshold is None:  # row 0 failed before it could set the default
                threshold = 0.5 * well_stretched_constant(X)
            raise LambdaAbortError(t, 0.0, threshold, rows) from exc
        except NonFiniteFieldError as exc:
            raise NonFiniteError(t, rows) from exc
        rows.append(row)
        if threshold is None:
            threshold = 0.5 * row.well_stretched
        if row.well_stretched < threshold:
            raise LambdaAbortError(t, row.well_stretched, threshold, rows)
    return RunResult(rows=rows, snapshots=snapshots, final=X)
