"""Time steppers and the run loop with its diagnostics and abort guards."""

from dataclasses import astuple

import numpy as np
import pytest

from ibstring import (
    CurveState,
    DiagnosticsRow,
    GridField,
    PerturbationMode,
    StepperConfig,
    closest_equilibrium,
    dissipation_rate,
    effective_radius,
    elastic_energy,
    enclosed_area,
    make_circle,
    make_perturbed_circle,
    make_reparam_circle,
    measure_decay_rate,
    nonstiff_forcing,
    on_curve_velocity,
    run,
    semigroup_apply,
    step_exp_euler,
    step_rk4,
    well_stretched_constant,
)
from ibstring import dynamics, equilibrium
from ibstring.curve import DegenerateCurveError, OrientationError
from ibstring.dynamics import LambdaAbortError, NonFiniteError, diagnostics_row
from ibstring.equilibrium import fit_distance
from ibstring.spectral import (
    NonFiniteFieldError,
    _phi1,
    derivative,
    fractional_laplacian_half,
    mean,
    mode_amplitudes,
    semigroup_phi1,
    sobolev_seminorm,
)

from conftest import random_smooth_curve, relax_curve


class TestRhs:
    def test_circle_is_fixed_point(self):
        assert np.max(np.abs(on_curve_velocity(make_circle(256)).values)) < 1e-10

    def test_splitting_identity(self, rng):
        X = random_smooth_curve(rng, n=128)
        u = on_curve_velocity(X).values
        recomposed = -0.25 * fractional_laplacian_half(X.x).values + nonstiff_forcing(X).values
        assert np.max(np.abs(u - recomposed)) < 1e-14

    def test_reparam_mean_symmetry(self):
        # s -> -s mirror symmetry of the construction kills the y-mean; the
        # x-mean is genuinely nonzero (the material center drifts)
        u = on_curve_velocity(make_reparam_circle(256, 1.0, 0.3))
        m = mean(u)
        assert abs(m[1]) < 1e-8
        assert abs(m[0]) > 1e-5


class TestStepRk4:
    def test_circle_unchanged(self):
        X = make_circle(256)
        for dt in (0.01, 0.1):
            out = step_rk4(X, dt)
            assert np.max(np.abs(out.x.values - X.x.values)) < 1e-10

    def test_consistency_with_rhs(self):
        X = make_perturbed_circle(128, 1.0, [PerturbationMode(2, 0.05, 0.0)])
        u = on_curve_velocity(X).values
        errs = []
        for dt in (1e-3, 1e-4):
            d = (step_rk4(X, dt).x.values - X.x.values) / dt
            errs.append(np.max(np.abs(d - u)))
        assert errs[0] < 1e-4
        assert errs[1] < 0.2 * errs[0]  # first order in dt

    def test_fourth_order_self_convergence(self):
        X0 = make_perturbed_circle(128, 1.0, [PerturbationMode(2, 0.05, 0.0)])
        horizon = 0.2

        def advance(X, steps):
            dt = horizon / steps
            for _ in range(steps):
                X = step_rk4(X, dt)
            return X

        ref = advance(X0, 64).x.values
        errs = [np.max(np.abs(advance(X0, steps).x.values - ref)) for steps in (4, 8)]
        assert 14.0 < errs[0] / errs[1] < 18.0

    def test_dt_validation(self):
        with pytest.raises(ValueError, match="dt"):
            step_rk4(make_circle(64), 0.0)


class TestStepExpEuler:
    def test_pure_decay_matches_semigroup(self, rng):
        # u = -(1/4) Lambda X is the stiff part alone (zero nonstiff forcing), so
        # the step is X + dt phi1(-|k|dt/4)(-|k|/4) X_hat = e^{-|k|dt/4} X_hat
        X = random_smooth_curve(rng, n=64)
        dt = 0.3
        u = GridField(-0.25 * fractional_laplacian_half(X.x).values)
        stepped = step_exp_euler(X, dt, lambda _: u)
        expected = semigroup_apply(X.x, dt)
        assert np.max(np.abs(stepped.x.values - expected.values)) < 1e-12

    def test_circle_unchanged_algebraic_identity(self):
        X = make_circle(256)
        out = step_exp_euler(X, 0.05)
        assert np.max(np.abs(out.x.values - X.x.values)) < 1e-10

    def test_mean_is_explicit_euler(self, rng):
        X = random_smooth_curve(rng, n=128)
        dt = 0.02
        g = nonstiff_forcing(X)
        out = step_exp_euler(X, dt)
        expected_mean = mean(X.x) + dt * mean(g)
        assert np.max(np.abs(mean(out.x) - expected_mean)) < 1e-13

    def test_matches_split_form(self):
        # reference: the split form, e^{-|k|dt/4} on X plus dt phi1 on the nonstiff forcing
        X = make_perturbed_circle(
            256, 1.0, [PerturbationMode(2, 0.05, 0.0), PerturbationMode(3, 0.0, 0.03, 0.4, 1.1)]
        )
        u = on_curve_velocity(X)
        for dt in (0.01, 0.5):
            g = nonstiff_forcing(X, u)
            split = semigroup_apply(X.x, dt).values + dt * semigroup_phi1(g, dt).values
            out = step_exp_euler(X, dt, lambda _: u)
            assert np.max(np.abs(out.x.values - split)) < 1e-13

    def test_phi1_branches(self):
        for z in (-1e-5, 1e-5, -1e-4, -0.5, -4.0):
            exact = np.expm1(z) / z
            assert abs(float(_phi1(np.array([z]))[0]) - exact) < 1e-13

    def test_stability_beyond_rk4(self):
        # RK4's stiff stability limit at N = 256 is dt ~ 2.8/(N/8); the
        # exponential step treats that part exactly and survives far coarser dt
        X0 = make_perturbed_circle(256, 1.0, [PerturbationMode(2, 1e-2, 0.0)])

        def growth(stepper, dt, steps=40):
            X = X0
            for _ in range(steps):
                X = stepper(X, dt)
                if not np.all(np.isfinite(X.x.values)):
                    return np.inf
            return sobolev_seminorm(X.x, 2.5) / sobolev_seminorm(X0.x, 2.5)

        assert growth(step_rk4, 0.05) < 1.01      # both fine here
        assert growth(step_exp_euler, 0.05) < 1.01
        assert growth(step_rk4, 0.12) > 1e3       # past the explicit limit
        assert growth(step_exp_euler, 0.12) < 1.01
        assert growth(step_exp_euler, 0.5) < 1.01  # far beyond it


class TestRunLoop:
    def test_circle_constant_diagnostics(self):
        res = run(make_circle(128), StepperConfig(dt=1e-2, t_end=0.2, snapshot_every=10))
        first, last = res.rows[0], res.rows[-1]
        assert abs(last.energy - first.energy) < 1e-10
        assert abs(last.area - first.area) < 1e-10
        assert abs(first.well_stretched - 2 / np.pi) < 1e-10
        assert all(abs(r.dissipation) < 1e-10 for r in res.rows)

    def test_energy_monotone_nonincreasing(self):
        X0 = make_perturbed_circle(128, 1.0, [PerturbationMode(2, 1e-3, 0.0)])
        res = run(X0, StepperConfig(dt=1e-2, t_end=2.0, snapshot_every=100))
        energies = [r.energy for r in res.rows]
        assert all(energies[i + 1] <= energies[i] + 1e-13 for i in range(len(energies) - 1))

    def test_reparam_relaxes_to_uniform_circle(self):
        # the perturbation is dominated by |k| = 2, so the distance decays at
        # the linearized rate 1/4; over t = 20 that is a factor ~ e^-5
        X0 = make_reparam_circle(128, 1.0, 0.5)
        res = run(X0, StepperConfig(scheme="exp_euler", dt=1e-2, t_end=20.0, snapshot_every=10_000))
        ts = [r.t for r in res.rows]
        d1 = [r.dist_h1 for r in res.rows]
        assert d1[-1] < 0.02 * d1[0]
        rate = measure_decay_rate(ts, d1, (10.0, 20.0))
        assert abs(rate - 0.25) < 0.03
        lam0 = res.rows[0].well_stretched
        assert min(r.well_stretched for r in res.rows) >= lam0 / 2

    def test_scheme_agreement_within_coarser_error(self):
        X0 = make_perturbed_circle(128, 1.0, [PerturbationMode(2, 1e-2, 0.0)])
        cfg = dict(dt=1e-2, t_end=0.5, snapshot_every=1000, dealias_enabled=False)
        final_rk4 = run(X0, StepperConfig(scheme="rk4", **cfg)).final.x.values
        final_exp = run(X0, StepperConfig(scheme="exp_euler", **cfg)).final.x.values
        fine = run(
            X0, StepperConfig(scheme="exp_euler", dt=5e-3, t_end=0.5, snapshot_every=1000, dealias_enabled=False)
        ).final.x.values
        exp_err_estimate = 2.0 * np.max(np.abs(final_exp - fine))  # ~ first-order error
        assert np.max(np.abs(final_rk4 - final_exp)) <= 2.0 * exp_err_estimate + 1e-12

    def test_snapshots_cadence_and_restartability(self):
        X0 = make_perturbed_circle(64, 1.0, [PerturbationMode(2, 0.01, 0.0)])
        res = run(X0, StepperConfig(dt=1e-2, t_end=0.1, snapshot_every=5, dealias_enabled=False))
        assert [s[0] for s in res.snapshots] == [0, 5, 10]
        # restarting from the mid snapshot reproduces the final state exactly
        mid = res.snapshots[1][2]
        res2 = run(mid, StepperConfig(dt=1e-2, t_end=0.05, snapshot_every=5, dealias_enabled=False))
        assert np.array_equal(res2.final.x.values, res.final.x.values)

    def test_lambda_abort(self):
        X0 = make_circle(64)
        cfg = StepperConfig(dt=1e-2, t_end=1.0, lambda_abort=1.0)  # above 2/pi
        with pytest.raises(LambdaAbortError) as info:
            run(X0, cfg)
        assert info.value.t == 0.0
        assert info.value.rows

    def test_default_threshold_from_row_zero(self, monkeypatch):
        # one lambda pass per row: the default threshold is half of row 0's
        calls = []

        def counted(X):
            calls.append(X)
            return well_stretched_constant(X)

        monkeypatch.setattr(dynamics, "well_stretched_constant", counted)
        X0 = make_reparam_circle(64, 1.0, 0.5)
        res = run(X0, StepperConfig(dt=1e-2, t_end=0.05))
        assert len(calls) == len(res.rows) == 6 and calls[0] is X0
        lam0 = well_stretched_constant(X0)
        with pytest.raises(LambdaAbortError) as info:
            run(X0, StepperConfig(dt=1e-2, t_end=0.05, lambda_abort=np.nextafter(lam0, 1.0)))
        assert info.value.t == 0.0 and info.value.value == lam0

    def test_degenerate_initial_curve_reports_default_threshold(self):
        # row 0 fails before it sets the default threshold, which is still
        # half the initial curve's well-stretched constant
        X0 = CurveState(GridField(make_circle(64).x.values[::-1]))
        with pytest.raises(LambdaAbortError) as info:
            run(X0, StepperConfig(dt=1e-2, t_end=0.05))
        assert isinstance(info.value.__cause__, OrientationError)
        assert info.value.threshold == 0.5 * well_stretched_constant(X0)
        assert info.value.t == 0.0 and info.value.rows == []

    def test_nonfinite_abort(self):
        X0 = make_perturbed_circle(64, 1.0, [PerturbationMode(2, 1e-2, 0.0)])
        cfg = StepperConfig(
            scheme="rk4", dt=1e200, t_end=1e200, lambda_abort=1e-12, dealias_enabled=False
        )
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            run(X0, cfg)

    def test_overflowing_derivative_of_stepped_state(self, monkeypatch):
        # the second step lands on finite samples whose X'' overflows; X' and
        # X'' are first computed when the run observes that state
        s = 2.0 * np.pi * np.arange(64) / 64
        vals = np.stack([np.cos(s) + 1e304 * np.cos(30 * s), np.sin(s)], axis=1)
        assert np.all(np.isfinite(derivative(GridField(vals), 1).values))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteFieldError):
            derivative(GridField(vals), 2)
        steps = []

        def overflowing_step(X, dt, velocity):
            steps.append(X)
            return CurveState(GridField(vals)) if len(steps) == 2 else step_exp_euler(X, dt, velocity)

        monkeypatch.setitem(dynamics.SCHEMES, "exp_euler", overflowing_step)
        cfg = StepperConfig(dt=1e-2, t_end=0.05, lambda_abort=1e-12, dealias_enabled=False)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
            run(make_perturbed_circle(64, 1.0, [PerturbationMode(2, 1e-2, 0.0)]), cfg)
        assert isinstance(info.value.__cause__, NonFiniteFieldError)
        assert info.value.t == 2 * 0.01
        assert [row.t for row in info.value.rows] == [0.0, 0.01]

    @pytest.mark.parametrize("error, reported", [(DegenerateCurveError, LambdaAbortError),
                                                 (NonFiniteFieldError, NonFiniteError)])
    def test_failure_inside_a_step_is_reported_at_its_step(self, monkeypatch, error, reported):
        # the third step raises: the run has observed t = 0, dt and 2 dt, and
        # reports the failure at the step boundary the step was to reach
        dt, steps, cause = 1e-2, [], error("step 3")

        def failing_step(X, dt, velocity):
            steps.append(X)
            if len(steps) == 3:
                raise cause
            return step_exp_euler(X, dt, velocity)

        monkeypatch.setitem(dynamics.SCHEMES, "exp_euler", failing_step)
        with pytest.raises(reported) as info:
            run(make_perturbed_circle(64, 1.0, [PerturbationMode(2, 1e-2, 0.0)]), StepperConfig(dt=dt, t_end=0.05))
        assert info.value.__cause__ is cause
        assert info.value.t == 3 * dt
        assert [row.t for row in info.value.rows] == [0.0, dt, 2 * dt]
        if reported is LambdaAbortError:
            assert info.value.threshold == 0.5 * info.value.rows[0].well_stretched

    def test_rk4_first_stage_takes_the_observed_velocity(self, monkeypatch):
        # every state is observed with one velocity, which its step's first
        # stage takes; stages 2 to 4 each evaluate their own
        calls = []
        resolved = dynamics._resolved_velocity

        def counted(X):
            calls.append(X)
            return resolved(X)

        monkeypatch.setattr(dynamics, "_resolved_velocity", counted)
        steps = 5
        X0 = make_perturbed_circle(64, 1.0, [PerturbationMode(2, 1e-2, 0.0)])
        res = run(X0, StepperConfig(scheme="rk4", dt=1e-2, t_end=steps * 1e-2))
        assert len(res.rows) == steps + 1
        assert len(calls) == 4 * steps + 1

    def test_other_stepper_value_error_propagates(self, monkeypatch):
        # only non-finite samples count as blow-up; any other ValueError is a bug
        def broken_step(X, dt, velocity):
            raise ValueError("stepper defect")

        monkeypatch.setitem(dynamics.SCHEMES, "exp_euler", broken_step)
        with pytest.raises(ValueError, match="stepper defect"):
            run(make_circle(64), StepperConfig(dt=1e-2, t_end=0.1))

    def test_degenerate_blowup_reported_as_regime_exit(self):
        # violently unstable step flips orientation before reaching inf
        X0 = make_perturbed_circle(64, 1.0, [PerturbationMode(2, 1e-2, 0.0)])
        cfg = StepperConfig(scheme="rk4", dt=1.0, t_end=200.0, snapshot_every=10**6, lambda_abort=1e-12, dealias_enabled=False)
        with np.errstate(all="ignore"), pytest.raises(LambdaAbortError):
            run(X0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="scheme"):
            StepperConfig(scheme="euler")
        with pytest.raises(ValueError, match="exceeds t_end"):
            StepperConfig(dt=2.0, t_end=1.0)
        with pytest.raises(ValueError, match="lambda_abort"):
            StepperConfig(lambda_abort=0.0)
        with pytest.raises(ValueError, match="multiple"):
            run(make_circle(64), StepperConfig(dt=3e-3, t_end=1.0))

    @pytest.mark.parametrize("field, value", [
        ("dealias_cutoff", 0.0), ("dealias_cutoff", 1.5), ("krasny_floor", -1.0),
    ])
    def test_dealias_settings_validated(self, field, value):
        # rejected when the config is built, not first at a step's filter
        with pytest.raises(ValueError, match=field):
            StepperConfig(**{field: value})
        assert getattr(StepperConfig(**{field: 1.0}), field) == 1.0

    def test_dealias_default_policy(self):
        assert not StepperConfig(t_end=1.0).dealias_active()
        assert StepperConfig(t_end=1.5).dealias_active()
        assert StepperConfig(t_end=5.0, dealias_enabled=False).dealias_active() is False


def test_diagnostics_row_matches_per_quantity_calls(rng):
    # radius comes from the fit's effective radius: bitwise the same row
    X = random_smooth_curve(rng, n=128)
    u = on_curve_velocity(X)
    fit = closest_equilibrium(X)
    expected = DiagnosticsRow(
        t=0.25,
        energy=elastic_energy(X),
        dissipation=dissipation_rate(X, u),
        well_stretched=well_stretched_constant(X),
        radius=effective_radius(X),
        area=enclosed_area(X),
        dist_h1=fit_distance(X, fit, 1.0),
        dist_h52=fit_distance(X, fit, 2.5),
        theta_star=fit.theta_star,
        xstar_x=float(fit.x_star[0]),
        xstar_y=float(fit.x_star[1]),
    )
    row = diagnostics_row(0.25, X, u)
    assert np.array(astuple(row)).view(np.uint64).tolist() == np.array(astuple(expected)).view(np.uint64).tolist()


def test_diagnostics_row_makes_no_transform_and_no_circle(fft_calls, monkeypatch):
    # the fit distances come from X's spectrum memo: once X' and X'' exist,
    # a row transforms nothing and samples no fitted circle
    circles = []
    monkeypatch.setattr(equilibrium, "make_circle", lambda *args: circles.append(args))
    X = relax_curve(3)
    u = dynamics._resolved_velocity(X)
    X.xp, X.xpp
    fft_calls.clear()
    diagnostics_row(0.0, X, u)
    assert fft_calls == [] and circles == []


def near_contact_curve(n: int, neck: float) -> CurveState:
    """A degree-3 trigonometric curve whose top and bottom, half a period
    apart in s, come within 2 neck / (1 + neck) of each other at x = 0."""
    s = 2.0 * np.pi * np.arange(n) / n
    return CurveState(GridField(np.stack([np.cos(s), np.sin(s) * (neck + np.cos(s) ** 2) / (1.0 + neck)], axis=1)))


class TestResolvedVelocity:
    """The run loop's velocity: the pair sum on N_c samples, padded back to N."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        # the sample count of every pair sum the stepper evaluates, in order
        calls = []

        def counted(X):
            calls.append(X.n)
            return on_curve_velocity(X)

        monkeypatch.setattr(dynamics, "on_curve_velocity", counted)
        return calls

    @pytest.mark.parametrize("n, amp", [(256, 0.01), (1024, 0.01), (1024, 0.05)])
    def test_matches_full_velocity_below_quarter(self, rng, sizes, n, amp):
        X = random_smooth_curve(rng, n=n, amp=amp)
        u = dynamics._resolved_velocity(X)
        n_c = sizes[-1]
        assert n_c < n
        gap = mode_amplitudes(GridField(u.values - on_curve_velocity(X).values))
        # at most 1.1e-15 of the curve's scale on these cases over 11 seeds
        assert gap[: n_c // 4 + 1].max() <= 1e-14 * mode_amplitudes(X.x)[1:].max()

    def test_curve_that_needs_full_n_runs_at_full_n(self, sizes):
        # modes up to k = N/6 with amplitudes decaying from 1e-2 to 1e-10
        n = 256
        phases = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, size=(41, 2))
        modes = [
            PerturbationMode(k, 1e-2 * 10.0 ** (-0.2 * (k - 2)), 1e-2 * 10.0 ** (-0.2 * (k - 2)), *phases[k - 2])
            for k in range(2, n // 6 + 1)
        ]
        X = make_perturbed_circle(n, 1.0, modes)
        u = dynamics._resolved_velocity(X)
        assert sizes == [n]
        assert np.array_equal(u.values, on_curve_velocity(X).values)

    def test_near_contact_makes_n_c_grow(self, sizes):
        chosen = []
        for neck in (1.0, 0.3, 0.1):
            dynamics._resolved_velocity(near_contact_curve(512, neck))
            chosen.append(sizes[-1])
        assert chosen == [128, 256, 512]

    def test_run_walks_each_state_from_its_own_floor(self, sizes):
        # the initial curve's floor is 16 and its walk goes 16 -> 256; every
        # later state's band already puts its floor at 256, which passes, so
        # each of them makes one pair sum
        run(near_contact_curve(512, 0.3), StepperConfig(dt=1e-2, t_end=0.1, dealias_enabled=False))
        assert sizes == [16, 32, 64, 128] + [256] * 11

    def test_restart_from_a_state_reproduces_the_run(self):
        # a state's velocity depends on the state alone; step 174 of this
        # run is a state where a walk started from the previous state's N_c
        # picks another N_c than one from the state's own floor
        X0 = make_reparam_circle(64, 1.0, 0.3)
        cfg = dict(scheme="exp_euler", dt=1e-2, dealias_enabled=True, snapshot_every=10_000)
        whole = run(X0, StepperConfig(t_end=1.75, **cfg)).final
        head = run(X0, StepperConfig(t_end=1.74, **cfg)).final
        tail = run(head, StepperConfig(t_end=1e-2, **cfg)).final
        assert np.array_equal(tail.x.values, whole.x.values)

    def test_rk4_stages_take_the_resolved_velocity(self, sizes):
        # every RK4 stage of a run takes the resolved velocity, so a curve
        # resolved below N makes no pair sum at N; the final state stays within
        # 4.4e-16 to 5.6e-16 of full-N stages (relax curves of seeds 1-3 at
        # N = 512 and 1024)
        n, dt, steps = 512, 1e-2, 5
        X0 = relax_curve(1, n)
        res = run(X0, StepperConfig(scheme="rk4", dt=dt, t_end=steps * dt, dealias_enabled=False))
        assert sizes and max(sizes) < n
        X = X0
        for _ in range(steps):
            X = step_rk4(X, dt)
        assert np.max(np.abs(res.final.x.values - X.x.values)) <= 1e-14

    def test_translated_and_rotated_curve_same_n_c(self, rng, sizes):
        X = random_smooth_curve(rng, n=1024, amp=0.05)
        c, s = np.cos(0.7), np.sin(0.7)
        moved = [X.x.values + np.array([3.0, -2.0]), X.x.values @ np.array([[c, s], [-s, c]])]
        walks = []
        for v in [X.x.values] + moved:
            done = len(sizes)
            dynamics._resolved_velocity(CurveState(GridField(v)))
            walks.append(sizes[done:])
        assert walks[0][-1] < 1024
        assert walks[1] == walks[0] and walks[2] == walks[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relax_walks_go_32_64_128_then_128(self, sizes, seed):
        # the relax_n1024 run: the initial curve's floor is 32 and its walk
        # ends at 128; every later state's floor is 128, which passes
        run(relax_curve(seed), StepperConfig(dt=1e-2, t_end=0.4, snapshot_every=10))
        assert sizes == [32, 64, 128] + [128] * 40

    def test_fft_budget_per_relax_state(self, fft_calls):
        # every FFT of a relax_n1024 run, by sample count: per state one
        # forward transform of X at N, inverse ones for X', X'', the padded
        # velocity and phi1; at N_c the truncated curve, its X' and X'' take
        # inverse transforms only, and the velocity one forward. The curve
        # is real, so each is a real transform: an rfft or an irfft
        res = run(relax_curve(1), StepperConfig(dt=1e-2, t_end=0.4, snapshot_every=10))
        states = len(res.rows)
        sizes = [n for _, n in fft_calls]
        assert states == 41
        assert {name for name, _ in fft_calls} == {"rfft", "irfft"}
        assert sizes.count(1024) <= 5 * states
        assert sizes.count(128) <= 4 * states
