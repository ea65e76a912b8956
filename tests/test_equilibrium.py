"""Closest-equilibrium fit, energy sandwich, linearized operator and spectrum."""

import numpy as np
import pytest

from ibstring import (
    CurveState,
    GridField,
    PerturbationMode,
    closest_equilibrium,
    first_order_residual,
    h1_energy_equivalence,
    linearized_velocity,
    make_circle,
    make_perturbed_circle,
    make_reparam_circle,
    measure_decay_rate,
    mode_block,
    on_curve_velocity,
    sobolev_seminorm,
)
from ibstring.acceptance import CRITERIA, _theta_grid_search, _theta_objective, run_criterion
from ibstring import acceptance, equilibrium
from ibstring.equilibrium import fit_distance

from conftest import grid, random_band_limited, random_smooth_curve


def angle_gap(a: float, b: float) -> float:
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def phase_shifted_curves(rng, count: int = 3, n: int = 128):
    for _ in range(count):
        Y = random_smooth_curve(rng, n=n)
        # extra mode-1 content moves the optimal phase off the base angle
        bump = 0.02 * np.stack([np.cos(grid(n) + 0.4), np.sin(grid(n) - 0.7)], axis=1)
        yield CurveState(GridField(Y.x.values + bump))


def rotation_objective_oracle(X, fit, thetas):
    """The phase-search objective in elementwise rotation form: per block of
    angles, e^{i theta} R e^{i s} - z as a complex outer product, z = X - x*."""
    dev = X.x.values - fit.x_star[None, :]
    z = dev[:, 0] + 1j * dev[:, 1]
    circle = fit.radius * np.exp(1j * X.s)
    obj = np.empty(len(thetas))
    for lo in range(0, len(thetas), 500):
        rv = np.multiply.outer(np.exp(1j * thetas[lo:lo + 500]), circle) - z
        flat = rv.view(np.float64)
        obj[lo:lo + 500] = np.einsum("ij,ij->i", flat, flat)
    return obj


def criterion_8_members(count: int = 10):
    """The first members of criterion 8's ensemble (the first 10 are the ones
    it grid-searches)."""
    rng = np.random.default_rng(8)
    return [random_smooth_curve(rng, 128, amp=0.01) for _ in range(count)]


def dense_phase_scan(X, fit) -> float:
    """The dense scan the two-level search replaced, as criterion 8 ran it:
    the argmin of _theta_objective over all 100,000 phases in [0, 2pi), ties
    to the smallest angle."""
    thetas = np.linspace(0.0, 2 * np.pi, 100_000, endpoint=False)
    return float(thetas[np.argmin(_theta_objective(X, fit, thetas))])


class TestClosestEquilibrium:
    def test_fixed_point_of_family(self):
        Y = make_circle(128, 2.0, 0.7, (1.0, -1.0))
        fit = closest_equilibrium(Y)
        assert angle_gap(fit.theta_star, 0.7) < 1e-12
        assert np.allclose(fit.x_star, [1.0, -1.0], atol=1e-13)
        assert abs(fit.radius - 2.0) < 1e-12
        assert fit_distance(Y, fit, 0.0) < 1e-12
        assert not fit.degenerate

    def test_mode_three_perturbation_leaves_fit(self):
        base = closest_equilibrium(make_circle(128, 1.0, 0.4, (0.2, 0.3)))
        pert = make_perturbed_circle(128, 1.0, [PerturbationMode(3, 0.03, 0.01)])
        shifted = CurveState(
            GridField(
                pert.x.values
                - make_circle(128).x.values
                + make_circle(128, 1.0, 0.4, (0.2, 0.3)).x.values
            )
        )
        fit = closest_equilibrium(shifted)
        assert angle_gap(fit.theta_star, base.theta_star) < 1e-10
        assert np.allclose(fit.x_star, base.x_star, atol=1e-12)

    def test_matches_grid_search(self, rng):
        for Y in phase_shifted_curves(rng):
            fit = closest_equilibrium(Y)
            assert angle_gap(fit.theta_star, _theta_grid_search(Y, fit)) < 1e-4

    def test_rotation_objective_matches_trig_form(self, rng):
        # the search's rotation form against sum_j |z_j - R(cos, sin)(s_j + theta)|^2
        # evaluated directly, on a coarse grid
        thetas = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        for Y in phase_shifted_curves(rng):
            fit = closest_equilibrium(Y)
            dev = Y.x.values - fit.x_star
            arg = Y.s[None, :] + thetas[:, None]
            direct = np.sum(
                (dev[:, 0] - fit.radius * np.cos(arg)) ** 2 + (dev[:, 1] - fit.radius * np.sin(arg)) ** 2,
                axis=1,
            )
            rotated = _theta_objective(Y, fit, thetas)
            assert np.max(np.abs(rotated - direct)) < 1e-12
            assert np.argmin(rotated) == np.argmin(direct)

    @staticmethod
    def assert_phase_search_matches_oracle(curves):
        # the BLAS form against the elementwise one at all 100,000 angles
        thetas = np.linspace(0.0, 2 * np.pi, 100_000, endpoint=False)
        for Y in curves:
            fit = closest_equilibrium(Y)
            oracle = rotation_objective_oracle(Y, fit, thetas)
            rel = np.abs(_theta_objective(Y, fit, thetas) - oracle) / oracle
            assert np.max(rel) < 1e-12
            assert _theta_grid_search(Y, fit) == thetas[np.argmin(oracle)]

    def test_phase_search_matches_oracle_on_criterion_8(self):
        self.assert_phase_search_matches_oracle(criterion_8_members())

    @pytest.mark.parametrize("n", [128, 256])
    def test_phase_search_matches_oracle_on_random_curves(self, rng, n):
        self.assert_phase_search_matches_oracle([random_smooth_curve(rng, n), *phase_shifted_curves(rng, 2, n)])

    def test_fit_quality_criterion_report(self):
        # criterion 8's figures, pinned to the text of the trig-form search
        (c8,) = [c for c in CRITERIA if c.number == 8]
        assert run_criterion(c8).detail == (
            "max |theta* - grid search| over 10 members: 2.27e-05 rad (< 1e-4); "
            "max first-order residual over 100: 5.79e-15 (< 1e-10)"
        )

    def test_degenerate_flag(self):
        # circle content removed: only k = 0, 2 modes remain
        s = grid(128)
        vals = np.stack([0.1 * np.cos(2 * s), 0.1 * np.sin(2 * s)], axis=1)
        vals += np.array([0.5, 0.5])
        fit = closest_equilibrium(CurveState(GridField(vals)))
        assert fit.degenerate
        assert fit.theta_star == 0.0

    def test_idempotent(self, rng):
        Y = random_smooth_curve(rng, n=128)
        fit = closest_equilibrium(Y)
        refit = closest_equilibrium(CurveState(fit.x_star_samples))
        assert angle_gap(refit.theta_star, fit.theta_star) < 1e-10
        assert np.allclose(refit.x_star, fit.x_star, atol=1e-12)
        assert abs(refit.radius - fit.radius) < 1e-12
        assert fit_distance(CurveState(fit.x_star_samples), refit, 0.0) < 1e-10

    def test_phase_optimal_in_every_order(self, rng):
        # the L2-optimal phase also minimizes each homogeneous seminorm
        Y = random_smooth_curve(rng, n=128)
        fit = closest_equilibrium(Y)
        for order in (0.0, 1.0, 2.5):
            d_star = fit_distance(Y, fit, order)
            for theta in np.linspace(0, 2 * np.pi, 37):
                other = make_circle(128, fit.radius, theta, fit.x_star)
                d = sobolev_seminorm(GridField(Y.x.values - other.x.values), order)
                assert d_star <= d + 1e-12


@pytest.fixture
def searched_phases(monkeypatch):
    """Number of phases each _theta_objective call evaluates, in order; the
    phase search evaluates every phase through it."""
    counts = []
    objective = acceptance._theta_objective

    def counted(X, fit, thetas):
        counts.append(len(thetas))
        return objective(X, fit, thetas)

    monkeypatch.setattr(acceptance, "_theta_objective", counted)
    return counts


def assert_search_is_dense_scan(curves) -> None:
    for X in curves:
        fit = closest_equilibrium(X)
        assert _theta_grid_search(X, fit) == dense_phase_scan(X, fit)


class TestPhaseSearch:
    """The two-level phase search returns the dense scan's angle bit for bit
    and evaluates a small share of the 100,000 phases."""

    def test_all_criterion_8_members(self):
        assert_search_is_dense_scan(criterion_8_members(100))

    def test_phase_i_is_the_linspace_value(self):
        # the search forms phase i as i (2 pi / 100,000) and stores no other
        phases = np.linspace(0.0, 2 * np.pi, 100_000, endpoint=False)
        assert np.array_equal(np.arange(100_000) * (2 * np.pi / 100_000), phases)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_exact_circles(self, n):
        # the minimum is at rounding level and the bound is tight: sqrt O is
        # |c| |e^{i theta} - e^{i theta*}|. Phases a tenth and a fifth of a
        # coarse step past a coarse phase, halfway between two, and on one
        step = 2 * np.pi / 1000
        phases = [(k + f) * step for k, f in ((0, 0.1), (137, 0.2), (500, 0.5), (999, 0.9), (731, 0.0))]
        assert_search_is_dense_scan(make_circle(n, 1.3, theta, (0.2, -0.1)) for theta in phases)

    def test_random_curves_at_n_256(self, rng):
        assert_search_is_dense_scan([random_smooth_curve(rng, 256), *phase_shifted_curves(rng, 3, 256)])

    @pytest.mark.parametrize("scale", [1e-150, 1e-120, 1e-100, 1e100, 1e150])
    def test_scaled_copies(self, scale):
        # at 1e-150 the values sit below the pruning floor and nothing is
        # pruned; at 1e-120 they lie just above it, and at 1e150 near 1e300
        curves = [*criterion_8_members(3), make_circle(128, 1.0, 0.4)]
        assert_search_is_dense_scan(CurveState(GridField(scale * X.x.values)) for X in curves)

    def test_subnormal_values_prune_nothing(self):
        # at 1e-160 the values of these circles are subnormal and carry no
        # relative accuracy; the floor keeps every phase
        circles = (make_circle(32, 1.0, theta) for theta in (0.4, 2.5))
        assert_search_is_dense_scan(CurveState(GridField(1e-160 * X.x.values)) for X in circles)

    def test_objective_bits_independent_of_the_block(self, rng):
        # the search evaluates subsets of the phases, down to a block of one
        X = criterion_8_members(1)[0]
        fit = closest_equilibrium(X)
        thetas = np.linspace(0.0, 2 * np.pi, 100_000, endpoint=False)
        full = _theta_objective(X, fit, thetas)
        for i in range(0, len(thetas), 997):  # one-phase blocks (numpy's gemv rounds some differently)
            assert _theta_objective(X, fit, thetas[i:i + 1])[0] == full[i]
        for size in (2, 3, 99, 513, 1000, 1025):
            for _ in range(5):
                idx = np.sort(rng.choice(len(thetas), size, replace=False))
                assert np.array_equal(_theta_objective(X, fit, thetas[idx]), full[idx])

    def test_criterion_8_evaluates_at_most_three_percent(self, searched_phases):
        for X in criterion_8_members():
            searched_phases.clear()
            _theta_grid_search(X, closest_equilibrium(X))
            assert 1000 <= sum(searched_phases) <= 0.03 * 100_000


class TestFitDistance:
    @staticmethod
    def sample_distance(Y, fit, order):
        """The seminorm of Y - Y* from samples of the fitted circle."""
        circle = make_circle(Y.n, fit.radius, fit.theta_star, fit.x_star)
        return sobolev_seminorm(GridField(Y.x.values - circle.x.values), order)

    @pytest.mark.parametrize("n", [64, 128, 1024])
    def test_spectrum_matches_samples(self, rng, n):
        # Y*'s modes 0 and +-1 replaced in Y's transform, against a transform
        # of the sampled difference
        curves = [random_smooth_curve(rng, n=n) for _ in range(3)]
        curves += [*phase_shifted_curves(rng, 2, n), make_reparam_circle(n, 1.0, 0.5),
                   make_reparam_circle(n, 1.0, 0.9)]
        for Y in curves:
            fit = closest_equilibrium(Y)
            for order in (0.0, 1.0, 2.5):
                expected = self.sample_distance(Y, fit, order)
                assert abs(fit_distance(Y, fit, order) - expected) <= 1e-13 * expected

    def test_samples_built_on_demand(self, monkeypatch):
        # a fit makes no circle until its samples are read
        Y = make_reparam_circle(64, 1.0, 0.5)
        circles = []
        monkeypatch.setattr(equilibrium, "make_circle", lambda *args: circles.append(args) or make_circle(*args))
        fit = closest_equilibrium(Y)
        fit_distance(Y, fit, 1.0)
        assert circles == []
        assert fit.x_star_samples is fit.x_star_samples and len(circles) == 1
        assert np.array_equal(fit.x_star_samples.values,
                              make_circle(64, fit.radius, fit.theta_star, fit.x_star).x.values)


class TestFirstOrderResidual:
    def test_circle_zero(self):
        Y = make_circle(128)
        assert abs(first_order_residual(Y, closest_equilibrium(Y))) < 1e-14

    def test_fit_residual_small(self, rng):
        for _ in range(5):
            Y = random_smooth_curve(rng, n=128)
            assert abs(first_order_residual(Y, closest_equilibrium(Y))) < 1e-10

    def test_misfit_detected(self, rng):
        Y = random_smooth_curve(rng, n=128)
        fit = closest_equilibrium(Y)
        wrong = closest_equilibrium(make_circle(128, fit.radius, fit.theta_star + 0.1, fit.x_star))
        assert abs(first_order_residual(Y, wrong)) > 1e-4


class TestEnergySandwich:
    def test_circle_triple_is_zero(self):
        lhs, mid, rhs = h1_energy_equivalence(make_circle(128))
        assert max(abs(lhs), abs(mid), abs(rhs)) < 1e-12

    def test_mode_two_strict(self):
        Y = make_perturbed_circle(128, 1.0, [PerturbationMode(2, 1e-2, 0.0)])
        lhs, mid, rhs = h1_energy_equivalence(Y)
        assert lhs < mid < rhs
        assert lhs > 0

    def test_random_ensemble(self, rng):
        for _ in range(20):
            Y = random_smooth_curve(rng, n=128)
            lhs, mid, rhs = h1_energy_equivalence(Y)
            assert lhs <= mid + 1e-12
            assert mid <= rhs + 1e-12


class TestLinearizedVelocity:
    def test_constant_maps_to_zero(self):
        D = GridField(np.full((64, 2), 1.3))
        assert np.max(np.abs(linearized_velocity(D).values)) < 1e-14

    def test_neutral_modes_in_kernel(self):
        s = grid(64)
        # rotation generator of the circle family and the two translations
        generators = [
            np.stack([-np.sin(s), np.cos(s)], axis=1),
            np.stack([np.ones(64), np.zeros(64)], axis=1),
            np.stack([np.zeros(64), np.ones(64)], axis=1),
        ]
        for gen in generators:
            out = linearized_velocity(GridField(gen))
            assert np.max(np.abs(out.values)) < 1e-13

    def test_single_mode_matches_block(self, rng):
        n = 64
        s = grid(n)
        for k in (1, 2, 5):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            coeffs = np.zeros((n, 2), dtype=complex)
            coeffs[k] = amps
            coeffs[-k] = np.conj(amps)
            vals = np.real(np.fft.ifft(coeffs * n, axis=0))
            out = linearized_velocity(GridField(vals))
            out_hat = np.fft.fft(out.values, axis=0) / n
            expected = mode_block(k).block @ amps
            assert np.max(np.abs(out_hat[k] - expected)) < 1e-13

    def test_output_mean_zero(self, rng):
        D = random_band_limited(rng, 64, kmax=10)
        out = linearized_velocity(D)
        assert np.max(np.abs(out.values.mean(axis=0))) < 1e-14

    def test_richardson_against_nonlinear(self, rng):
        D = random_band_limited(rng, 256, kmax=6, scale=0.2)
        LD = linearized_velocity(D).values
        circle = make_circle(256)
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            X = CurveState(GridField(circle.x.values + eps * D.values))
            u = on_curve_velocity(X).values
            errs.append(np.max(np.abs(u - eps * LD)))
        slope = np.log(errs[0] / errs[2]) / np.log(4.0)
        assert slope >= 1.9


class TestModeBlock:
    def test_zero_mode(self):
        blk = mode_block(0)
        assert np.max(np.abs(blk.block)) == 0.0
        assert blk.eigenvalues == (0.0, 0.0)

    def test_mode_one(self):
        assert mode_block(1).eigenvalues == (-0.5, 0.0)

    def test_mode_two(self):
        assert mode_block(2).eigenvalues == (-0.75, -0.25)

    def test_hermitian_and_eigen_consistency(self):
        for k in (-3, -1, 0, 1, 2, 7):
            blk = mode_block(k)
            assert np.allclose(blk.block, blk.block.conj().T)
            eig = np.sort(np.linalg.eigvalsh(blk.block))
            assert np.allclose(eig, blk.eigenvalues, atol=1e-14)


class TestDecayRate:
    def test_synthetic_exponential(self):
        t = np.linspace(0, 10, 101)
        v = 3.7 * np.exp(-0.25 * t)
        assert abs(measure_decay_rate(t, v, (2.0, 8.0)) - 0.25) < 1e-10

    def test_nonpositive_rejected(self):
        t = np.linspace(0, 1, 11)
        v = np.linspace(1, -0.1, 11)
        with pytest.raises(ValueError, match="positive"):
            measure_decay_rate(t, v, (0.0, 1.0))

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="fewer than two"):
            measure_decay_rate([0.0, 1.0], [1.0, 0.5], (2.0, 3.0))
