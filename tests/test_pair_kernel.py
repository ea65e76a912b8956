"""Row-blocked pair kernel against the dense (N, N) kernels it replaced."""

import json
import tracemalloc

import numpy as np
import pytest

from ibstring import (
    CurveState,
    GridField,
    StepperConfig,
    closest_equilibrium,
    forcing_derivative_quadrature,
    make_reparam_circle,
    on_curve_velocity,
    run,
    well_stretched_constant,
)
from ibstring import acceptance, cli_io, curve
from ibstring.curve import _BLOCK_ROWS, DegenerateCurveError, _pair_blocks
from ibstring.stokeslet import _tau_factor

from conftest import random_smooth_curve, relax_curve, run_with_blas_threads

_FOUR_PI = 4.0 * np.pi

# 30, 34 and 66 leave a partial last block; 8 is a single partial block
SIZES = (8, 30, 34, 66, 256, 1024)


# ---------------------------------------------------------------------------
# dense oracle: every pair matrix materialized at once
# ---------------------------------------------------------------------------

def _wrap(offset: np.ndarray) -> np.ndarray:
    """Wrap a torus offset into [-pi, pi)."""
    return (offset + np.pi) % (2.0 * np.pi) - np.pi


def dense_tau(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair offsets tau[j, j'] in [-pi, pi) and 1/tau with 1.0 on the diagonal."""
    s = 2.0 * np.pi * np.arange(n) / n
    tau = _wrap(s[None, :] - s[:, None])
    np.fill_diagonal(tau, 0.0)
    inv = tau.copy()
    np.fill_diagonal(inv, 1.0)
    return tau, 1.0 / inv


def dense_pair_components(X: CurveState):
    """(N, N) components of L and M with the diagonal limits X', X'', and |L|^2."""
    v, vp, vpp = X.x.values, X.xp.values, X.xpp.values
    inv_tau = dense_tau(X.n)[1]
    idx = np.arange(X.n)
    Lx = (v[None, :, 0] - v[:, None, 0]) * inv_tau
    Ly = (v[None, :, 1] - v[:, None, 1]) * inv_tau
    Mx = (vp[None, :, 0] - vp[:, None, 0]) * inv_tau
    My = (vp[None, :, 1] - vp[:, None, 1]) * inv_tau
    Lx[idx, idx] = vp[:, 0]
    Ly[idx, idx] = vp[:, 1]
    Mx[idx, idx] = vpp[:, 0]
    My[idx, idx] = vpp[:, 1]
    return Lx, Ly, Mx, My, Lx * Lx + Ly * Ly


def dense_on_curve_velocity(X: CurveState) -> np.ndarray:
    Lx, Ly, Mx, My, L2 = dense_pair_components(X)
    vp, vpp = X.xp.values, X.xpp.values
    ax = vp[:, 0][None, :]
    ay = vp[:, 1][None, :]
    inv = 1.0 / L2
    La = (Lx * ax + Ly * ay) * inv
    LM = (Lx * Mx + Ly * My) * inv
    aM = (ax * Mx + ay * My) * inv
    c4 = 2.0 * La * LM
    ux = La * Mx - LM * ax - aM * Lx + c4 * Lx
    uy = La * My - LM * ay - aM * Ly + c4 * Ly
    idx = np.arange(X.n)
    ux[idx, idx] = vpp[:, 0]
    uy[idx, idx] = vpp[:, 1]
    return X.h * np.stack([ux.sum(axis=1), uy.sum(axis=1)], axis=1) / _FOUR_PI


def dense_forcing_derivative_quadrature(X: CurveState) -> np.ndarray:
    Lx, Ly, Mx, My, L2 = dense_pair_components(X)
    vp = X.xp.values
    tau, inv_tau = dense_tau(X.n)
    ax = vp[:, 0][None, :]
    ay = vp[:, 1][None, :]
    bx = vp[:, 0][:, None]
    by = vp[:, 1][:, None]
    Nx = (Lx - bx) * inv_tau
    Ny = (Ly - by) * inv_tau
    inv = 1.0 / L2
    LM = Lx * Mx + Ly * My
    LN = Lx * Nx + Ly * Ny
    La = Lx * ax + Ly * ay
    Lb = Lx * bx + Ly * by
    NM = Nx * Mx + Ny * My
    Na = Nx * ax + Ny * ay
    MM = Mx * Mx + My * My
    bLN = (bx - Lx) * Nx + (by - Ly) * Ny
    c_M = bLN * inv - 2.0 * LN * Lb * inv**2 - _tau_factor(tau)
    c_b = (MM - 2.0 * NM) * inv + 2.0 * LN * LM * inv**2
    c_L = (
        2.0 * LM * (LM - LN) * Lb * inv**3
        + 2.0 * (NM - MM) * Lb * inv**2
        - 6.0 * LM * La * LN * inv**3
        + 2.0 * NM * La * inv**2
        + 2.0 * LM * Na * inv**2
    )
    c_N = 2.0 * LM * La * inv**2
    gx = c_M * Mx + c_b * bx + c_L * Lx + c_N * Nx
    gy = c_M * My + c_b * by + c_L * Ly + c_N * Ny
    idx = np.arange(X.n)
    gx[idx, idx] = 0.0
    gy[idx, idx] = 0.0
    return X.h * np.stack([gx.sum(axis=1), gy.sum(axis=1)], axis=1) / _FOUR_PI


def full_pair_well_stretched_constant(X: CurveState) -> float:
    """The row-blocked pass over every ordered pair that the offset-major pass
    replaced: min of |w|^2 (1/tau)^2 per block, the sqrt of the minimum, and
    0.0 on a coincident pair or a vanishing tangent."""
    (x, y), (ax, ay) = X.x.values.T.copy(), X.xp.values.T.copy()
    speed_sq = ax * ax + ay * ay
    lam_sq = np.inf
    inv_rows = curve._offset_rows(X.n)[1]
    for rows, diag in curve._row_blocks(X.n):
        inv_tau = inv_rows[rows]
        wx = x - x[rows, None]
        wy = y - y[rows, None]
        w2 = wx * wx
        w2 += wy * wy
        ratio = inv_tau * inv_tau
        ratio *= w2
        ratio[diag] = np.inf
        lam_sq = min(lam_sq, float(ratio.min()))
        if lam_sq <= 0.0 or float(speed_sq[rows].min()) <= 0.0:
            return 0.0
    return float(np.sqrt(lam_sq))


def dense_well_stretched_constant(X: CurveState) -> float:
    """min over j != j' of |X_j' - X_j| / torus distance, from the definition."""
    v, n = X.x.values, X.n
    idx = np.arange(n)
    sep = np.abs(idx[None, :] - idx[:, None])
    torus = np.minimum(sep, n - sep) * (2.0 * np.pi / n)
    np.fill_diagonal(torus, np.inf)
    dx = v[None, :, 0] - v[:, None, 0]
    dy = v[None, :, 1] - v[:, None, 1]
    ratio_sq = (dx * dx + dy * dy) / torus**2
    np.fill_diagonal(ratio_sq, np.inf)
    return float(np.sqrt(ratio_sq.min()))


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
class TestBlockedAgainstDense:
    def test_velocity(self, rng, n):
        X = random_smooth_curve(rng, n=n)
        assert np.max(np.abs(on_curve_velocity(X).values - dense_on_curve_velocity(X))) <= 1e-15

    def test_forcing_derivative(self, rng, n):
        X = random_smooth_curve(rng, n=n)
        dense = dense_forcing_derivative_quadrature(X)
        gap = np.max(np.abs(forcing_derivative_quadrature(X).values - dense))
        assert gap <= 1e-12 * np.max(np.abs(dense))

    def test_well_stretched_three_ways(self, rng, n):
        # the offset-major pass against the full ordered-pair pass, bitwise,
        # and against the dense definition
        for X in (random_smooth_curve(rng, n=n), make_reparam_circle(n, 1.0, 0.5)):
            lam = well_stretched_constant(X)
            assert lam == full_pair_well_stretched_constant(X)
            assert well_stretched_constant(CurveState(X.x)) == lam
            assert abs(lam - dense_well_stretched_constant(X)) <= 1e-15


class TestBlockAndBlasIndependence:
    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_any_block_size_matches_dense(self, rng, monkeypatch, rows):
        monkeypatch.setattr(curve, "_BLOCK_ROWS", rows)
        for n in (8, 30, 66, 256):
            X = random_smooth_curve(rng, n=n)
            assert np.max(np.abs(on_curve_velocity(X).values - dense_on_curve_velocity(X))) <= 1e-15

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_forcing_derivative_any_block_size_bitwise(self, rng, monkeypatch, rows):
        # every product is elementwise and every row sum runs along one row
        curves = [random_smooth_curve(rng, n=n) for n in (8, 30, 66, 256)]
        default = [forcing_derivative_quadrature(X).values for X in curves]
        monkeypatch.setattr(curve, "_BLOCK_ROWS", rows)
        for X, ref in zip(curves, default):
            assert np.array_equal(forcing_derivative_quadrature(CurveState(X.x)).values, ref)

    def test_fresh_states_bitwise_equal(self, rng):
        X = random_smooth_curve(rng, n=1024)
        first = on_curve_velocity(CurveState(X.x)).values
        assert np.array_equal(first, on_curve_velocity(CurveState(X.x)).values)

    def test_blas_thread_count_keeps_bytes(self):
        # one child process per count, since OpenBLAS reads it when it loads;
        # at N = 4096 a block's (32, N) @ (N, 2) product may run threaded
        code = (
            "import hashlib, numpy as np\n"
            "from ibstring import on_curve_velocity\n"
            "from ibstring.acceptance import random_smooth_curve\n"
            "X = random_smooth_curve(np.random.default_rng(5), n=4096, amp=0.01)\n"
            "print(hashlib.sha256(on_curve_velocity(X).values.tobytes()).hexdigest())\n"
        )
        digests = {run_with_blas_threads(threads, ["-c", code]).stdout for threads in (1, 2)}
        assert len(digests) == 1


class TestBlockedKernelGuards:
    def test_coincident_pair_in_last_block(self, rng):
        n = 66
        v = random_smooth_curve(rng, n=n).x.values.copy()
        v[n - 1] = v[n - 2]
        X = CurveState(GridField(v))
        n_blocks = -(-n // _BLOCK_ROWS)
        blocks = _pair_blocks(X)
        for _ in range(n_blocks - 1):
            next(blocks)
        with pytest.raises(DegenerateCurveError):
            next(blocks)
        with pytest.raises(DegenerateCurveError):
            on_curve_velocity(X)
        assert well_stretched_constant(X) == 0.0

    @pytest.mark.parametrize(
        "n, offset",
        [(66, 1), (66, 7), (66, 33), (1024, 1), (1024, 7), (1024, 17), (1024, 509), (1024, 512)],
        ids=["1", "7", "33", "1024-1", "1024-7", "1024-17", "1024-509", "1024-512"],
    )
    def test_well_stretched_zero_on_coincident_samples(self, rng, n, offset):
        # offset N/2 is the one offset whose pairs the pass meets twice; at
        # N = 1024 all but N/2 lie off the coarse offsets 16, 32, ..
        v = random_smooth_curve(rng, n=n).x.values.copy()
        v[(5 + offset) % n] = v[5]
        X = CurveState(GridField(v))
        assert well_stretched_constant(X) == 0.0 == full_pair_well_stretched_constant(X)

    def test_velocity_memory_is_row_blocked(self, rng):
        X = random_smooth_curve(rng, n=1024)
        tracemalloc.start()
        try:
            on_curve_velocity(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_criterion_5_reduces_each_block_as_it_arrives(self):
        # all 652,800 pair gaps of its 10 curves, kept to one max, took 11.3 MB
        tracemalloc.start()
        try:
            passed, _ = acceptance._c5_integrand_algebra()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed and peak < 3e6

    def test_phase_search_stores_only_the_phases_it_evaluates(self):
        # a value per phase of the 100,000 and their angles took 2.6 MB
        X = random_smooth_curve(np.random.default_rng(8), 128, amp=0.01)  # criterion 8's first member
        fit = closest_equilibrium(X)
        tracemalloc.start()
        try:
            acceptance._theta_grid_search(X, fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


# ---------------------------------------------------------------------------
# the pruned well-stretched pass (N >= 512): coarse offsets, then the offsets
# a Lipschitz bound cannot exclude
# ---------------------------------------------------------------------------

def star_polygon(rng, n: int) -> CurveState:
    """A random star-shaped polygon (3 to 23 corners at radii 0.1 to 1)
    sampled uniformly in arclength, from a random starting point."""
    corners = rng.integers(3, 24)
    angle = np.sort(rng.uniform(0.0, 2.0 * np.pi, corners))
    radius = rng.uniform(0.1, 1.0, corners)
    p = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    p = np.vstack([p, p[:1]])
    arc = np.r_[0.0, np.cumsum(np.hypot(*np.diff(p, axis=0).T))]
    s = (np.arange(n) + rng.uniform()) * (arc[-1] / n)
    return CurveState(GridField(np.stack([np.interp(s, arc, p[:, 0]), np.interp(s, arc, p[:, 1])], axis=1)))


class TestPrunedWellStretched:
    @pytest.mark.parametrize("n", [512, 1000, 2048, 4096])
    def test_bitwise_full_pass(self, rng, n):
        # 1000 leaves N/2 off the multiples of the stride 15
        for X in (random_smooth_curve(rng, n=n), make_reparam_circle(n, 1.0, 0.5),
                  make_reparam_circle(n, 1.0, 0.9)):
            assert well_stretched_constant(X) == full_pair_well_stretched_constant(X)

    @pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e154, 3e154, 1e155])
    def test_bitwise_full_pass_near_the_double_range_limits(self, scale):
        # from 1e154 on the longest chords' |w|^2 overflow to inf, near 1e-150
        # the squared ratios approach the subnormal range, and at 1e-160 the
        # shortest chords' |w|^2 underflow to 0, below the pruning floor
        for X in (make_reparam_circle(1024, 1.0, 0.0), make_reparam_circle(1024, 1.0, 0.9)):
            X = CurveState(GridField(scale * X.x.values))
            with np.errstate(over="ignore"):
                assert well_stretched_constant(X) == full_pair_well_stretched_constant(X)

    def test_star_polygons(self, rng):
        # along a straight edge the chords grow by the largest sample spacing c
        # per offset, so the bound is nearly tight there: with half of c it
        # skips the minimising offset of 4 of these 20 curves
        for _ in range(20):
            X = star_polygon(rng, 1024)
            assert well_stretched_constant(X) == full_pair_well_stretched_constant(X)

    def test_relax_run_states_bitwise(self):
        # every state of the relax_n1024 run for seed 1, and its diagnostics rows
        res = run(relax_curve(1), StepperConfig(dt=0.01, t_end=0.4, snapshot_every=1))
        assert len(res.snapshots) == len(res.rows) == 41
        for (_, _, X), row in zip(res.snapshots, res.rows):
            assert row.well_stretched == full_pair_well_stretched_constant(X)
            assert well_stretched_constant(CurveState(X.x)) == row.well_stretched

    @pytest.mark.parametrize("offset", [37, 509])
    def test_minimum_off_the_coarse_offsets(self, rng, offset):
        # pull one sample towards another, so that the smallest ratio sits at
        # an offset the coarse level skips
        n = 1024
        v = random_smooth_curve(rng, n=n).x.values.copy()
        v[100 + offset] = v[100] + 0.02 * (v[100 + offset] - v[100])
        X = CurveState(GridField(v))
        k = np.arange(1, n // 2 + 1)
        per_offset = [np.min(np.sum((np.roll(v, -j, axis=0) - v) ** 2, axis=1)) for j in k]
        assert k[np.argmin(per_offset / (k * X.h) ** 2)] % (n // curve._COARSE_OFFSETS) != 0
        assert well_stretched_constant(X) == full_pair_well_stretched_constant(X)

    def test_bound_prunes_relax_curves(self, monkeypatch):
        # a bound that never excludes an offset would pass every test above
        evaluated = []
        chord_minima = curve._min_chord_sq

        def counted(windows, xy, offsets, min_w2, work):
            evaluated.append(len(offsets))
            chord_minima(windows, xy, offsets, min_w2, work)

        monkeypatch.setattr(curve, "_min_chord_sq", counted)
        for seed in (1, 2, 3):
            X = relax_curve(seed)
            evaluated.clear()
            well_stretched_constant(X)
            assert sum(evaluated) <= 0.25 * (X.n // 2)


# ---------------------------------------------------------------------------
# the pass seeded with the chord bounds another state's pass left
# ---------------------------------------------------------------------------

@pytest.fixture
def evaluated(monkeypatch):
    """The number of offsets of every _min_chord_sq call, in order."""
    counts = []
    chord_minima = curve._min_chord_sq

    def counted(windows, xy, offsets, min_w2, work):
        counts.append(len(offsets))
        chord_minima(windows, xy, offsets, min_w2, work)

    monkeypatch.setattr(curve, "_min_chord_sq", counted)
    return counts


def seeded(X: CurveState, source: CurveState) -> CurveState:
    """A fresh state of X's samples whose pass starts from source's bounds."""
    well_stretched_constant(source)
    fresh = CurveState(X.x)
    fresh.seed_well_stretched(source)
    return fresh


class TestCarriedWellStretched:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme, dealias", [("exp_euler", False), ("rk4", False), ("exp_euler", True)],
                             ids=["exp_euler", "rk4", "dealiased"])
    def test_every_state_of_a_relax_run_bitwise(self, evaluated, seed, scheme, dealias):
        # a run hands each state the previous state's bounds
        cfg = StepperConfig(scheme=scheme, dt=0.01, t_end=0.4, dealias_enabled=dealias, snapshot_every=1)
        res = run(relax_curve(seed), cfg)
        assert len(res.snapshots) == len(res.rows) == 41
        # a carry that never prunes would pass the check below; the first
        # state takes the coarse level, about 45 offsets, the others 1 to 7
        assert sum(evaluated) <= 4 * len(res.rows)
        for (_, _, X), row in zip(res.snapshots, res.rows):
            assert row.well_stretched == full_pair_well_stretched_constant(X)

    def test_every_row_of_a_five_mode_simulate_run(self, tmp_path):
        # the written lambda of each diagnostics row against a fresh pass on
        # the snapshot of its state, as read back from disk
        modes = [
            {"k": 2, "amp_x": 0.012, "amp_y": -0.006, "phase_y": 0.7},
            {"k": 3, "amp_x": -0.005, "amp_y": 0.008, "phase_x": 1.9},
            {"k": 4, "amp_x": 0.004, "amp_y": 0.003, "phase_y": 4.1},
            {"k": 5, "amp_x": -0.003, "amp_y": -0.004, "phase_x": 2.6},
            {"k": 6, "amp_x": 0.002, "amp_y": 0.002, "phase_x": 5.3, "phase_y": 0.2},
        ]
        config = {"grid_n": 1024, "dt": 0.01, "t_end": 0.04, "snapshot_every": 1, "output_dir": str(tmp_path / "out"),
                  "initial": {"kind": "perturbed_circle", "modes": modes}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli_io.main(["simulate", str(tmp_path / "config.json")]) == 0
        header, *lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        column = header.split(",").index("lambda")
        snaps = sorted((tmp_path / "out").glob("snap_*.csv"))
        assert len(snaps) == len(lines) == 5
        for snap, line in zip(snaps, lines):
            fresh = "%.17g" % well_stretched_constant(CurveState(cli_io.read_snapshot(snap).x))
            assert fresh == line.split(",")[column], snap.name

    def test_unrelated_source_bitwise(self, rng):
        for n in (512, 1024):
            for X in (random_smooth_curve(rng, n=n), make_reparam_circle(n, 1.0, 0.9), star_polygon(rng, n)):
                for source in (X, random_smooth_curve(rng, n=n), make_reparam_circle(n, 2.0, 0.5),
                               star_polygon(rng, n)):
                    assert well_stretched_constant(seeded(X, source)) == full_pair_well_stretched_constant(X)

    def test_source_of_another_n_is_ignored(self, evaluated):
        X = relax_curve(2)
        well_stretched_constant(CurveState(X.x))
        unseeded = list(evaluated)
        for m in (512, 2048):
            evaluated.clear()
            assert well_stretched_constant(seeded(X, relax_curve(2, m))) == well_stretched_constant(X)
            assert evaluated[-len(unseeded):] == unseeded

    def test_sources_near_the_double_range_limits_bitwise(self):
        curves = [CurveState(GridField(scale * make_reparam_circle(1024, 1.0, beta).x.values))
                  for scale in (1.0, 1e-150, 1e154, 3e154, 1e155) for beta in (0.0, 0.9)]
        with np.errstate(over="ignore"):
            full = [full_pair_well_stretched_constant(X) for X in curves]
            for X, lam in zip(curves, full):
                for source in curves:
                    assert well_stretched_constant(seeded(X, source)) == lam
