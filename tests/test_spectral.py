"""Fourier toolkit: transforms, multipliers, seminorms, dealiasing."""

import dataclasses

import numpy as np
import pytest

from ibstring import spectral
from ibstring.spectral import (
    GridField,
    dealias,
    derivative,
    fractional_laplacian_half,
    from_spectral,
    hilbert_transform,
    mean,
    mode_amplitudes,
    resample_field,
    semigroup_apply,
    semigroup_phi1,
    sobolev_seminorm,
    to_spectral,
)

from conftest import grid, pv_half_laplacian, pv_hilbert, random_band_limited


def field(fx, fy, n=64):
    s = grid(n)
    return GridField(np.stack([fx(s), fy(s)], axis=1))


class TestTransforms:
    def test_constant_field_coefficients(self):
        f = field(lambda s: 0 * s + 1.7, lambda s: 0 * s + 1.7)
        c = to_spectral(f)
        assert np.allclose(c[0], [1.7, 1.7], atol=1e-14)
        assert np.max(np.abs(c[1:])) < 1e-14

    def test_single_mode_support(self):
        f = field(np.cos, lambda s: 0 * s)
        c = to_spectral(f)
        nonzero = np.where(np.max(np.abs(c), axis=1) > 1e-13)[0]
        assert set(nonzero) == {1, 63}  # k = +1 and k = -1

    def test_random_round_trip(self, rng):
        f = GridField(rng.normal(size=(128, 2)))
        back = from_spectral(to_spectral(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_reality_invariant(self, rng):
        c = to_spectral(GridField(rng.normal(size=(64, 2))))
        # coeff(-k) = conj(coeff(k)), and the Nyquist coefficient is real
        assert np.max(np.abs(c[(-np.arange(64)) % 64] - np.conj(c))) < 1e-13
        assert np.max(np.abs(c[32].imag)) < 1e-13

    def test_coefficients_read_only(self, rng):
        c = to_spectral(GridField(rng.normal(size=(16, 2))))
        assert c.shape == (16, 2) and c.dtype == complex
        with pytest.raises(ValueError):
            c[0, 0] = 0.0

    def test_from_spectral_validates_through_grid_field(self):
        with pytest.raises(ValueError, match="N must be even and >= 8, got 9"):
            from_spectral(np.zeros((9, 2), dtype=complex))
        with pytest.raises(ValueError, match=r"expected shape \(N, 2\), got \(16, 3\)"):
            from_spectral(np.zeros((16, 3), dtype=complex))
        with pytest.raises(ValueError, match=r"expected shape \(N, 2\), got \(16,\)"):
            from_spectral(np.zeros(16, dtype=complex))

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            GridField(np.zeros((9, 2)))
        with pytest.raises(ValueError, match="N must be"):
            GridField(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="finite"):
            GridField(np.full((16, 2), np.nan))

    def test_immutability(self):
        f = field(np.cos, np.sin)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestDerivative:
    def test_circle_tangent(self):
        f = field(np.cos, np.sin)
        d = derivative(f, 1)
        s = grid(64)
        assert np.allclose(d.values, np.stack([-np.sin(s), np.cos(s)], axis=1), atol=1e-13)

    def test_second_derivative_mode_two(self):
        f = field(lambda s: np.cos(2 * s), lambda s: 0 * s)
        d = derivative(f, 2)
        s = grid(64)
        assert np.allclose(d.values[:, 0], -4.0 * np.cos(2 * s), atol=1e-12)
        assert np.max(np.abs(d.values[:, 1])) < 1e-12

    def test_constant_any_order(self):
        f = field(lambda s: 0 * s + 3.0, lambda s: 0 * s - 2.0)
        for m in (1, 2, 3):
            assert np.max(np.abs(derivative(f, m).values)) < 1e-12

    def test_order_validation(self):
        with pytest.raises(ValueError, match="order"):
            derivative(field(np.cos, np.sin), 0)


class TestHalfLaplacian:
    def test_mode_three_multiplier(self):
        f = field(lambda s: np.cos(3 * s), lambda s: 0 * s)
        out = fractional_laplacian_half(f)
        assert np.allclose(out.values[:, 0], 3.0 * np.cos(3 * grid(64)), atol=1e-12)

    def test_annihilates_constant(self):
        f = field(lambda s: 0 * s + 5.0, lambda s: 0 * s + 5.0)
        assert np.max(np.abs(fractional_laplacian_half(f).values)) < 1e-13

    def test_against_pv_quadrature_oracle(self):
        # smooth band-limited test field; oracle is the singular-integral
        # definition with symmetric exclusion + Richardson in 1/M
        def fn(s):
            return np.stack(
                [0.7 * np.cos(s) + 0.2 * np.sin(3 * s), 0.4 * np.cos(2 * s) - 0.1 * np.sin(s)],
                axis=-1,
            )

        n = 256
        s = grid(n)
        impl = fractional_laplacian_half(GridField(fn(s)))
        targets = s[:16]
        oracle = pv_half_laplacian(fn, targets)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(impl.values[:16] - oracle)) / scale < 1e-6


class TestHilbertTransform:
    def test_sign_convention_pinned_by_oracle(self):
        # oracle of the cot kernel fixes cos -> sin and sin -> -cos
        def fn(s):
            return np.stack([np.cos(s), np.sin(s)], axis=-1)

        n = 64
        s = grid(n)
        impl = hilbert_transform(GridField(fn(s)))
        targets = s[:8]
        oracle = pv_hilbert(fn, targets)
        assert np.max(np.abs(oracle - np.stack([np.sin(targets), -np.cos(targets)], axis=1))) < 1e-10
        assert np.max(np.abs(impl.values[:8] - oracle)) < 1e-10

    def test_annihilates_constant(self):
        f = field(lambda s: 0 * s + 2.0, lambda s: 0 * s - 1.0)
        assert np.max(np.abs(hilbert_transform(f).values)) < 1e-13

    def test_involution_identity(self, rng):
        f = random_band_limited(rng, 64, kmax=20)
        hh = hilbert_transform(hilbert_transform(f))
        expected = -(f.values - mean(f)[None, :])
        assert np.max(np.abs(hh.values - expected)) < 1e-12

    def test_composition_with_derivative(self, rng):
        f = random_band_limited(rng, 64, kmax=20, mean_zero=True)
        a = fractional_laplacian_half(f)
        b = hilbert_transform(derivative(f, 1))
        assert np.max(np.abs(a.values - b.values)) < 1e-12


class TestSemigroup:
    def test_identity_at_zero(self, rng):
        f = random_band_limited(rng, 64)
        out = semigroup_apply(f, 0.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_mode_two_factor(self):
        f = field(lambda s: np.cos(2 * s), lambda s: 0 * s)
        out = semigroup_apply(f, 2.0)
        assert np.allclose(out.values[:, 0], np.exp(-1.0) * f.values[:, 0], atol=1e-13)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_apply(field(np.cos, np.sin), -0.1)

    def test_semigroup_property(self, rng):
        f = random_band_limited(rng, 64, kmax=20)
        a = semigroup_apply(semigroup_apply(f, 0.7), 1.1)
        b = semigroup_apply(f, 1.8)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_seminorm_decay_bound(self, rng):
        # e^{-t/4} contraction of every homogeneous seminorm on mean-zero fields
        for _ in range(5):
            f = random_band_limited(rng, 64, kmax=20, mean_zero=True)
            for t in (0.5, 1.0, 2.0):
                out = semigroup_apply(f, t)
                for order in (0.0, 1.0, 2.5):
                    assert sobolev_seminorm(out, order) <= np.exp(-t / 4.0) * sobolev_seminorm(f, order) + 1e-12


class TestSemigroupPhi1:
    def test_integrates_the_generator(self, rng):
        # e^{tA} f - f = t A phi1(tA) f with A = -(1/4) Lambda
        for t in (0.1, 1.0, 8.0):
            f = random_band_limited(rng, 64, kmax=20)
            lhs = semigroup_apply(f, t).values - f.values
            rhs = -0.25 * t * fractional_laplacian_half(semigroup_phi1(f, t)).values
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_identity_at_zero(self, rng):
        f = random_band_limited(rng, 64)
        out = semigroup_phi1(f, 0.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_phi1(field(np.cos, np.sin), -0.1)


class TestSobolevSeminorm:
    def test_constant_has_zero_h1(self):
        f = field(lambda s: 0 * s + 4.0, lambda s: 0 * s)
        assert sobolev_seminorm(f, 1.0) == 0.0

    def test_circle_h1_equals_sqrt_two_pi(self):
        f = field(np.cos, np.sin)
        assert abs(sobolev_seminorm(f, 1.0) - np.sqrt(2.0 * np.pi)) < 1e-12

    def test_multiplier_ratio_five_halves(self):
        f = field(lambda s: np.cos(2 * s), lambda s: 0 * s)
        assert abs(sobolev_seminorm(f, 2.5) - 2**2.5 * sobolev_seminorm(f, 0.0)) < 1e-12

    def test_matches_derivative_l2(self, rng):
        f = random_band_limited(rng, 64, kmax=20)
        d = derivative(f, 1)
        l2 = np.sqrt(d.h * np.sum(d.values**2))
        assert abs(sobolev_seminorm(f, 1.0) - l2) < 1e-12


class TestDealias:
    def test_identity_settings(self, rng):
        f = random_band_limited(rng, 64, kmax=20)
        out = dealias(f, cutoff_fraction=1.0, krasny_floor=0.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_mode_above_cutoff_removed(self):
        f = field(lambda s: np.cos(30 * s), lambda s: 0 * s, n=64)
        out = dealias(f, cutoff_fraction=2.0 / 3.0, krasny_floor=0.0)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_idempotent(self, rng):
        f = GridField(rng.normal(size=(64, 2)))
        once = dealias(f)
        twice = dealias(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-13

    def test_parameter_validation(self):
        f = field(np.cos, np.sin)
        with pytest.raises(ValueError, match="cutoff_fraction"):
            dealias(f, cutoff_fraction=0.0)
        with pytest.raises(ValueError, match="krasny_floor"):
            dealias(f, krasny_floor=-1.0)


class TestLinearity:
    def test_operators_linear(self, rng):
        f = random_band_limited(rng, 64, kmax=20)
        g = random_band_limited(rng, 64, kmax=20)
        combo = GridField(2.5 * f.values - 1.25 * g.values)
        for op in (
            lambda x: derivative(x, 1),
            fractional_laplacian_half,
            hilbert_transform,
            lambda x: semigroup_apply(x, 0.3),
        ):
            direct = op(combo).values
            split = 2.5 * op(f).values - 1.25 * op(g).values
            assert np.max(np.abs(direct - split)) < 1e-12

    def test_exact_on_single_modes(self):
        # every multiplier operator reproduces its closed form on one mode
        n = 64
        s = grid(n)
        for k in (1, 5, 17):
            f = GridField(np.stack([np.cos(k * s), np.sin(k * s)], axis=1))
            assert np.allclose(
                fractional_laplacian_half(f).values, k * f.values, atol=1e-11
            )
            assert np.allclose(
                semigroup_apply(f, 1.0).values, np.exp(-k / 4.0) * f.values, atol=1e-11
            )


class TestResample:
    def test_same_count_returns_values_untouched(self, rng):
        f = GridField(rng.normal(size=(64, 2)))
        assert resample_field(f, 64).values is f.values

    @pytest.mark.parametrize("m", [16, 32, 256])
    def test_exact_on_band_limited_fields(self, m):
        # modes below min(N, m)/2 come out as the trig polynomial sampled on m points
        f = field(lambda s: 1.0 + np.cos(3 * s) + 0.5 * np.sin(7 * s), lambda s: np.sin(s) - 0.2 * np.cos(5 * s))
        expected = field(lambda s: 1.0 + np.cos(3 * s) + 0.5 * np.sin(7 * s), lambda s: np.sin(s) - 0.2 * np.cos(5 * s), n=m)
        out = resample_field(f, m).values
        assert out.shape == (m, 2) and not out.flags.writeable
        assert np.max(np.abs(out - expected.values)) < 1e-14

    def test_truncation_drops_the_high_modes(self):
        f = field(lambda s: np.cos(2 * s) + np.cos(20 * s), lambda s: np.sin(2 * s))
        out = resample_field(f, 16).values
        assert np.max(np.abs(out - field(lambda s: np.cos(2 * s), lambda s: np.sin(2 * s), n=16).values)) < 1e-14

    def test_pad_then_truncate_round_trip(self, rng):
        f = random_band_limited(rng, n=64, kmax=20)
        back = resample_field(GridField(resample_field(f, 256).values), 64).values
        assert np.max(np.abs(back - f.values)) < 1e-14

    def test_odd_count_rejected(self, rng):
        with pytest.raises(ValueError, match="even"):
            resample_field(GridField(rng.normal(size=(16, 2))), 15)


def test_mode_amplitudes_rotation_invariant():
    f = field(lambda s: np.cos(s) + 0.1 * np.cos(4 * s), lambda s: np.sin(s) - 0.3 * np.sin(2 * s))
    c, s = np.cos(0.4), np.sin(0.4)
    amp = mode_amplitudes(f)
    assert amp.shape == (33,)
    assert np.allclose(amp[[1, 2, 4]], [np.sqrt(0.5), 0.15, 0.05], rtol=0.0, atol=1e-15)
    assert np.max(np.abs(mode_amplitudes(GridField(f.values @ np.array([[c, s], [-s, c]]))) - amp)) < 1e-15


# ---------------------------------------------------------------------------
# the transform memo, GridField.spectrum
# ---------------------------------------------------------------------------

def _direct_multiplier(v, mult):
    c = np.fft.rfft(v, axis=0)
    c *= mult[:, None]
    return np.fft.irfft(c, axis=0)


def _direct_full(v):
    c = np.fft.rfft(v, axis=0) / len(v)
    return np.concatenate([c, np.conj(c[-2:0:-1])])


def _direct_resample(v, m):
    n = len(v)
    half = min(n, m) // 2
    cm = np.zeros((m // 2 + 1, 2), dtype=complex)
    cm[: half + 1] = np.fft.rfft(v, axis=0)[: half + 1] * (m / n)
    cm[half] = cm[half].real if m < n else cm[half].real / 2.0
    return np.fft.irfft(cm, axis=0)


def _direct_sobolev(v, s):
    n = len(v)
    c = np.fft.rfft(v, axis=0) / n
    k = np.arange(n // 2 + 1.0)
    weights = (np.ones_like(k) if s == 0 else k**s) ** 2
    weights[1:-1] *= 2.0  # the modes 0 < k < N/2 stand for +-k
    return float(np.sqrt(2.0 * np.pi * np.sum(weights[:, None] * np.abs(c) ** 2)))


def _direct_dealias(v):
    n = len(v)
    c = np.fft.rfft(v, axis=0) / n
    c[np.arange(n // 2 + 1) > (2.0 / 3.0) * n / 2.0] = 0.0
    c[np.abs(c) < 1e-13] = 0.0
    return np.fft.irfft(c * n, axis=0)


def _direct_amplitudes(v):
    c = np.fft.rfft(v, axis=0) / len(v)
    return np.sqrt(np.sum(c.real**2 + c.imag**2, axis=1))


_K = np.arange(33.0)  # the wavenumbers 0 .. N/2 of the half transform at N = 64
_ODD = np.where(_K == 32, 0.0, 1.0)  # odd multipliers zero the Nyquist mode

# each memo consumer with its direct rfft/irfft formula, on N = 64
MEMO_CONSUMERS = {
    "to_spectral": (to_spectral, _direct_full),
    "derivative_1": (lambda f: derivative(f, 1).values, lambda v: _direct_multiplier(v, 1j * _K * _ODD)),
    "derivative_2": (lambda f: derivative(f, 2).values, lambda v: _direct_multiplier(v, (1j * _K) ** 2)),
    "derivative_3": (lambda f: derivative(f, 3).values, lambda v: _direct_multiplier(v, (1j * _K) ** 3 * _ODD)),
    "half_laplacian": (lambda f: fractional_laplacian_half(f).values, lambda v: _direct_multiplier(v, _K)),
    "hilbert": (lambda f: hilbert_transform(f).values, lambda v: _direct_multiplier(v, -1j * np.sign(_K) * _ODD)),
    "semigroup": (lambda f: semigroup_apply(f, 0.3).values,
                  lambda v: _direct_multiplier(v, np.exp(-_K * 0.3 / 4.0))),
    "phi1": (lambda f: semigroup_phi1(f, 0.3).values,
             lambda v: _direct_multiplier(v, spectral._phi1(-_K * 0.3 / 4.0))),
    "resample_down": (lambda f: resample_field(f, 16).values, lambda v: _direct_resample(v, 16)),
    "resample_up": (lambda f: resample_field(f, 256).values, lambda v: _direct_resample(v, 256)),
    "sobolev_0": (lambda f: sobolev_seminorm(f, 0.0), lambda v: _direct_sobolev(v, 0.0)),
    "sobolev_1": (lambda f: sobolev_seminorm(f, 1.0), lambda v: _direct_sobolev(v, 1.0)),
    "sobolev_52": (lambda f: sobolev_seminorm(f, 2.5), lambda v: _direct_sobolev(v, 2.5)),
    "dealias": (lambda f: dealias(f).values, _direct_dealias),
    "mode_amplitudes": (mode_amplitudes, _direct_amplitudes),
}


_RFFT = np.fft.rfft  # bound at import, so the test's own transforms escape fft_calls


def forward(calls):
    return [(name, n) for name, n in calls if name in ("fft", "rfft")]


class TestSpectrumMemo:
    @pytest.mark.parametrize("name", list(MEMO_CONSUMERS))
    def test_consumer_bitwise_equals_its_direct_fft_formula(self, rng, name):
        consumer, direct = MEMO_CONSUMERS[name]
        f = GridField(rng.normal(size=(64, 2)))
        f.spectrum  # a filled memo gives the same bits as a first read
        assert np.array_equal(consumer(f), direct(f.values))
        assert np.array_equal(consumer(GridField(f.values)), direct(f.values))

    def test_spectrum_is_read_only_and_computed_once(self, rng, fft_calls):
        f = GridField(rng.normal(size=(64, 2)))
        c = f.spectrum
        assert np.array_equal(c, _RFFT(f.values, axis=0)) and c.dtype == complex and c.shape == (33, 2)
        for consumer, _ in MEMO_CONSUMERS.values():
            consumer(f)
        assert f.spectrum is c
        assert forward(fft_calls) == [("rfft", 64)]
        with pytest.raises(ValueError):
            c[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.spectrum = np.zeros((64, 2), dtype=complex)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del f.spectrum

    @pytest.mark.parametrize("n, m", [(64, 16), (64, 32), (1024, 128), (64, 128), (64, 256), (128, 1024)])
    def test_seeded_field_is_its_own_transform_within_rounding(self, rng, fft_calls, n, m):
        # white noise fills every mode, so the cut or padded Nyquist entry is
        # far from zero, and a seed that kept its imaginary part on a cut or
        # did not halve it on padding would miss by O(1) there
        f = GridField(rng.normal(size=(n, 2)))
        expected = _direct_resample(f.values, m)
        fft_calls.clear()
        g = resample_field(f, m)
        assert forward(fft_calls) == [("rfft", n)]  # f's own transform, none of the values
        assert np.array_equal(g.values, expected)
        seed = g.spectrum
        assert not seed.flags.writeable and seed.shape == (m // 2 + 1, 2)
        direct = _RFFT(g.values, axis=0)
        scale = np.max(np.abs(direct))
        assert np.min(np.abs(direct[min(n, m) // 2])) > 0.01 * scale
        assert np.max(np.abs(seed - direct)) <= 8 * np.finfo(float).eps * scale
        derivative(g, 1)
        assert forward(fft_calls) == [("rfft", n)]

    def test_resample_field_at_its_own_count_is_the_field(self, rng):
        f = GridField(rng.normal(size=(64, 2)))
        assert resample_field(f, 64) is f
