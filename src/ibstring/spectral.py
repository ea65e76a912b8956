"""Fourier toolkit on the 1-D torus [0, 2pi).

Real 2-vector fields are sampled at s_j = 2*pi*j/N. Coefficients follow the
analytic Fourier series convention f(s) = sum_k f_hat_k e^{iks}, with
wavenumbers k in {-N/2, ..., N/2 - 1}. A real field's coefficients satisfy
f_hat_{-k} = conj(f_hat_k), so the package keeps only the half k = 0 .. N/2
(rfft(values)/N), and every operator returns to samples by one irfft. All
multiplier operators act mode by mode; the N/2 (Nyquist) coefficient is real
and is zeroed by operators whose multiplier would make it imaginary (Hilbert
transform, odd-order derivatives), so operator identities hold exactly on
fields band-limited below Nyquist.

Every operator reads a field's half transform from its memo,
GridField.spectrum, so each field is transformed at most once. A field built
from samples computes the memo on first read. A field built from
coefficients (resample_field) is seeded with them: its memo is the cut or
zero-padded half transform of its source, whose irfft its samples are. Only
this module sets the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "NonFiniteFieldError",
    "GridField",
    "to_spectral",
    "from_spectral",
    "derivative",
    "fractional_laplacian_half",
    "hilbert_transform",
    "semigroup_apply",
    "semigroup_phi1",
    "sobolev_seminorm",
    "spectrum_seminorm",
    "resample_field",
    "mode_amplitudes",
    "resolved_band",
    "band_samples",
    "dealias",
    "mean",
]


class NonFiniteFieldError(ValueError):
    """Field samples contain NaN or infinity."""


@dataclass(frozen=True)
class GridField:
    """N uniform samples of a real 2-vector field on the torus.

    values has shape (N, 2); N must be even and at least 8, entries finite.
    Instances are immutable (the underlying array is locked), and so is the
    memo of their transform, spectrum.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"expected shape (N, 2), got {v.shape}")
        n = v.shape[0]
        if n < 8 or n % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {n}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteFieldError("field contains non-finite entries")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only (N/2 + 1, 2) unscaled half transform rfft(values, axis=0),
        rows k = 0 .. N/2, computed on first read; a field from resample_field
        holds its seeded coefficients."""
        c = np.fft.rfft(self.values, axis=0)
        c.flags.writeable = False
        return c

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def h(self) -> float:
        """Grid spacing 2*pi/N."""
        return 2.0 * np.pi / self.n

    @property
    def s(self) -> np.ndarray:
        """Sample parameters s_j = 2*pi*j/N."""
        return 2.0 * np.pi * np.arange(self.n) / self.n


def to_spectral(f: GridField) -> np.ndarray:
    """Read-only (N, 2) complex coefficients fft(values)/N, in numpy fft
    order: row k multiplies e^{iks}, so a constant field c has row 0 = c.
    The memo's half, with rows N - k the conjugates of rows k. Linear, and
    the exact inverse of from_spectral."""
    half = f.spectrum / f.n
    c = np.concatenate([half, np.conj(half[-2:0:-1])])
    c.flags.writeable = False
    return c


def from_spectral(coeffs: np.ndarray) -> GridField:
    """Samples of an (N, 2) coefficient array (imaginary residue is discarded);
    GridField rejects any other shape, and odd or small N."""
    return GridField(np.real(np.fft.ifft(coeffs * len(coeffs), axis=0)))


def mean(f: GridField) -> np.ndarray:
    """Field mean (the k = 0 Fourier coefficient)."""
    return f.values.mean(axis=0)


@lru_cache(maxsize=16)
def _wavenumbers(n: int) -> np.ndarray:
    """Read-only wavenumbers 0 .. N/2 of the half transform, shared by every operator at N."""
    k = np.arange(n // 2 + 1)
    k.flags.writeable = False
    return k


def _apply_multiplier(f: GridField, mult: np.ndarray) -> GridField:
    return GridField(np.fft.irfft(f.spectrum * mult[:, None], axis=0))


def derivative(f: GridField, m: int) -> GridField:
    """m-th spectral derivative, multiplier (ik)^m.

    Exact on trigonometric polynomials below Nyquist; for odd m the Nyquist
    coefficient is zeroed to keep the result real.
    """
    if m < 1:
        raise ValueError(f"derivative order must be >= 1, got {m}")
    k = _wavenumbers(f.n)
    mult = (1j * k.astype(float)) ** m
    if m % 2 == 1:
        mult[f.n // 2] = 0.0
    return _apply_multiplier(f, mult)


def fractional_laplacian_half(f: GridField) -> GridField:
    """Half Laplacian, multiplier |k|; annihilates the mean."""
    return _apply_multiplier(f, _wavenumbers(f.n).astype(float))


def hilbert_transform(f: GridField) -> GridField:
    """Periodic Hilbert transform, multiplier -i*sgn(k).

    Annihilates the mean; composed with itself gives -(f - mean(f)) on fields
    band-limited below Nyquist (the Nyquist mode is zeroed).
    """
    k = _wavenumbers(f.n)
    mult = -1j * np.sign(k)
    mult[f.n // 2] = 0.0
    return _apply_multiplier(f, mult)


def semigroup_apply(f: GridField, t: float) -> GridField:
    """Heat-type semigroup of the -|k|/4 multiplier: e^{-|k|t/4} per mode."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    k = _wavenumbers(f.n)
    return _apply_multiplier(f, np.exp(-k * t / 4.0))


def _phi1(z: np.ndarray) -> np.ndarray:
    """phi1(z) = (e^z - 1)/z with phi1(0) = 1, series branch near zero."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl
    return out


def semigroup_phi1(f: GridField, t: float) -> GridField:
    """Multiplier phi1(-|k|t/4), phi1(z) = (e^z - 1)/z: t times this is the
    integral of semigroup_apply(f, r) over r in [0, t]; the mean passes unchanged.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    k = _wavenumbers(f.n)
    return _apply_multiplier(f, _phi1(-k * t / 4.0))


def resample_field(f: GridField, m: int) -> GridField:
    """f on m >= 8 samples, band-limited: its half spectrum zero-padded for
    m > N, which is exact, or cut to the modes 0 .. m/2 for m < N. m = N
    returns f, with no FFT round trip.

    The field is seeded with its coefficients, so no forward FFT of its
    values is needed. The last mode both have, min(N, m)/2, is a Nyquist
    mode, whose coefficient stands for k and -k at once; it is kept real,
    and on padding, where it becomes an ordinary mode k of the m samples, it
    is halved.
    """
    n = f.n
    if m == n:
        return f
    if m < 8 or m % 2:
        raise ValueError(f"sample count must be even and >= 8, got {m}")
    half = min(n, m) // 2
    cm = np.zeros((m // 2 + 1, 2), dtype=complex)
    cm[: half + 1] = f.spectrum[: half + 1] * (m / n)
    cm[half] = cm[half].real if m < n else cm[half].real / 2.0
    out = GridField(np.fft.irfft(cm, axis=0))
    cm.flags.writeable = False
    out.__dict__["spectrum"] = cm  # the memo cached_property would fill
    return out


def mode_amplitudes(f: GridField) -> np.ndarray:
    """|f_hat_k| for k = 0 .. N/2, the Euclidean norm of the 2-vector
    coefficient, so a rotation of the field leaves it unchanged; read from
    f's half transform."""
    c = f.spectrum / f.n
    power = c.real**2 + c.imag**2
    return np.sqrt(power[:, 0] + power[:, 1])  # a sum over the short axis is ~8x slower


# A mode counts as rounding when it is at most this multiple of the field's
# largest k != 0 coefficient: the on-curve velocity's own rounding floor sits
# near 4e-15 of the curve's (N = 1024), and 1e-15 was never met, so the
# tolerance is 25 times that floor and equals the default Krasny filter floor.
_TAIL_TOL = 1e-13


def resolved_band(f: GridField, bound: float | None = None) -> tuple[int, float]:
    """(k, bound): the highest wavenumber k whose mode amplitude exceeds bound
    (0 when none does), and the bound, by default _TAIL_TOL times f's largest
    k != 0 mode amplitude.

    The tail test of every resolution choice: f counts as resolved on M
    samples when no mode above M/4 exceeds the bound, that is when 4k <= M.
    """
    amp = mode_amplitudes(f)
    if bound is None:
        bound = _TAIL_TOL * float(amp[1:].max())
    above = np.flatnonzero(amp > bound)
    return (int(above[-1]) if above.size else 0), bound


def band_samples(k: int) -> int:
    """The fewest samples on which a field of band k can pass the tail test:
    the smallest power of two that is at least 16 and at least 4k."""
    return max(16, 1 << (4 * k - 1).bit_length())


def sobolev_seminorm(f: GridField, s: float) -> float:
    """Homogeneous Sobolev seminorm (2*pi * sum_k |k|^{2s} |f_hat_k|^2)^{1/2}.

    Normalized so s = 1 equals the L2 norm of the first derivative, and s = 0
    the L2 norm of the field itself (0^0 = 1 keeps the mean in at s = 0;
    for s > 0 the seminorm ignores the mean).
    """
    return spectrum_seminorm(f.spectrum, s)


def spectrum_seminorm(spectrum: np.ndarray, s: float) -> float:
    """sobolev_seminorm of the field whose unscaled (N/2 + 1, 2) half
    transform, in GridField.spectrum's layout, is spectrum. The modes
    0 < k < N/2 count twice, for k and -k."""
    if s < 0:
        raise ValueError(f"order must be nonnegative, got {s}")
    n = 2 * (len(spectrum) - 1)
    c = spectrum / n
    k = _wavenumbers(n).astype(float)
    weights = (np.ones_like(k) if s == 0 else k**s) ** 2
    weights[1:-1] *= 2.0
    total = np.sum(weights[:, None] * np.abs(c) ** 2)
    return float(np.sqrt(2.0 * np.pi * total))


def dealias(
    f: GridField,
    cutoff_fraction: float = 2.0 / 3.0,
    krasny_floor: float = 1e-13,
) -> GridField:
    """Zero modes with |k| > cutoff_fraction*N/2 and coefficients below the floor.

    Idempotent; cutoff_fraction = 1 with floor 0 is the identity on fields
    representable on the grid.
    """
    if not 0.0 < cutoff_fraction <= 1.0:
        raise ValueError(f"cutoff_fraction must be in (0, 1], got {cutoff_fraction}")
    if krasny_floor < 0:
        raise ValueError(f"krasny_floor must be nonnegative, got {krasny_floor}")
    c = f.spectrum / f.n
    c[_wavenumbers(f.n) > cutoff_fraction * f.n / 2.0] = 0.0
    c[np.abs(c) < krasny_floor] = 0.0
    return GridField(np.fft.irfft(c * f.n, axis=0))
