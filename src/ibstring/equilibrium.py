"""Closest uniformly-parameterized circle and the linearized dynamics near it.

The closest equilibrium of a configuration Y is the circle with Y's enclosed
area, centered at Y's mean, with its rotation phase chosen to minimize the L2
distance. In Fourier variables only the k = 0, +-1 coefficients of Y enter
the fit, so the phase has the closed form arg(c) with c built from the k = +1
coefficient; the same phase is optimal in every homogeneous Sobolev norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .curve import CurveState, effective_radius, make_circle
from .spectral import (
    GridField,
    fractional_laplacian_half,
    hilbert_transform,
    sobolev_seminorm,
    spectrum_seminorm,
)

__all__ = [
    "EquilibriumFit",
    "ModeBlock",
    "closest_equilibrium",
    "first_order_residual",
    "h1_energy_equivalence",
    "linearized_velocity",
    "mode_block",
    "measure_decay_rate",
    "fit_distance",
]


@dataclass(frozen=True)
class EquilibriumFit:
    """Best-fit circle parameters; its samples on the source grid of n
    points are built on first read of x_star_samples.

    degenerate is set when the configuration has no k = +-1 content, in which
    case the rotation phase is conventionally 0.
    """

    theta_star: float
    x_star: np.ndarray
    radius: float
    n: int
    degenerate: bool = False

    @cached_property
    def x_star_samples(self) -> GridField:
        """The fitted circle Y* on the source grid."""
        return make_circle(self.n, self.radius, self.theta_star, self.x_star).x


def closest_equilibrium(Y: CurveState) -> EquilibriumFit:
    """Fit the closest equilibrium circle to a positively oriented curve."""
    radius = effective_radius(Y)
    coeffs = Y.x.spectrum[:2] / Y.n
    x_star = coeffs[0].real
    c = complex(coeffs[1, 0] + 1j * coeffs[1, 1])
    degenerate = abs(c) < 1e-12 * radius
    theta_star = 0.0 if degenerate else float(np.angle(c) % (2.0 * np.pi))
    if 2.0 * np.pi - theta_star < 1e-9:  # keep the wrap point stable at 0
        theta_star = 0.0
    return EquilibriumFit(
        theta_star=theta_star,
        x_star=x_star,
        radius=radius,
        n=Y.n,
        degenerate=degenerate,
    )


def first_order_residual(Y: CurveState, fit: EquilibriumFit) -> float:
    """Stationarity of the fitted phase: trapezoid of (Y - Y*) . dY*/dtheta.

    Vanishes (to rounding) for fits produced by closest_equilibrium, which
    minimize the same discrete objective exactly.
    """
    s = Y.s
    tangent = fit.radius * np.stack(
        [-np.sin(s + fit.theta_star), np.cos(s + fit.theta_star)], axis=1
    )
    dev = Y.x.values - fit.x_star_samples.values
    return Y.h * math.fsum(np.einsum("ij,ij->i", dev, tangent).tolist())


def h1_energy_equivalence(Y: CurveState) -> tuple[float, float, float]:
    """The three quantities of the energy / H1-distance sandwich.

    Returns (half the excess energy-norm, squared H1 distance to the fit,
    four times the excess); the middle term is bounded by the outer two.
    """
    fit = closest_equilibrium(Y)
    excess = sobolev_seminorm(Y.x, 1.0) ** 2 - sobolev_seminorm(fit.x_star_samples, 1.0) ** 2
    dist_sq = fit_distance(Y, fit, 1.0) ** 2
    return 0.5 * excess, dist_sq, 4.0 * excess


def fit_distance(Y: CurveState, fit: EquilibriumFit, order: float) -> float:
    """Homogeneous Sobolev distance between Y and its fitted equilibrium.

    Y* = x* + R (cos(s + theta*), sin(s + theta*)) has only the modes 0 and
    +-1, so the half transform of Y - Y* is Y's spectrum memo with rows 0
    and 1 less Y*'s coefficients N x* and (N R/2) e^{i theta*} (1, -i): no
    circle is sampled and nothing is transformed.
    """
    n = Y.n
    dev = Y.x.spectrum.copy()
    dev[0] -= n * fit.x_star
    dev[1] -= 0.5 * n * fit.radius * np.exp(1j * fit.theta_star) * np.array([1.0, -1j])
    return spectrum_seminorm(dev, order)


def linearized_velocity(D: GridField) -> GridField:
    """First variation of the string velocity about the unit circle.

    -(1/4)(Lambda D + J H D) with Lambda the half Laplacian, H the Hilbert
    transform and J(x, y) = (y, -x): per Fourier mode the 2x2 block
    -(1/4)[[|k|, -i sgn k], [i sgn k, |k|]] (sgn zeroed at Nyquist, as in H).
    The output always has zero mean.
    """
    hd = hilbert_transform(D).values
    return GridField(-0.25 * (fractional_laplacian_half(D).values + hd[:, ::-1] * [1.0, -1.0]))


@dataclass(frozen=True)
class ModeBlock:
    """Per-mode 2x2 block of the linearized dynamics with its eigenvalues.

    eigenvalues = (more negative, less negative); for |k| >= 1 they are
    -(|k|+1)/4 and -(|k|-1)/4, so k = +-1 carries the rotation/translation
    neutral directions and |k| = 2 sets the slowest decaying rate 1/4.
    """

    k: int
    block: np.ndarray
    eigenvalues: tuple[float, float]


def mode_block(k: int) -> ModeBlock:
    """Fourier block of the linearized velocity at integer wavenumber k."""
    sigma = float(np.sign(k))
    absk = float(abs(k))
    block = -0.25 * np.array([[absk, -1j * sigma], [1j * sigma, absk]], dtype=complex)
    block.flags.writeable = False
    # + 0.0 normalizes -0.0 away for the neutral eigenvalues
    eig = (-(absk + abs(sigma)) / 4.0 + 0.0, -(absk - abs(sigma)) / 4.0 + 0.0)
    return ModeBlock(k=int(k), block=block, eigenvalues=eig)


def measure_decay_rate(
    times: Sequence[float],
    values: Sequence[float],
    window: tuple[float, float],
) -> float:
    """Exponential decay rate of a positive diagnostic over a time window.

    Least-squares slope of log(values) against time; returns the positive
    rate alpha for values ~ c e^{-alpha t}.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = (t >= window[0]) & (t <= window[1])
    if mask.sum() < 2:
        raise ValueError(f"window {window} selects fewer than two samples")
    v_win = v[mask]
    if np.any(v_win <= 0):
        raise ValueError("decay fit requires positive values on the window")
    slope = np.polyfit(t[mask], np.log(v_win), 1)[0]
    return float(-slope)
