"""Shared fixtures and independent quadrature oracles."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from ibstring import CurveState, PerturbationMode, make_perturbed_circle

# one generator each for random curves and fields, shared with the acceptance suite
from ibstring.acceptance import random_band_limited, random_smooth_curve  # noqa: F401


def relax_modes(seed: int) -> list[PerturbationMode]:
    """The seeded modes of the relax_n1024 and field_n1024 benchmark inputs:
    k = 2..6, with absolute amplitudes that sum to between 0.025 and 0.05."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(5, 2))
    amps = raw * (rng.uniform(0.025, 0.05) / np.abs(raw).sum())
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(5, 2))
    return [PerturbationMode(k, *amps[i], *phases[i]) for i, k in enumerate(range(2, 7))]


def relax_curve(seed: int, n: int = 1024) -> CurveState:
    """The seeded perturbed circle of the relax_n1024 and field_n1024 benchmark inputs."""
    return make_perturbed_circle(n, 1.0, relax_modes(seed))


def run_with_blas_threads(threads: int, args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """python args in a child process whose OpenBLAS runs the given number of
    threads, with this process's import path; OpenBLAS reads the count when
    it loads, so each count needs a process of its own. The child must exit
    0. kwargs go to subprocess.run (cwd, input); stdout comes back as bytes."""
    path = os.pathsep.join(p for p in sys.path if p)
    return subprocess.run([sys.executable, *args], capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads)), **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fft_calls(monkeypatch):
    """(transform, sample count) of every numpy FFT call, in order; the
    count is the length of a forward transform's input and of an inverse
    one's output, so an rfft and an irfft of N samples both count N. Only
    ibstring.spectral calls numpy's FFT, so these are the package's."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        transform = getattr(np.fft, name)

        def counted(a, *args, _name=name, _transform=transform, **kwargs):
            out = _transform(a, *args, **kwargs)
            calls.append((_name, len(out) if _name.startswith("i") else len(a)))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def grid(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


# ---------------------------------------------------------------------------
# principal-value quadrature oracles (independent of the FFT implementation)
#
# Symmetric-exclusion trapezoid of the singular kernels has an error exactly
# linear in 1/M per Fourier mode, so evaluating at M and 2M and extrapolating
# 2*Q(2M) - Q(M) recovers the principal value to rounding for band-limited
# fields. These pin the sign conventions.
# ---------------------------------------------------------------------------

def _pv_sum(kernel_fn, field_fn, targets: np.ndarray, m: int) -> np.ndarray:
    h = 2.0 * np.pi / m
    offsets = h * np.arange(1, m)  # symmetric exclusion of the singular node
    out = np.empty((len(targets), 2))
    for i, s0 in enumerate(targets):
        sp = s0 + offsets
        out[i] = h * np.sum(kernel_fn(s0, sp)[:, None] * field_fn(sp), axis=0)
    return out


def pv_half_laplacian(field_fn, targets: np.ndarray, m: int = 4096) -> np.ndarray:
    """(-Lap)^{1/2} via its torus kernel -(1/pi) (Y(s') - Y(s)) / (4 sin^2((s'-s)/2))."""
    vals = np.empty((len(targets), 2))
    vals2 = np.empty((len(targets), 2))
    for arr, mm in ((vals, m), (vals2, 2 * m)):
        for i, s0 in enumerate(targets):
            h = 2.0 * np.pi / mm
            sp = s0 + h * np.arange(1, mm)
            kernel = -1.0 / (4.0 * np.pi * np.sin((sp - s0) / 2.0) ** 2)
            arr[i] = h * np.sum(kernel[:, None] * (field_fn(sp) - field_fn(np.array([s0]))), axis=0)
    return 2.0 * vals2 - vals


def pv_hilbert(field_fn, targets: np.ndarray, m: int = 4096) -> np.ndarray:
    """Hilbert transform via (1/2pi) p.v. integral of cot((s-s')/2) Y(s')."""

    def kernel(s0, sp):
        return np.cos((s0 - sp) / 2.0) / np.sin((s0 - sp) / 2.0) / (2.0 * np.pi)

    return 2.0 * _pv_sum(kernel, field_fn, targets, 2 * m) - _pv_sum(kernel, field_fn, targets, m)
