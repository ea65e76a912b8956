"""Property tests of the on-curve velocity over drawn band-limited curves.

Needs the optional `hypothesis` extra (pip install ".[hypothesis]"); skipped
without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ibstring import (  # noqa: E402
    CurveState,
    GridField,
    PerturbationMode,
    make_perturbed_circle,
    on_curve_velocity,
    well_stretched_constant,
)

from test_pair_kernel import dense_on_curve_velocity  # noqa: E402

angle = st.floats(0.0, 2.0 * np.pi)
amplitude = st.floats(-0.02, 0.02)
shift = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


def rotation(phi: float) -> np.ndarray:
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


@st.composite
def curves(draw):
    """A well-stretched perturbed circle, modes 2..6 below N/2, randomly posed."""
    n = draw(st.sampled_from([8, 30, 34, 66]))
    radius = draw(st.floats(0.5, 2.0))
    modes = []
    for k in range(2, min(6, n // 2 - 1) + 1):
        amp_x, amp_y, phase_x, phase_y = draw(st.tuples(amplitude, amplitude, angle, angle))
        modes.append(PerturbationMode(k, radius * amp_x, radius * amp_y, phase_x, phase_y))
    x = make_perturbed_circle(n, radius, modes).x.values @ rotation(draw(angle)).T + draw(shift)
    X = CurveState(GridField(x))
    hypothesis.assume(well_stretched_constant(X) > 0.3 * radius)
    return X


settings = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)


@settings
@hypothesis.given(curves())
def test_velocity_matches_dense_oracle(X):
    assert np.max(np.abs(on_curve_velocity(X).values - dense_on_curve_velocity(X))) <= 1e-15


@settings
@hypothesis.given(curves(), angle, shift)
def test_velocity_translation_rotation_equivariant(X, phi, offset):
    u = on_curve_velocity(X).values
    rot = rotation(phi)
    moved = on_curve_velocity(CurveState(GridField(X.x.values @ rot.T + offset))).values
    assert np.max(np.abs(moved - u @ rot.T)) <= 1e-12
