"""Spectral contour dynamics for a closed elastic string in 2-D Stokes flow."""

from .curve import (
    CurveState,
    PerturbationMode,
    effective_radius,
    elastic_energy,
    enclosed_area,
    make_circle,
    make_perturbed_circle,
    make_reparam_circle,
    well_stretched_constant,
)
from .dynamics import DiagnosticsRow, StepperConfig, run, step_exp_euler, step_rk4
from .equilibrium import (
    EquilibriumFit,
    ModeBlock,
    closest_equilibrium,
    first_order_residual,
    h1_energy_equivalence,
    linearized_velocity,
    measure_decay_rate,
    mode_block,
)
from .spectral import (
    GridField,
    dealias,
    derivative,
    fractional_laplacian_half,
    from_spectral,
    hilbert_transform,
    semigroup_apply,
    sobolev_seminorm,
    to_spectral,
)
from .stokeslet import (
    dissipation_rate,
    forcing_derivative_quadrature,
    nonstiff_forcing,
    off_curve_velocity,
    on_curve_velocity,
    pressure_at,
    sample_flow,
)

__version__ = "0.1.0"
