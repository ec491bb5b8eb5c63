"""Dyadic frequency-localization norms and decay verification for damped
Euler-Maxwell dynamics on periodic boxes.

The package splits into a spectral substrate (grid, littlewood_paley,
besov), the decay-kernel inequality verifier (decay_kernel), the linearized
per-mode machinery (equilibrium, linear_modes), the nonlinear pseudospectral
solver (solver) and the experiment harness with its CLI (fitting, harness,
cli).
"""

from .besov import (
    BesovSpec,
    EnergyFunctionals,
    NormReport,
    besov_norm,
    energy_functionals,
    negative_norm,
)
from .decay_kernel import (
    DecayParams,
    DissipRate,
    InequalityReport,
    euler_maxwell_rate,
    gamma_factor,
    tail_divergence_scan,
    verify_inequality,
)
from .equilibrium import EquilibriumState, PressureLaw
from .errors import (
    ConfigError,
    DensityError,
    FrequalizeError,
    HypothesisError,
    IncompatibleDataError,
    NumericalError,
    SaturationWindowError,
    SolverInstabilityError,
)
from .fitting import DecayFit, fit_decay_exponent
from .grid import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    forward_transform,
    gaussian_bump,
    inverse_transform,
    lp_norm,
    random_band_limited_field,
    spectral_l2_norm,
)
from .io import dump_field, load_field
from .linear_modes import (
    ContinuumData,
    ContinuumEvolver,
    GridModePropagator,
    ModePropagator,
    assemble_mode_matrix,
    constraint_projector,
    gap_sweep,
    linear_decay_experiment,
    linear_evolve_grid,
    pointwise_decay_check,
    spectral_gap,
)
from .littlewood_paley import (
    bernstein_ratios,
    block,
    chi,
    decompose,
    partition_defect,
    phi,
)
from .solver import (
    SimState,
    SpectralProfile,
    StepperConfig,
    coefficient_rhs,
    constraint_monitor,
    decay_experiment,
    duhamel_check,
    initial_data_gen,
    integrate,
    rhs_eval,
    step,
)

__version__ = "0.1.0"
