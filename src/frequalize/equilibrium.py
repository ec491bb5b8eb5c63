"""Background state and pressure law shared by the linear and nonlinear solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class PressureLaw:
    """Power-law pressure p(n) = K n^gamma (gamma >= 1, K > 0)."""

    coefficient: float = 1.0
    gamma: float = 5.0 / 3.0

    def __post_init__(self) -> None:
        if not self.coefficient > 0:
            raise ConfigError(f"K: must be positive, got {self.coefficient}")
        if not self.gamma >= 1:
            raise ConfigError(f"gamma: must be at least 1, got {self.gamma}")

    def p(self, n: np.ndarray | float) -> np.ndarray:
        return self.coefficient * np.asarray(n, dtype=float) ** self.gamma

    def dp(self, n: np.ndarray | float) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return self.coefficient * self.gamma * n ** (self.gamma - 1.0)

    def quadratic_remainder(self, n: np.ndarray | float, n_ref: float) -> np.ndarray:
        """p(n) - p(n_ref) - p'(n_ref)(n - n_ref); vanishes to second order."""
        n = np.asarray(n, dtype=float)
        return self.p(n) - self.p(n_ref) - self.dp(n_ref) * (n - n_ref)


@dataclass(frozen=True)
class EquilibriumState:
    """Constant background (n_inf, 0, 0, B_inf) with its sound-speed data."""

    n_inf: float = 1.0
    b_inf: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pressure: PressureLaw = field(default_factory=PressureLaw)

    def __post_init__(self) -> None:
        if not self.n_inf > 0:
            raise ConfigError(f"n_inf: must be positive, got {self.n_inf}")
        if float(self.pressure.dp(self.n_inf)) <= 0:
            raise ConfigError("pressure law must have positive derivative at n_inf")
        object.__setattr__(self, "b_inf", tuple(float(b) for b in self.b_inf))
        if len(self.b_inf) != 3:
            raise ConfigError("background magnetic field must have 3 components")
        if not math.isfinite(sum(b * b for b in self.b_inf)):
            raise ConfigError(f"B_inf: |B_inf|^2 is not finite for {self.b_inf}")

    @property
    def a_inf(self) -> float:
        """Enthalpy slope p'(n_inf) / n_inf."""
        return float(self.pressure.dp(self.n_inf)) / self.n_inf

    @property
    def dp_inf(self) -> float:
        return float(self.pressure.dp(self.n_inf))

    @property
    def b_inf_vector(self) -> np.ndarray:
        return np.asarray(self.b_inf, dtype=float)
