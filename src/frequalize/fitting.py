"""Decay-exponent estimation in log-log(1+t) coordinates.

The abscissa is log(1+t) rather than log t so that fits remain meaningful
near t = 0 and match the (1+t)-normalized decay laws under test.  On torus
data the infrared cutoff turns power-law decay exponential past the
saturation time 1/eta0(xi_min); fit windows reaching past half that time
are refused rather than silently biased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SaturationWindowError

_MIN_POINTS = 8  # fewest samples a fit window must hold


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log(value) against log(1+t) on a window."""

    series_id: str
    window: tuple[float, float]
    exponent: float
    r_squared: float
    n_points: int
    power_law: bool
    saturation_time: float | None = None

    def as_dict(self) -> dict:
        return {
            "series_id": self.series_id,
            "window": list(self.window),
            "exponent": self.exponent,
            "r_squared": self.r_squared,
            "n_points": self.n_points,
            "power_law": self.power_law,
            "saturation_time": self.saturation_time,
        }


def fit_decay_exponent(
    times,
    values,
    window: tuple[float, float],
    *,
    series_id: str = "series",
    saturation_time: float | None = None,
) -> DecayFit:
    """Fit a power law to a positive series on the given time window.

    The window must hold at least _MIN_POINTS = 8 samples.  R^2 below 0.95
    marks the series as not power-law.  When a saturation time is supplied
    (torus runs), windows with t2 > saturation/2 are refused with a
    diagnostic.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ConfigError("times and values must have matching shapes")
    t1, t2 = window
    if not t2 > t1 or t1 < 0:
        raise ConfigError(f"invalid fit window [{t1}, {t2}]")
    if saturation_time is not None and t2 > 0.5 * saturation_time:
        raise SaturationWindowError(
            f"fit window end {t2:g} reaches into the infrared saturation regime "
            f"(limit 0.5/eta0(xi_min) = {0.5 * saturation_time:g}); shrink the window "
            f"or enlarge the box"
        )
    mask = (times >= t1) & (times <= t2)
    if int(mask.sum()) < _MIN_POINTS:
        raise ConfigError(
            f"fit window [{t1:g}, {t2:g}] holds {int(mask.sum())} samples; need >= {_MIN_POINTS}"
        )
    v = values[mask]
    if np.any(v <= 0):
        raise ConfigError("decay fit requires strictly positive values in the window")
    x = np.log1p(times[mask])
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # a constant series is the zero-exponent power law; roundoff-level
    # variance would otherwise make the R^2 quotient meaningless
    degenerate = ss_tot <= 1e-24 * max(1.0, float(np.sum(y**2)))
    r_sq = 1.0 if degenerate else 1.0 - ss_res / ss_tot
    return DecayFit(
        series_id=series_id,
        window=(float(t1), float(t2)),
        exponent=float(slope),
        r_squared=r_sq,
        n_points=int(mask.sum()),
        power_law=r_sq >= 0.95,
        saturation_time=saturation_time,
    )
