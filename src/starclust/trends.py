"""Panel series transformations: linear trends, differences, sign strings.

Every country's linear trend is fitted in one array pass over the N x T
panel, by the closed-form OLS slope and intercept. The trend regressor is the
1-based year index, not the calendar year; the slope is identical either way
and the intercept follows the index convention. Significance uses classical
homoskedastic OLS standard errors; only the p-value is computed a country at
a time, because the continued fraction below needs a different number of
terms for each.

Two-sided p-values are the regularized incomplete beta I_x(df/2, 1/2) with
x = df / (df + t^2), evaluated here without scipy: the front factor comes
from `math.lgamma` and `math.log` of x and of 1 - x = t^2 / (df + t^2)
(formed directly, not by subtraction), and the rest from the continued
fraction of Numerical Recipes (Press et al., section 6.4) by Lentz's method,
switching to I_x(a, b) = 1 - I_{1-x}(b, a) past x = (a+1)/(a+b+2) so that
small tails keep their relative accuracy. The relative error against
mpmath at 40 digits is below 2e-13 for df <= 200, and against
`2 * scipy.stats.t.sf` below 1e-12 on the tested grid (df from 1 to 200,
|t| up to where p underflows). The lgamma front factor sets the error, which
grows like eps * lgamma(df/2): about 1e-11 at df = 1e4 and 5e-10 at 1e6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .panel import TemperaturePanel, write_csv


@dataclass(frozen=True)
class TrendFit:
    """OLS fit of temperature on a linear time index.

    `slope` is the annual warming rate (degrees C per year). `t_stat` equals
    slope / slope_se whenever slope_se > 0; a noiseless series gets
    slope_se = 0 with p_value 0 (nonzero slope) or 1 (flat).
    """

    intercept: float
    slope: float
    slope_se: float
    t_stat: float
    p_value: float
    significant: bool


_EPS = 2.220446049250313e-16   # float64 machine epsilon: the fraction's stopping rule
_TINY = 1e-300                 # Lentz's guard against a zero denominator
_MAX_TERMS = 10_000            # the fraction needs O(sqrt(max(a, b))) terms


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), by Lentz's method (NR section 6.4)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        # the even and the odd step of the fraction
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise NumericalError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x separately."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(b, a, y, x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    return math.exp(log_front) * _beta_fraction(a, b, x) / a


def student_t_sf2(t_stat: float, df: int) -> float:
    """Two-sided tail probability of Student's t via the regularized incomplete beta."""
    if df <= 0:
        raise ValidationError(f"degrees of freedom must be positive, got {df}")
    if not math.isfinite(t_stat):
        return 0.0
    tt = float(t_stat) * float(t_stat)
    # Past |t| = 1.3e154, t * t overflows, x becomes 0 and so does p.
    return _incomplete_beta(df / 2.0, 0.5, df / (df + tt), tt / (df + tt))


ALPHA = 0.05  # the paper's level: a slope with p >= 5% is "null"


def fit_panel_trends(panel: TemperaturePanel, alpha: float = ALPHA) -> dict[str, TrendFit]:
    """Fit temperature = intercept + slope * t + noise, t = 1..T, for every country.

    Returns each country's TrendFit, keys in panel order, with the classical
    OLS slope standard error and a two-sided p-value from Student's t on
    T - 2 degrees of freedom; `alpha` is the two-sided level of the
    `significant` flag. A fit does not depend on the panel's other rows.
    """
    n = panel.n_years
    if n < 3:
        raise ValidationError(f"trend fit needs at least 3 observations, got {n}")
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")

    y = panel.values
    t = np.arange(1, n + 1, dtype=float)
    t_centered = t - t.mean()
    sxx = float(t_centered @ t_centered)
    df = n - 2
    # Each row's products are one dot product of the batched matmul, as a fit
    # of that row alone forms them; a matrix-vector product `y @ t` sums in
    # another order and moves slopes in the last bit. Overflow (values near
    # the float range) is caught by the check below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = y.mean(axis=1)
        slope = np.matmul((y - mean[:, None])[:, None, :], t_centered[:, None])[:, 0, 0] / sxx
        intercept = mean - slope * t.mean()
        residuals = (y - intercept[:, None] - slope[:, None] * t)[:, None, :]
        ssr = np.matmul(residuals, residuals.transpose(0, 2, 1))[:, 0, 0]
        slope_se = np.sqrt(ssr / df / sxx)
        t_stat = slope / slope_se
    bad = ~(np.isfinite(intercept) & np.isfinite(slope) & np.isfinite(slope_se))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"{panel.ids[i]}: non-finite trend fit (intercept "
                             f"{float(intercept[i])}, slope {float(slope[i])}, "
                             f"se {float(slope_se[i])})")

    # A noiseless line (se 0) has t = +-inf, or 0 / 0 when it is flat, whose
    # t is 0; student_t_sf2 gives p 0 at t = +-inf and 1 at t = 0.
    t_stat[np.isnan(t_stat)] = 0.0
    p_values = [student_t_sf2(t, df) for t in t_stat.tolist()]
    return {cid: TrendFit(*fit, p_value=p, significant=p < alpha)
            for cid, *fit, p in zip(panel.ids, intercept.tolist(), slope.tolist(),
                                    slope_se.tolist(), t_stat.tolist(), p_values)}


def panel_differences(panel: TemperaturePanel) -> np.ndarray:
    """N x (T-1) matrix of first differences, rows in panel country order.

    A difference that overflows is inf, without a warning; callers check.
    """
    if panel.n_years < 2:
        raise ValidationError("panel differences need at least 2 years")
    with np.errstate(over="ignore"):
        return panel.values[:, 1:] - panel.values[:, :-1]


def sign_sequence(diffs: np.ndarray) -> np.ndarray:
    """Binary string of change signs: 1 for a strict increase, 0 otherwise.

    Exact zero changes count as "no increase" (bit 0).
    """
    d = np.asarray(diffs, dtype=float)
    return (d > 0.0).astype(np.uint8)


def write_trend_table(trends: dict[str, TrendFit], path: str | Path) -> None:
    """CSV export: country,intercept,slope,se,t,p,significant."""
    write_csv(path, ["country", "intercept", "slope", "se", "t", "p", "significant"],
              ([cid, fit.intercept, fit.slope, fit.slope_se, fit.t_stat, fit.p_value,
                int(fit.significant)] for cid, fit in trends.items()))
