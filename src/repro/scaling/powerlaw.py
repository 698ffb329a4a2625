"""Saturating power-law fits: ``L(x) = a * x**(-alpha) + c``.

The workhorse of scaling-law analysis (Kaplan et al. 2020).  The additive
floor ``c`` is what produces the "diminishing returns" the paper observes
for GNN model scaling: once ``a x^-alpha`` falls below ``c`` the curve
flattens on a log axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.tensor.rng import rng as make_rng


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted parameters of ``L(x) = a x^-alpha + c``."""

    a: float
    alpha: float
    c: float
    r_squared: float

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.a * x**-self.alpha + self.c

    def __str__(self) -> str:
        return (
            f"L(x) = {self.a:.4g} * x^(-{self.alpha:.4f}) + {self.c:.4g}"
            f"  (R^2 = {self.r_squared:.4f})"
        )


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    residual = float(((y - predicted) ** 2).sum())
    total = float(((y - y.mean()) ** 2).sum())
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


#: The exponent search range; a scaling exponent outside it is not a scaling law.
ALPHA_MAX = 4.0
_ALPHA_GRID = np.linspace(0.0, ALPHA_MAX, 81)


def fit_power_law(x, y, floor: bool = True) -> PowerLawFit:
    """Least-squares fit of a (floored) power law, ``a, c >= 0``.

    For a fixed exponent the model is linear in ``(a, c)``, so both come
    from a non-negative least-squares solve and only ``alpha`` is
    searched: on a coarse grid over ``[0, ALPHA_MAX]``, then by a bounded
    scalar minimization between the best grid point's neighbours.
    Profiling ``(a, c)`` out this way finds floor-dominated curves that a
    joint local search started away from the floor misses.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points to fit a power law")
    if (x <= 0).any():
        raise ValueError("x must be positive")

    # Columns scaled to a maximum of 1 keep the solve well conditioned
    # across decades of x; ``a`` is unscaled at the end.
    ratio = x / x.min()
    ones = np.ones((x.size, 1))

    def solve(alpha: float) -> tuple[np.ndarray, float]:
        column = ratio[:, None] ** -alpha
        return optimize.nnls(np.hstack([column, ones]) if floor else column, y)

    residuals = [solve(alpha)[1] for alpha in _ALPHA_GRID]
    best = int(np.argmin(residuals))
    low = _ALPHA_GRID[max(best - 1, 0)]
    high = _ALPHA_GRID[min(best + 1, _ALPHA_GRID.size - 1)]
    refined = optimize.minimize_scalar(
        lambda alpha: solve(alpha)[1],
        bounds=(low, high),
        method="bounded",
        options={"xatol": 1e-12},
    )
    alpha = float(refined.x) if refined.fun <= residuals[best] else float(_ALPHA_GRID[best])
    coefficients, _ = solve(alpha)
    a = float(coefficients[0] * x.min() ** alpha)
    c = float(coefficients[1]) if floor else 0.0
    return PowerLawFit(a, alpha, c, _r_squared(y, a * x**-alpha + c))


def bootstrap_exponent(
    x, y, num_resamples: int = 200, seed: int = 0, floor: bool = True
) -> tuple[float, float]:
    """Bootstrap (2.5 %, 97.5 %) confidence interval on the exponent."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    generator = make_rng(seed)
    exponents = []
    for _ in range(num_resamples):
        idx = generator.integers(0, x.size, size=x.size)
        if np.unique(x[idx]).size < 3:
            continue
        try:
            exponents.append(fit_power_law(x[idx], y[idx], floor=floor).alpha)
        except ValueError:
            continue
    if not exponents:
        return float("nan"), float("nan")
    low, high = np.percentile(exponents, [2.5, 97.5])
    return float(low), float(high)
