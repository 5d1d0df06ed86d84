"""Small dense ordinary least squares used by all coefficient fitting.

Solves via Householder QR rather than normal equations: the polynomial bases
used downstream mix columns like s and s^2 over s up to 30,000, and the
target coefficients span six orders of magnitude, so squaring the condition
number is not acceptable. Columns are rescaled to unit max-magnitude before
factorization and the solution is mapped back, which keeps the condition
estimate meaningful for those bases.

Problem sizes are tiny (<= 1e5 rows x <= 4 columns); everything is a single
deterministic dense factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, RankDeficient, ZeroColumn

# Condition estimate above which a fit is rejected as rank deficient.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Row-major dense design matrix: one row per observation, one column
    per basis function. `values` is a read-only 1-D float64 array holding
    the matrix row by row (a copy of what the constructor was given)."""

    rows: int
    cols: int
    values: np.ndarray

    def __post_init__(self):
        if not (self.rows >= self.cols >= 1):
            raise ValueError("need rows >= cols >= 1")
        values = np.array(self.values, dtype=float)
        if values.shape != (self.rows * self.cols,):
            raise ValueError("values length does not match rows*cols")
        if not np.all(np.isfinite(values)):
            raise ValueError("design matrix values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[float]]) -> "DesignMatrix":
        arr = np.column_stack([np.asarray(c, dtype=float) for c in cols])
        return cls(arr.shape[0], arr.shape[1], arr.ravel())

    def as_array(self) -> np.ndarray:
        """A read-only (rows, cols) view of `values`."""
        return self.values.reshape(self.rows, self.cols)


@dataclass(frozen=True)
class FitResult:
    """Least-squares solution summary.

    r_squared is measured against the mean-model baseline and can go negative
    for fits worse than predicting the mean; it is reported as computed.
    """

    coefficients: tuple[float, ...]
    r_squared: float
    residual_norm: float
    condition_estimate: float

    def __post_init__(self):
        if self.residual_norm < 0:
            raise ValueError("residual_norm must be nonnegative")


def column_scale(x: DesignMatrix) -> tuple[DesignMatrix, tuple[float, ...]]:
    """Divide each column by its max absolute value; returns (scaled, scales).

    Refitting the scaled system and dividing the coefficients by the scales
    reproduces the unscaled solution.
    """
    arr = x.as_array()
    scales = np.max(np.abs(arr), axis=0)
    if np.any(scales == 0):
        dead = [i for i, s in enumerate(scales) if s == 0]
        raise ZeroColumn(f"columns {dead} are identically zero")
    scaled = arr / scales
    return DesignMatrix(x.rows, x.cols, scaled.ravel()), tuple(float(s) for s in scales)


def ols_fit(
    x: DesignMatrix,
    y: Sequence[float],
    condition_limit: float = CONDITION_LIMIT,
) -> FitResult:
    """Minimize ||x @ beta - y||_2 and report goodness of fit.

    Raises DimensionMismatch on shape errors and RankDeficient when the
    condition estimate of the column-scaled system exceeds condition_limit.
    """
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 1 or yv.shape[0] != x.rows:
        raise DimensionMismatch(f"y has shape {yv.shape}, expected ({x.rows},)")
    if not np.all(np.isfinite(yv)):
        raise DimensionMismatch("observations must be finite")

    scaled, scales = column_scale(x)
    a = scaled.as_array()
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.abs(np.diag(r))
    if np.any(diag == 0):
        raise RankDeficient("zero pivot in triangular factor")
    condition = float(np.linalg.cond(r))
    if not np.isfinite(condition) or condition > condition_limit:
        raise RankDeficient(f"condition estimate {condition:.3e} exceeds {condition_limit:.1e}")

    beta_scaled = np.linalg.solve(r, q.T @ yv)
    beta = beta_scaled / np.asarray(scales)

    residual = yv - x.as_array() @ beta
    residual_norm = float(np.linalg.norm(residual))
    ss_res = residual_norm ** 2
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    if ss_tot > 0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        # Constant observations: perfect if we matched them, else no skill.
        r_squared = 1.0 if ss_res <= 1e-28 * max(1.0, float(yv @ yv)) else 0.0

    return FitResult(
        coefficients=tuple(float(b) for b in beta),
        r_squared=r_squared,
        residual_norm=residual_norm,
        condition_estimate=condition,
    )
