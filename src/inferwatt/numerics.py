"""Small dense ordinary least squares used by all coefficient fitting.

Solves via Householder QR rather than normal equations: the polynomial bases
used downstream mix columns like s and s^2 over s up to 30,000, and the
target coefficients span six orders of magnitude, so squaring the condition
number is not acceptable. Columns are rescaled to unit max-magnitude before
factorization and the solution is mapped back, which keeps the condition
estimate meaningful for those bases.

A DesignMatrix is one read-only 2-D float64 array, checked once. y with
max|y| outside [2**-256, 2**256) is fitted divided by a power of two, which
is exact, and the coefficients and residual norm are multiplied back, so no
square overflows or underflows. FitResult states the R^2 of constant y.

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
    """Dense design matrix: `array` holds one row per observation and one
    column per basis function, as a read-only float64 copy of what the
    constructor was given, with rows >= cols >= 1 and every value finite."""

    array: np.ndarray

    def __post_init__(self):
        array = np.array(self.array, dtype=float)
        if array.ndim != 2 or not array.shape[0] >= array.shape[1] >= 1:
            raise ValueError(f"need a 2-D matrix with rows >= cols >= 1, got shape {array.shape}")
        if not np.all(np.isfinite(array)):
            raise ValueError("design matrix values must be finite")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[float]]) -> "DesignMatrix":
        return cls(np.column_stack([np.asarray(c, dtype=float) for c in cols]))


@dataclass(frozen=True)
class FitResult:
    """Least-squares solution summary.

    r_squared is measured against the mean-model baseline and can go negative
    for fits worse than predicting the mean; it is reported as computed.
    Observations whose spread about their mean is within the rounding of the
    mean are constant: r_squared is 1.0 when the fit matches them, else 0.0.
    """

    coefficients: tuple[float, ...]
    r_squared: float
    residual_norm: float
    condition_estimate: float

    def __post_init__(self):
        if self.residual_norm < 0:
            raise ValueError("residual_norm must be nonnegative")


def ols_fit(x: DesignMatrix, y: Sequence[float]) -> FitResult:
    """Minimize ||x @ beta - y||_2 and report goodness of fit.

    Raises DimensionMismatch on shape errors, ZeroColumn when a column is
    identically zero, and RankDeficient when the condition estimate of the
    column-scaled system exceeds CONDITION_LIMIT or a coefficient overflows
    the float range.
    """
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 1 or yv.shape[0] != x.rows:
        raise DimensionMismatch(f"y has shape {yv.shape}, expected ({x.rows},)")
    if not np.all(np.isfinite(yv)):
        raise DimensionMismatch("observations must be finite")

    scales = np.max(np.abs(x.array), axis=0)
    if np.any(scales == 0):
        raise ZeroColumn(f"columns {np.flatnonzero(scales == 0).tolist()} are identically zero")
    q, r = np.linalg.qr(x.array / scales, mode="reduced")
    diag = np.abs(np.diag(r))
    if np.any(diag == 0):
        raise RankDeficient("zero pivot in triangular factor")
    condition = float(np.linalg.cond(r))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise RankDeficient(f"condition estimate {condition:.3e} exceeds {CONDITION_LIMIT:.1e}")

    # y is fitted as given while max|y| is 0 or in [2**-256, 2**256); else its squares could
    # overflow or underflow, and it is divided by a power of two into [1, 2)
    y_max = float(np.max(np.abs(yv)))
    exponent = int(np.frexp(y_max)[1])
    scale = 1.0 if -256 < exponent <= 256 else 2.0 ** (exponent - 1)
    ys = yv / scale
    with np.errstate(over="ignore"):
        beta_ys = np.linalg.solve(r, q.T @ ys) / scales
        beta = beta_ys * scale
    if not np.all(np.isfinite(beta)):
        # a column scale near the underflow limit puts its coefficient past
        # the float range: the design is degenerate at double precision
        raise RankDeficient(f"coefficients overflow for column scales {tuple(scales.tolist())}")

    residual_norm = float(np.linalg.norm(ys - x.array @ beta_ys))
    ss_res = residual_norm ** 2
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    # the floor of ss_tot for constant y: each of the n deviations is the mean's
    # rounding error, at most about (log2 n + 1) units in the last place of max|y|
    if ss_tot > x.rows * (x.rows.bit_length() * np.finfo(float).eps * y_max / scale) ** 2:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        # Constant observations: perfect if we matched them, else no skill.
        r_squared = 1.0 if ss_res <= 1e-28 * max(1.0, float(ys @ ys)) else 0.0

    return FitResult(
        coefficients=tuple(float(b) for b in beta),
        r_squared=r_squared,
        residual_norm=residual_norm * scale,
        condition_estimate=condition,
    )
