"""Closed-form per-phase cost polynomials and their fitting.

Four coefficient families describe one generation:

    prefill latency   t(s)    = alpha*s + beta*s^2 + gamma
    decode latency    t(s, g) = eta*g + theta*s*g + phi*g^2 + rho
    prefill energy    E(s)    = a*s + b
    decode energy     E(s, g) = c*g + d*s*g + g_intercept

with s input tokens and g generated tokens. Each family's coefficient class
states its polynomial once, as `terms`: one (coefficient, *factors) tuple per
field, in field order, each factor "s" or "g", the intercept last with none.
Evaluation (on numbers or numpy arrays), the fit's basis columns and
`is_physical` read it; the fields name the keys of the coefficient file.

Fits read a `FitSamples` table: columns s, g, latency t and (optionally)
energy, one row per generation. Each family fits the rows of its phase,
selected by mask: g = 0 for prefill, g >= 1 for decode.
`traces.to_fit_samples` builds the table a trace gives.

The polynomials are fitted approximations: intercepts can be negative, so
evaluation at very small arguments can dip below zero. `eval_*` flags such
results with a ModelOutOfRangeWarning, in both phases, instead of clamping
them, and fits return the raw least-squares coefficients; `is_physical`
on each coefficient set tells you whether the sign pattern matches the
underlying cost structure.

Energy and latency are linked through per-phase mean power:
E = t * P_phase / 3600 (watts and seconds to Wh), as
`roofline.energy_from_power` computes it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, InsufficientSamples, ModelOutOfRangeWarning
from . import kvconfig
from .numerics import DesignMatrix, FitResult, ols_fit


def _product(start, factors, s, g):
    """`start` times each factor ("s" or "g") of a term, left to right."""
    for factor in factors:
        start = start * (s if factor == "s" else g)
    return start


class _Polynomial:
    """Base of the four coefficient families. Subclasses are frozen
    dataclasses whose fields are the coefficients. Class constants: `terms`
    (the polynomial, as in the module docstring), `decode` (the family is
    fitted to g >= 1 samples, else to g = 0 ones), `what` ("latency" or
    "energy") and `unit` of the value."""

    terms: tuple[tuple[str, ...], ...]
    decode: bool
    what: str
    unit: str

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")

    def __call__(self, s, g=None):
        """The polynomial at (s, g); TypeError for a decode family without g. The
        terms add left to right from the first (sum() from 0 would lose a -0.0)."""
        total = None
        for name, *factors in self.terms:
            term = _product(getattr(self, name), factors, s, g)
            total = term if total is None else total + term
        return total

    @property
    def is_physical(self) -> bool:
        """Every coefficient of a term with a factor is nonnegative."""
        return all(getattr(self, name) >= 0 for name, *factors in self.terms if factors)


@dataclass(frozen=True)
class PrefillLatencyCoeffs(_Polynomial):
    """Seconds per input token (alpha), per token squared (beta), intercept (gamma)."""

    decode, what, unit = False, "latency", "s"
    terms = (("alpha", "s"), ("beta", "s", "s"), ("gamma",))
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class DecodeLatencyCoeffs(_Polynomial):
    """Seconds per output token (eta), per s*g (theta), per g^2 (phi); rho may be negative."""

    decode, what, unit = True, "latency", "s"
    terms = (("eta", "g"), ("theta", "s", "g"), ("phi", "g", "g"), ("rho",))
    eta: float
    theta: float
    phi: float
    rho: float


@dataclass(frozen=True)
class PrefillEnergyCoeffs(_Polynomial):
    """Wh per input token (a) and intercept (b)."""

    decode, what, unit = False, "energy", "Wh"
    terms = (("a", "s"), ("b",))
    a: float
    b: float


@dataclass(frozen=True)
class DecodeEnergyCoeffs(_Polynomial):
    """Wh per output token (c), per s*g (d), intercept (g_intercept, may be negative)."""

    decode, what, unit = True, "energy", "Wh"
    terms = (("c", "g"), ("d", "s", "g"), ("g_intercept",))
    c: float
    d: float
    g_intercept: float


@dataclass(frozen=True, eq=False)
class FitSamples:
    """Fit samples as columns, one row per measured or synthesized generation:
    input length s, output length g (g = 0 marks a prefill-only run), latency
    t and energy_wh. Each column is a read-only float64 copy of finite
    values, checked once when built."""

    s: np.ndarray
    g: np.ndarray
    t: np.ndarray
    energy_wh: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            column = np.array(getattr(self, f.name), dtype=float)
            if column.ndim != 1:
                raise ValueError(f"{f.name} must be a 1-D column")
            if not np.isfinite(column).all():
                raise ValueError(f"{f.name} must be finite")
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        if len({len(c) for c in (self.s, self.g, self.t, self.energy_wh)}) > 1:
            raise ValueError("columns must have equal length")
        if not np.all(self.s >= 1):
            raise ValueError("s must be >= 1")
        if not np.all(self.g >= 0):
            raise ValueError("g must be >= 0")
        if not np.all(self.t > 0):
            raise ValueError("t must be positive")


# --- evaluation ---------------------------------------------------------


def out_of_range_message(coeffs: _Polynomial, value: float, s, g) -> str:
    """The text flagging a nonpositive `value` of `coeffs` at (s, g)."""
    phase, at = ("decode", f"s={s}, g={g}") if coeffs.decode else ("prefill", f"s={s}")
    return (f"{phase} {coeffs.what} model returned {value:.4g} {coeffs.unit} at {at}; "
            "inputs are outside the fit's validity range")


def _checked(coeffs: _Polynomial, s: float, g: float = 0) -> float:
    """The one body of the `eval_*`: check the domain, evaluate, warn on <= 0."""
    if coeffs.decode and (s < 1 or g < 1):
        raise ValueError("need s >= 1 and g >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    value = coeffs(s, g)
    if value <= 0:
        warnings.warn(out_of_range_message(coeffs, value, s, g), ModelOutOfRangeWarning, stacklevel=3)
    return value


def eval_prefill_latency(coeffs: PrefillLatencyCoeffs, s: float) -> float:
    return _checked(coeffs, s)


def eval_decode_latency(coeffs: DecodeLatencyCoeffs, s: float, g: float) -> float:
    return _checked(coeffs, s, g)


def eval_prefill_energy(coeffs: PrefillEnergyCoeffs, s: float) -> float:
    return _checked(coeffs, s)


def eval_decode_energy(coeffs: DecodeEnergyCoeffs, s: float, g: float) -> float:
    return _checked(coeffs, s, g)


# --- fitting ------------------------------------------------------------


def _fit(family: type[_Polynomial], samples: FitSamples):
    """Least-squares fit of one family to the rows of its phase (g >= 1 for
    decode, g = 0 for prefill). Each term's product of factors is a basis
    column."""
    y = samples.energy_wh if family.what == "energy" else samples.t
    rows = samples.g >= 1 if family.decode else samples.g == 0
    n, found = len(family.terms), int(np.count_nonzero(rows))
    if found < n:
        phase = "decode" if family.decode else "prefill"
        raise InsufficientSamples(f"need >= {n} {phase} {family.what} samples, got {found}")
    s, g = samples.s[rows], samples.g[rows]
    columns = [_product(np.ones_like(s), factors, s, g) for _, *factors in family.terms]
    fit = ols_fit(DesignMatrix.from_columns(columns), y[rows])
    return family(*fit.coefficients), fit


def fit_prefill_latency(samples: FitSamples) -> tuple[PrefillLatencyCoeffs, FitResult]:
    """Fit the prefill latency family to prefill-only samples (g = 0)."""
    return _fit(PrefillLatencyCoeffs, samples)


def fit_decode_latency(samples: FitSamples) -> tuple[DecodeLatencyCoeffs, FitResult]:
    """Fit the decode latency family to decode-phase samples (g >= 1)."""
    return _fit(DecodeLatencyCoeffs, samples)


def fit_prefill_energy(samples: FitSamples) -> tuple[PrefillEnergyCoeffs, FitResult]:
    """Fit the prefill energy family to prefill-only samples carrying energy."""
    return _fit(PrefillEnergyCoeffs, samples)


def fit_decode_energy(samples: FitSamples) -> tuple[DecodeEnergyCoeffs, FitResult]:
    """Fit the decode energy family to decode samples carrying energy."""
    return _fit(DecodeEnergyCoeffs, samples)


# --- coefficient file IO --------------------------------------------------


@dataclass(frozen=True)
class CoefficientSet:
    """Bundle of the four polynomial families; groups may be absent."""

    prefill_latency: PrefillLatencyCoeffs | None = None
    decode_latency: DecodeLatencyCoeffs | None = None
    prefill_energy: PrefillEnergyCoeffs | None = None
    decode_energy: DecodeEnergyCoeffs | None = None


# Coefficient file groups, in file order; keys are "<group>.<field>".
_FAMILIES = {
    "prefill_latency": PrefillLatencyCoeffs,
    "decode_latency": DecodeLatencyCoeffs,
    "prefill_energy": PrefillEnergyCoeffs,
    "decode_energy": DecodeEnergyCoeffs,
}


def _sci(value: float) -> str:
    return np.format_float_scientific(value, unique=True)


def format_coefficients(cs: CoefficientSet, header: str = "") -> str:
    pairs = []
    for group in _FAMILIES:
        obj = getattr(cs, group)
        if obj is not None:
            pairs.extend((f"{group}.{f.name}", _sci(getattr(obj, f.name))) for f in fields(obj))
    return kvconfig.format_kv(pairs, header=header)


def coefficients_from_kv(kv: dict) -> CoefficientSet:
    groups: dict[str, dict[str, str]] = {}
    unknown = []
    for key, raw in kv.items():
        group, dot, name = key.partition(".")
        if dot and group in _FAMILIES:
            groups.setdefault(group, {})[name] = raw
        else:
            unknown.append(key)
    if unknown:
        raise ConfigError(f"unknown coefficient keys: {sorted(unknown)}")
    return CoefficientSet(**{group: kvconfig.read_fields(_FAMILIES[group], values, "coefficient", f"{group}.")
                             for group, values in groups.items()})


def load_coefficients(path) -> CoefficientSet:
    return coefficients_from_kv(kvconfig.read_kv_file(path))
