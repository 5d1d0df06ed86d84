"""Closed-form per-phase cost polynomials and their fitting.

Four coefficient families describe one generation:

    prefill latency   t(s)    = alpha*s + beta*s^2 + gamma
    decode latency    t(s, g) = eta*g + theta*s*g + phi*g^2 + rho
    prefill energy    E(s)    = a*s + b
    decode energy     E(s, g) = c*g + d*s*g + g_intercept

with s input tokens and g generated tokens. Each family's coefficient class
is the one definition of its polynomial: calling it on (s, g) evaluates it
(on numbers or numpy arrays), fitting evaluates it on unit coefficient
vectors to build its basis columns, and its fields name the keys of the
coefficient file. The last field is always the intercept.

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
E = t * P_phase / 3600 (watts and seconds to Wh). `consistency_report`
cross-checks fitted energy coefficients against power-scaled latency
coefficients and flags pairs that disagree by more than a tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, InsufficientSamples, ModelOutOfRangeWarning
from . import kvconfig
from .numerics import DesignMatrix, FitResult, ols_fit
from .roofline import SECONDS_PER_HOUR, HardwareProfile


class _Polynomial:
    """Base of the four coefficient families. Subclasses are frozen
    dataclasses whose fields are the coefficients, intercept last, and whose
    `__call__(s, g)` evaluates the polynomial. Class constants: `decode`
    (the family is fitted to g >= 1 samples, else to g = 0 ones), `what`
    ("latency" or "energy") and `unit` of the value."""

    decode: bool
    what: str
    unit: str

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")

    @property
    def is_physical(self) -> bool:
        """Every coefficient but the intercept is nonnegative."""
        return all(getattr(self, f.name) >= 0 for f in fields(self)[:-1])


@dataclass(frozen=True)
class PrefillLatencyCoeffs(_Polynomial):
    """Seconds per input token (alpha), per token squared (beta), intercept (gamma)."""

    decode, what, unit = False, "latency", "s"
    alpha: float
    beta: float
    gamma: float

    def __call__(self, s, g=0):
        return self.alpha * s + self.beta * s * s + self.gamma


@dataclass(frozen=True)
class DecodeLatencyCoeffs(_Polynomial):
    """Seconds per output token (eta), per input*output token (theta),
    per output token squared (phi), intercept (rho, may be negative)."""

    decode, what, unit = True, "latency", "s"
    eta: float
    theta: float
    phi: float
    rho: float

    def __call__(self, s, g):
        return self.eta * g + self.theta * s * g + self.phi * g * g + self.rho


@dataclass(frozen=True)
class PrefillEnergyCoeffs(_Polynomial):
    """Wh per input token (a) and intercept (b)."""

    decode, what, unit = False, "energy", "Wh"
    a: float
    b: float

    def __call__(self, s, g=0):
        return self.a * s + self.b


@dataclass(frozen=True)
class DecodeEnergyCoeffs(_Polynomial):
    """Wh per output token (c), per input*output token (d), intercept
    (g_intercept, may be negative)."""

    decode, what, unit = True, "energy", "Wh"
    c: float
    d: float
    g_intercept: float

    def __call__(self, s, g):
        return self.c * g + self.d * s * g + self.g_intercept


@dataclass(frozen=True, eq=False)
class FitSamples:
    """Fit samples as columns, one row per measured or synthesized generation:
    input length s, output length g (g = 0 marks a prefill-only run), latency
    t and energy_wh (None when the samples carry no energy). Each column is
    stored as a read-only float64 copy, checked once when built."""

    s: np.ndarray
    g: np.ndarray
    t: np.ndarray
    energy_wh: np.ndarray | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "energy_wh":
                continue
            column = np.array(value, dtype=float)
            if column.ndim != 1:
                raise ValueError(f"{f.name} must be a 1-D column")
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        if len({len(c) for c in (self.s, self.g, self.t, self.energy_wh) if c is not None}) > 1:
            raise ValueError("columns must have equal length")
        # NaN fails each of these
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
    decode, g = 0 for prefill; energy families take no rows from samples
    without energy). The basis columns are the polynomial at each unit
    coefficient vector."""
    y = samples.energy_wh if family.what == "energy" else samples.t
    rows = (samples.g >= 1 if family.decode else samples.g == 0) & (y is not None)
    n, found = len(fields(family)), int(np.count_nonzero(rows))
    if found < n:
        phase = "decode" if family.decode else "prefill"
        raise InsufficientSamples(f"need >= {n} {phase} {family.what} samples, got {found}")
    s, g = samples.s[rows], samples.g[rows]
    columns = [family(*unit)(s, g) for unit in np.eye(n).tolist()]
    fit = ols_fit(DesignMatrix.from_columns(columns), y[rows])
    return family(*fit.coefficients), fit


def fit_prefill_latency(samples: FitSamples) -> tuple[PrefillLatencyCoeffs, FitResult]:
    """Fit t = alpha*s + beta*s^2 + gamma to prefill-only samples (g = 0).

    Returns the raw least-squares coefficients; check `.is_physical` before
    treating negative slopes as meaningful.
    """
    return _fit(PrefillLatencyCoeffs, samples)


def fit_decode_latency(samples: FitSamples) -> tuple[DecodeLatencyCoeffs, FitResult]:
    """Fit t = eta*g + theta*s*g + phi*g^2 + rho to decode-phase samples (g >= 1)."""
    return _fit(DecodeLatencyCoeffs, samples)


def fit_prefill_energy(samples: FitSamples) -> tuple[PrefillEnergyCoeffs, FitResult]:
    """Fit E = a*s + b to prefill-only samples carrying energy."""
    return _fit(PrefillEnergyCoeffs, samples)


def fit_decode_energy(samples: FitSamples) -> tuple[DecodeEnergyCoeffs, FitResult]:
    """Fit E = c*g + d*s*g + g_intercept to decode samples carrying energy."""
    return _fit(DecodeEnergyCoeffs, samples)


# --- power consistency --------------------------------------------------


@dataclass(frozen=True)
class ConsistencyEntry:
    """One fitted-vs-power-implied coefficient comparison."""

    name: str
    fitted: float
    power_implied: float
    relative_deviation: float
    flagged: bool


@dataclass(frozen=True)
class ConsistencyReport:
    entries: tuple[ConsistencyEntry, ...]

    def entry(self, name: str) -> ConsistencyEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def flagged(self) -> tuple[ConsistencyEntry, ...]:
        return tuple(e for e in self.entries if e.flagged)


def consistency_report(
    prefill_latency: PrefillLatencyCoeffs,
    decode_latency: DecodeLatencyCoeffs,
    prefill_energy: PrefillEnergyCoeffs,
    decode_energy: DecodeEnergyCoeffs,
    hw: HardwareProfile,
    flag_above: float = 0.10,
) -> ConsistencyReport:
    """Compare fitted energy coefficients against power-scaled latency ones.

    If energy really is phase power times runtime, each energy coefficient
    should equal the matching latency coefficient times P_phase/3600. The
    relative deviation is measured against the power-implied value; entries
    above `flag_above` are flagged but never treated as errors, because both
    sides are measurements.
    """
    pre_scale = hw.p_prefill / SECONDS_PER_HOUR
    dec_scale = hw.p_decode / SECONDS_PER_HOUR
    pairs = [
        ("prefill_slope", prefill_energy.a, pre_scale * prefill_latency.alpha),
        ("prefill_intercept", prefill_energy.b, pre_scale * prefill_latency.gamma),
        ("decode_slope", decode_energy.c, dec_scale * decode_latency.eta),
        ("decode_context_slope", decode_energy.d, dec_scale * decode_latency.theta),
        ("decode_intercept", decode_energy.g_intercept, dec_scale * decode_latency.rho),
    ]
    entries = []
    for name, fitted, implied in pairs:
        if implied == 0:
            deviation = 0.0 if fitted == 0 else float("inf")
        else:
            deviation = abs(fitted - implied) / abs(implied)
        entries.append(
            ConsistencyEntry(name, fitted, implied, deviation, deviation > flag_above)
        )
    return ConsistencyReport(tuple(entries))


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


def parse_coefficients(text: str) -> CoefficientSet:
    return coefficients_from_kv(kvconfig.parse_kv(text))


def load_coefficients(path) -> CoefficientSet:
    return coefficients_from_kv(kvconfig.read_kv_file(path))
