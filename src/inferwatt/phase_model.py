"""Closed-form per-phase cost polynomials and their fitting.

Four coefficient families describe one generation:

    prefill latency   t(s)    = alpha*s + beta*s^2 + gamma
    decode latency    t(s, g) = eta*g + theta*s*g + phi*g^2 + rho
    prefill energy    E(s)    = a*s + b
    decode energy     E(s, g) = c*g + d*s*g + g_intercept

with s input tokens and g generated tokens. The polynomials are fitted
approximations: intercepts can be negative, so evaluation at very small
arguments can dip below zero. Such results are flagged with a
ModelOutOfRangeWarning instead of being clamped, and fits return the raw
least-squares coefficients; `is_physical` on each coefficient set tells you
whether the sign pattern matches the underlying cost structure.

Energy and latency are linked through per-phase mean power:
E = t * P_phase / 3600 (watts and seconds to Wh). `consistency_report`
cross-checks fitted energy coefficients against power-scaled latency
coefficients and flags pairs that disagree by more than a tolerance.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InsufficientSamples, ModelOutOfRangeWarning
from . import kvconfig
from .numerics import DesignMatrix, FitResult, ols_fit
from .roofline import HardwareProfile, Phase

SECONDS_PER_HOUR = 3600.0


def _require_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PrefillLatencyCoeffs:
    """Seconds per input token (alpha), per token squared (beta), intercept (gamma)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            _require_finite(name, getattr(self, name))

    @property
    def is_physical(self) -> bool:
        return self.alpha >= 0 and self.beta >= 0


@dataclass(frozen=True)
class DecodeLatencyCoeffs:
    """Seconds per output token (eta), per input*output token (theta),
    per output token squared (phi), intercept (rho, may be negative)."""

    eta: float
    theta: float
    phi: float
    rho: float

    def __post_init__(self):
        for name in ("eta", "theta", "phi", "rho"):
            _require_finite(name, getattr(self, name))

    @property
    def is_physical(self) -> bool:
        return self.eta >= 0 and self.theta >= 0 and self.phi >= 0


@dataclass(frozen=True)
class PrefillEnergyCoeffs:
    """Wh per input token (a) and intercept (b)."""

    a: float
    b: float

    def __post_init__(self):
        _require_finite("a", self.a)
        _require_finite("b", self.b)

    @property
    def is_physical(self) -> bool:
        return self.a >= 0


@dataclass(frozen=True)
class DecodeEnergyCoeffs:
    """Wh per output token (c), per input*output token (d), intercept
    (g_intercept, may be negative)."""

    c: float
    d: float
    g_intercept: float

    def __post_init__(self):
        for name in ("c", "d", "g_intercept"):
            _require_finite(name, getattr(self, name))

    @property
    def is_physical(self) -> bool:
        return self.c >= 0 and self.d >= 0


class _SampleFields(NamedTuple):
    s: int
    g: int
    t: float
    energy_wh: float | None = None


class LatencySample(_SampleFields):
    """One measured or synthesized generation: g = 0 marks a prefill-only run.
    An immutable tuple, validated when built (also by `_make`/`_replace`)."""

    __slots__ = ()

    def __new__(cls, s, g, t, energy_wh=None):
        if s < 1:
            raise ValueError("s must be >= 1")
        if g < 0:
            raise ValueError("g must be >= 0")
        if not t > 0:
            raise ValueError("t must be positive")
        return tuple.__new__(cls, (s, g, t, energy_wh))

    @classmethod
    def _make(cls, iterable) -> "LatencySample":
        return cls(*iterable)


class Regime(enum.Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"


@dataclass(frozen=True)
class RegimeThresholds:
    """Prompt-length boundaries between intercept-, linear-, and
    quadratic-dominated prefill latency."""

    constant_max: float = 100.0
    quadratic_min: float = 30000.0

    def __post_init__(self):
        if not (0 < self.constant_max < self.quadratic_min):
            raise ValueError("need 0 < constant_max < quadratic_min")


DEFAULT_REGIME_THRESHOLDS = RegimeThresholds()


# --- evaluation ---------------------------------------------------------


def eval_prefill_latency(coeffs: PrefillLatencyCoeffs, s: float) -> float:
    if s < 0:
        raise ValueError("s must be >= 0")
    return coeffs.alpha * s + coeffs.beta * s * s + coeffs.gamma


def eval_decode_latency(coeffs: DecodeLatencyCoeffs, s: float, g: float) -> float:
    if s < 1 or g < 1:
        raise ValueError("need s >= 1 and g >= 1")
    value = coeffs.eta * g + coeffs.theta * s * g + coeffs.phi * g * g + coeffs.rho
    if value <= 0:
        warnings.warn(
            f"decode latency model returned {value:.4g} s at s={s}, g={g}; "
            "inputs are outside the fit's validity range",
            ModelOutOfRangeWarning,
            stacklevel=2,
        )
    return value


def eval_prefill_energy(coeffs: PrefillEnergyCoeffs, s: float) -> float:
    if s < 0:
        raise ValueError("s must be >= 0")
    return coeffs.a * s + coeffs.b


def eval_decode_energy(coeffs: DecodeEnergyCoeffs, s: float, g: float) -> float:
    if s < 1 or g < 1:
        raise ValueError("need s >= 1 and g >= 1")
    value = coeffs.c * g + coeffs.d * s * g + coeffs.g_intercept
    if value <= 0:
        warnings.warn(
            f"decode energy model returned {value:.4g} Wh at s={s}, g={g}; "
            "inputs are outside the fit's validity range",
            ModelOutOfRangeWarning,
            stacklevel=2,
        )
    return value


def energy_from_power(phase: Phase, t: float, hw: HardwareProfile) -> float:
    """Convert a phase latency to Wh using the phase's mean power draw."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return t * hw.power(phase) / SECONDS_PER_HOUR


def regime_classify(
    s: float, thresholds: RegimeThresholds = DEFAULT_REGIME_THRESHOLDS
) -> Regime:
    """Classify a prompt length by which prefill-latency term dominates."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s <= thresholds.constant_max:
        return Regime.CONSTANT
    if s <= thresholds.quadratic_min:
        return Regime.LINEAR
    return Regime.QUADRATIC


# --- fitting ------------------------------------------------------------


def _fit(columns, y) -> FitResult:
    return ols_fit(DesignMatrix.from_columns(columns), y)


def fit_prefill_latency(
    samples: Iterable[LatencySample],
) -> tuple[PrefillLatencyCoeffs, FitResult]:
    """Fit t = alpha*s + beta*s^2 + gamma to prefill-only samples (g = 0).

    Returns the raw least-squares coefficients; check `.is_physical` before
    treating negative slopes as meaningful.
    """
    sel = [smp for smp in samples if smp.g == 0]
    if len(sel) < 3:
        raise InsufficientSamples(f"need >= 3 prefill-only samples, got {len(sel)}")
    s = np.array([smp.s for smp in sel], dtype=float)
    t = np.array([smp.t for smp in sel], dtype=float)
    fit = _fit([s, s * s, np.ones_like(s)], t)
    return PrefillLatencyCoeffs(*fit.coefficients), fit


def fit_decode_latency(
    samples: Iterable[LatencySample],
) -> tuple[DecodeLatencyCoeffs, FitResult]:
    """Fit t = eta*g + theta*s*g + phi*g^2 + rho to decode-phase samples (g >= 1)."""
    sel = [smp for smp in samples if smp.g >= 1]
    if len(sel) < 4:
        raise InsufficientSamples(f"need >= 4 decode samples, got {len(sel)}")
    s = np.array([smp.s for smp in sel], dtype=float)
    g = np.array([smp.g for smp in sel], dtype=float)
    t = np.array([smp.t for smp in sel], dtype=float)
    fit = _fit([g, s * g, g * g, np.ones_like(g)], t)
    return DecodeLatencyCoeffs(*fit.coefficients), fit


def fit_prefill_energy(
    samples: Iterable[LatencySample],
) -> tuple[PrefillEnergyCoeffs, FitResult]:
    """Fit E = a*s + b to prefill-only samples carrying energy."""
    sel = [smp for smp in samples if smp.g == 0 and smp.energy_wh is not None]
    if len(sel) < 2:
        raise InsufficientSamples(f"need >= 2 prefill energy samples, got {len(sel)}")
    s = np.array([smp.s for smp in sel], dtype=float)
    e = np.array([smp.energy_wh for smp in sel], dtype=float)
    fit = _fit([s, np.ones_like(s)], e)
    return PrefillEnergyCoeffs(*fit.coefficients), fit


def fit_decode_energy(
    samples: Iterable[LatencySample],
) -> tuple[DecodeEnergyCoeffs, FitResult]:
    """Fit E = c*g + d*s*g + g_intercept to decode samples carrying energy."""
    sel = [smp for smp in samples if smp.g >= 1 and smp.energy_wh is not None]
    if len(sel) < 3:
        raise InsufficientSamples(f"need >= 3 decode energy samples, got {len(sel)}")
    s = np.array([smp.s for smp in sel], dtype=float)
    g = np.array([smp.g for smp in sel], dtype=float)
    e = np.array([smp.energy_wh for smp in sel], dtype=float)
    fit = _fit([g, s * g, np.ones_like(g)], e)
    return DecodeEnergyCoeffs(*fit.coefficients), fit


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


# --- synthetic sample generation ----------------------------------------


@dataclass(frozen=True)
class CoefficientSet:
    """Bundle of the four polynomial families; groups may be absent."""

    prefill_latency: PrefillLatencyCoeffs | None = None
    decode_latency: DecodeLatencyCoeffs | None = None
    prefill_energy: PrefillEnergyCoeffs | None = None
    decode_energy: DecodeEnergyCoeffs | None = None


def synth_generate(
    plan: Sequence[tuple[int, int]],
    coeffs: CoefficientSet,
    noise: float = 0.0,
    seed: int = 0,
) -> list[LatencySample]:
    """Generate samples from the polynomials over a plan of (s, g) points.

    g = 0 points evaluate the prefill family, g >= 1 the decode family.
    `noise` is the relative standard deviation of independent multiplicative
    Gaussian perturbations on every latency and energy value; noise = 0 gives
    exact polynomial values. Deterministic for a fixed seed. Points must lie
    inside the polynomials' validity range (positive predictions).
    """
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)

    def perturb(value: float) -> float:
        if noise == 0.0:
            return value
        return value * (1.0 + noise * rng.standard_normal())

    out = []
    for s, g in plan:
        if g == 0:
            if coeffs.prefill_latency is None:
                raise ValueError("plan has g=0 points but no prefill latency coefficients")
            t = eval_prefill_latency(coeffs.prefill_latency, s)
            e = (
                eval_prefill_energy(coeffs.prefill_energy, s)
                if coeffs.prefill_energy is not None
                else None
            )
        else:
            if coeffs.decode_latency is None:
                raise ValueError("plan has g>=1 points but no decode latency coefficients")
            t = eval_decode_latency(coeffs.decode_latency, s, g)
            e = (
                eval_decode_energy(coeffs.decode_energy, s, g)
                if coeffs.decode_energy is not None
                else None
            )
        out.append(
            LatencySample(
                s=s,
                g=g,
                t=perturb(t),
                energy_wh=perturb(e) if e is not None else None,
            )
        )
    return out


# --- coefficient file IO --------------------------------------------------

_GROUP_FIELDS = {
    "prefill_latency": ("alpha", "beta", "gamma"),
    "decode_latency": ("eta", "theta", "phi", "rho"),
    "prefill_energy": ("a", "b"),
    "decode_energy": ("c", "d", "g_intercept"),
}
_GROUP_TYPES = {
    "prefill_latency": PrefillLatencyCoeffs,
    "decode_latency": DecodeLatencyCoeffs,
    "prefill_energy": PrefillEnergyCoeffs,
    "decode_energy": DecodeEnergyCoeffs,
}


def _sci(value: float) -> str:
    return np.format_float_scientific(value, unique=True)


def coefficients_to_kv(cs: CoefficientSet) -> list[tuple[str, str]]:
    pairs = []
    for group, fields in _GROUP_FIELDS.items():
        obj = getattr(cs, group)
        if obj is None:
            continue
        pairs.extend((f"{group}.{field}", _sci(getattr(obj, field))) for field in fields)
    return pairs


def format_coefficients(cs: CoefficientSet, header: str = "") -> str:
    return kvconfig.format_kv(coefficients_to_kv(cs), header=header)


def coefficients_from_kv(kv: dict) -> CoefficientSet:
    groups: dict[str, dict[str, float]] = {}
    for key, raw in kv.items():
        group, _, field = key.partition(".")
        if group not in _GROUP_FIELDS or field not in _GROUP_FIELDS[group]:
            raise ConfigError(f"unknown coefficient key {key!r}")
        try:
            groups.setdefault(group, {})[field] = float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: {raw!r} is not a number") from None
    built = {}
    for group, fields in groups.items():
        expected = _GROUP_FIELDS[group]
        missing = set(expected) - set(fields)
        if missing:
            raise ConfigError(f"coefficient group {group!r} missing {sorted(missing)}")
        built[group] = _GROUP_TYPES[group](**fields)
    return CoefficientSet(**built)


def parse_coefficients(text: str) -> CoefficientSet:
    return coefficients_from_kv(kvconfig.parse_kv(text))


def load_coefficients(path) -> CoefficientSet:
    return coefficients_from_kv(kvconfig.read_kv_file(path))
