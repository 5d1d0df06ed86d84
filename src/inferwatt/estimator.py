"""Interaction- and fleet-level energy estimation.

Two prediction sources are supported behind one interface: a fitted
coefficient set (the polynomials evaluated directly) and an analytic
roofline source (operation counting on a model spec plus hardware profile,
converted to energy via per-phase mean power). Every estimate is an
EnergyBreakdown whose total is exactly prefill + decode and which records
where its numbers came from.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InferwattError, ModelOutOfRangeWarning
from .phase_model import CoefficientSet, eval_decode_energy, eval_prefill_energy
from .roofline import HardwareProfile, Phase, energy_from_power
from .transformer_costs import (
    ModelSpec,
    predict_decode_latency,
    predict_prefill_latency,
)

DAYS_PER_YEAR = 365.25
DEFAULT_LED_WATTS = 5.0


@dataclass(frozen=True)
class FittedSource:
    """Predicts energy by evaluating fitted polynomial coefficients."""

    coeffs: CoefficientSet
    label: str = "fitted-coeffs"

    def __post_init__(self):
        if self.coeffs.prefill_energy is None or self.coeffs.decode_energy is None:
            raise InferwattError("fitted source needs prefill and decode energy coefficients")

    def phase_energies(self, s: int, g: int) -> tuple[float, float]:
        return (
            eval_prefill_energy(self.coeffs.prefill_energy, s),
            eval_decode_energy(self.coeffs.decode_energy, s, g),
        )

    @property
    def provenance(self) -> str:
        return self.label


@dataclass(frozen=True)
class AnalyticSource:
    """Predicts energy from roofline latencies times per-phase mean power."""

    model: ModelSpec
    hw: HardwareProfile

    def phase_energies(self, s: int, g: int) -> tuple[float, float]:
        t_prefill = predict_prefill_latency(self.model, self.hw, s).total_seconds
        t_decode = predict_decode_latency(self.model, self.hw, s, g).total_seconds
        return (
            energy_from_power(Phase.PREFILL, t_prefill, self.hw),
            energy_from_power(Phase.DECODE, t_decode, self.hw),
        )

    @property
    def provenance(self) -> str:
        return f"analytic-roofline ({self.model.name or 'model'} @ {self.hw.name or 'hw'})"


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-phase energy of one interaction (or a weighted mean of many).
    A non-finite total raises OverflowError: no estimate is reported as inf
    or NaN."""

    prefill_wh: float
    decode_wh: float
    provenance: str = ""
    warnings: tuple[str, ...] = ()
    total_wh: float = field(init=False, default=0.0)

    def __post_init__(self):
        total = self.prefill_wh + self.decode_wh
        if not math.isfinite(total):
            raise OverflowError(f"energy estimate {total!r} Wh is not finite; inputs are implausibly large")
        object.__setattr__(self, "total_wh", total)


@dataclass(frozen=True)
class WorkloadEntry:
    s: int
    g: int
    weight: float = 1.0

    def __post_init__(self):
        if self.s < 1 or self.g < 1:
            raise ValueError("need s >= 1 and g >= 1")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError("weight must be positive and finite")


@dataclass(frozen=True)
class WorkloadSpec:
    """A population of interactions as weighted (s, g) pairs."""

    entries: tuple[WorkloadEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("workload must have at least one entry")

    @classmethod
    def single(cls, s: int, g: int) -> "WorkloadSpec":
        return cls((WorkloadEntry(s, g),))

    @classmethod
    def parametric(
        cls,
        s_mean: float,
        s_std: float,
        g_mean: float,
        g_std: float,
        count: int,
        seed: int = 0,
    ) -> "WorkloadSpec":
        """Draw `count` interactions from independent normal length
        distributions (rounded, clipped to >= 1). Deterministic per seed."""
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = np.random.default_rng(seed)
        s_draw = np.maximum(1, np.rint(rng.normal(s_mean, s_std, count))).astype(int)
        g_draw = np.maximum(1, np.rint(rng.normal(g_mean, g_std, count))).astype(int)
        return cls(tuple(WorkloadEntry(int(s), int(g)) for s, g in zip(s_draw, g_draw)))

    @property
    def mean_s(self) -> float:
        w = sum(e.weight for e in self.entries)
        return sum(e.s * e.weight for e in self.entries) / w

    @property
    def mean_g(self) -> float:
        w = sum(e.weight for e in self.entries)
        return sum(e.g * e.weight for e in self.entries) / w


def estimate_interaction(source, s: int, g: int) -> EnergyBreakdown:
    """Energy breakdown of one interaction from either prediction source.

    Out-of-range polynomial evaluations surface as warning strings on the
    breakdown; the totals are still reported.
    """
    if s < 1 or g < 1:
        raise ValueError("need s >= 1 and g >= 1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ModelOutOfRangeWarning)
        prefill_wh, decode_wh = source.phase_energies(s, g)
    notes = tuple(
        str(w.message) for w in caught if issubclass(w.category, ModelOutOfRangeWarning)
    )
    return EnergyBreakdown(
        prefill_wh=prefill_wh,
        decode_wh=decode_wh,
        provenance=source.provenance,
        warnings=notes,
    )


def estimate_workload(
    source, workload: WorkloadSpec
) -> tuple[EnergyBreakdown, list[tuple[WorkloadEntry, EnergyBreakdown]]]:
    """Weighted mean breakdown over a workload, plus the per-entry table."""
    per_entry = [(e, estimate_interaction(source, e.s, e.g)) for e in workload.entries]
    total_weight = sum(e.weight for e in workload.entries)
    prefill = sum(e.weight * b.prefill_wh for e, b in per_entry) / total_weight
    decode = sum(e.weight * b.decode_wh for e, b in per_entry) / total_weight
    notes = tuple(dict.fromkeys(note for _, b in per_entry for note in b.warnings))
    mean = EnergyBreakdown(
        prefill_wh=prefill,
        decode_wh=decode,
        provenance=source.provenance,
        warnings=notes,
    )
    return mean, per_entry


def led_equivalent_minutes(wh: float, led_watts: float = DEFAULT_LED_WATTS) -> float:
    """Minutes a LED bulb of the given wattage runs on this much energy."""
    if wh < 0:
        raise ValueError("wh must be >= 0")
    if not led_watts > 0:
        raise ValueError("led_watts must be positive")
    minutes = wh / led_watts * 60.0
    if not math.isfinite(minutes):
        raise OverflowError("LED equivalent overflowed; inputs are implausibly large")
    return minutes


def fleet_extrapolate(
    per_interaction_wh: float, interactions_per_day: float
) -> tuple[float, float]:
    """Scale one interaction to fleet level: (kWh per day, MWh per year)."""
    if per_interaction_wh < 0 or interactions_per_day < 0:
        raise ValueError("inputs must be >= 0")
    kwh_per_day = per_interaction_wh * interactions_per_day / 1000.0
    mwh_per_year = kwh_per_day * DAYS_PER_YEAR / 1000.0
    if math.isinf(kwh_per_day) or math.isinf(mwh_per_year):
        raise OverflowError("fleet extrapolation overflowed; inputs are implausibly large")
    return kwh_per_day, mwh_per_year


DEFAULT_CONTOUR_G = (16, 32, 64, 128, 256)


@dataclass(frozen=True)
class ModelComparisonRow:
    name: str
    n_params: int
    mean_total_wh: float
    wh_per_token: float


@dataclass(frozen=True)
class ContourPoint:
    name: str
    n_params: int
    g: int
    decode_wh: float


@dataclass(frozen=True)
class ModelComparison:
    """Per-model workload energy plus a (model size x output length) grid of
    decode energies for contour plotting."""

    rows: tuple[ModelComparisonRow, ...]
    grid: tuple[ContourPoint, ...]


def compare_models(
    specs: list[ModelSpec],
    hw: HardwareProfile,
    workload: WorkloadSpec,
    contour_g: tuple[int, ...] = DEFAULT_CONTOUR_G,
) -> ModelComparison:
    """Analytic workload energy for each model, ordered by parameter count.

    wh_per_token is the mean total energy divided by the workload's mean
    token count (s + g). The contour grid evaluates decode energy at the
    workload's mean prompt length for each model and each g in contour_g.
    """
    if not specs:
        raise ValueError("need at least one model spec")
    mean_tokens = workload.mean_s + workload.mean_g
    grid_s = max(1, int(round(workload.mean_s)))

    rows = []
    grid = []
    for spec in sorted(specs, key=lambda m: m.n_params):
        source = AnalyticSource(spec, hw)
        mean, _ = estimate_workload(source, workload)
        rows.append(
            ModelComparisonRow(
                name=spec.name or "model",
                n_params=spec.n_params,
                mean_total_wh=mean.total_wh,
                wh_per_token=mean.total_wh / mean_tokens,
            )
        )
        for g in contour_g:
            t_decode = predict_decode_latency(spec, hw, grid_s, g).total_seconds
            grid.append(
                ContourPoint(
                    name=spec.name or "model",
                    n_params=spec.n_params,
                    g=g,
                    decode_wh=energy_from_power(Phase.DECODE, t_decode, hw),
                )
            )
    return ModelComparison(rows=tuple(rows), grid=tuple(grid))
