"""Interaction- and fleet-level energy estimation.

Two prediction sources share one interface, `phase_energies(s, g)`: it
takes columns of prompt and reply lengths and returns prefill and decode Wh
columns plus the rows it flags. A fitted coefficient set evaluates its
energy polynomials on the columns and flags each phase where the value is
<= 0; an analytic roofline source evaluates the per-class closed forms of
`transformer_costs` and converts them to energy via per-phase mean power,
and flags nothing. Every estimate is an EnergyBreakdown whose total is
exactly prefill + decode and which records where its numbers came from.

Contract of `estimate_workload`:

* a WorkloadSpec's columns (s, g, weight) are built and checked once, when
  the spec is made;
* the source is evaluated once per workload, on those columns, never once
  per entry;
* flagged rows are never clamped: the value is reported, and the warning
  text goes on the entry's breakdown and on the mean;
* one finiteness check covers every entry, and a non-finite entry or mean
  raises OverflowError: nothing is reported as inf or NaN;
* the weighted means are builtin sums in entry order, the same numbers a
  per-entry loop gives;
* the per-entry list of (entry, breakdown) pairs is materialized, in entry
  order, after that one check: EnergyBreakdown is a checked named tuple, and
  the rows are built from the checked columns without checking them again.
  `estimate_interaction` is the one-entry case.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat

import numpy as np

from .errors import InferwattError
from .phase_model import CoefficientSet, out_of_range_message
from .roofline import HardwareProfile, Phase, energy_from_power
from .transformer_costs import (
    ModelSpec,
    class_latencies,
    step_overflow,
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

    @np.errstate(all="ignore")  # an overflow fails the caller's finiteness check
    def phase_energies(self, s: np.ndarray, g: np.ndarray):
        """Prefill and decode Wh at each (s, g), and per phase a (polynomial,
        mask) pair whose mask marks the rows where its value is <= 0."""
        prefill_poly, decode_poly = self.coeffs.prefill_energy, self.coeffs.decode_energy
        prefill, decode = prefill_poly(s), decode_poly(s, g)
        return prefill, decode, ((prefill_poly, prefill <= 0), (decode_poly, decode <= 0))

    @property
    def provenance(self) -> str:
        return self.label


@dataclass(frozen=True)
class AnalyticSource:
    """Predicts energy from roofline latencies times per-phase mean power."""

    model: ModelSpec
    hw: HardwareProfile

    @np.errstate(all="ignore")  # an overflow fails the caller's finiteness check
    def phase_energies(self, s: np.ndarray, g: np.ndarray):
        """Prefill and decode Wh at each (s, g); no row is flagged. A decode
        step cost that is not finite raises OverflowError, unless an earlier
        row's total is not finite: the caller reports that row first."""
        prefill_latency, decode_latency = class_latencies(self.model, self.hw, s, g)
        prefill = energy_from_power(Phase.PREFILL, prefill_latency.total_seconds, self.hw)
        decode = energy_from_power(Phase.DECODE, decode_latency.total_seconds, self.hw)
        overflowed = decode_latency.nonfinite.any(axis=0)
        if overflowed.any():
            row = int(overflowed.argmax())
            if np.isfinite(prefill[:row] + decode[:row]).all():
                raise step_overflow(decode_latency.nonfinite[:, row])
        return prefill, decode, ()

    @property
    def provenance(self) -> str:
        return f"analytic-roofline ({self.model.name or 'model'} @ {self.hw.name or 'hw'})"


def _not_finite(total: float) -> OverflowError:
    return OverflowError(f"energy estimate {total!r} Wh is not finite; inputs are implausibly large")


class EnergyBreakdown(namedtuple("_BreakdownFields", "prefill_wh decode_wh provenance warnings total_wh")):
    """Per-phase energy of one interaction (or a weighted mean of many), as a
    checked named tuple: `total_wh` is prefill_wh + decode_wh, and a total
    that is not finite raises OverflowError, so no estimate is reported as inf
    or NaN. `_make` and `_replace` build through the same check."""

    __slots__ = ()

    def __new__(cls, prefill_wh, decode_wh, provenance="", warnings=()):
        total = prefill_wh + decode_wh
        if not math.isfinite(total):
            raise _not_finite(total)
        return tuple.__new__(cls, (prefill_wh, decode_wh, provenance, warnings, total))

    @classmethod
    def _make(cls, iterable) -> "EnergyBreakdown":
        return cls(*iterable)

    def _replace(self, **changes) -> "EnergyBreakdown":
        return type(self)(**{**dict(zip(self._fields, self[:4])), **changes})  # total_wh follows: no argument

    def __getnewargs__(self):  # copy and pickle rebuild through `__new__`
        return self[:4]


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


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _token_counts(values: list) -> np.ndarray:
    """Whole token counts >= 1 as an int64 column."""
    column = np.array(values)
    if column.dtype.kind != "i":
        # Python ints of 2**63 and more make uint64 or object columns
        if column.dtype.kind in "uO" and not column.max() < 2**63:
            raise OverflowError("token counts of 2**63 or more are implausibly large")
        with np.errstate(invalid="ignore"):
            counts = column.astype(np.int64)
        if not np.array_equal(counts, column):
            raise ValueError("token counts must be whole numbers")
        column = counts
    if column.min() < 1:
        raise ValueError("need s >= 1 and g >= 1")
    return _read_only(column)


def _weighted_mean(x: np.ndarray, weight: np.ndarray) -> float:
    """sum(w * x) / sum(w), summed as Python floats in entry order."""
    with np.errstate(over="ignore"):  # an overflowed sum is the caller's to report
        return sum((weight * x).tolist()) / sum(weight.tolist())


@dataclass(frozen=True)
class WorkloadSpec:
    """A population of interactions as weighted (s, g) pairs.

    `entries` holds them as objects. `s` and `g` (int64) and `weight`
    (float64) hold the same values as read-only columns, built and checked
    once here; they take no part in equality or hashing. Token counts must
    be whole numbers below 2**63 (ValueError, OverflowError otherwise).
    """

    entries: tuple[WorkloadEntry, ...]
    s: np.ndarray = field(init=False, repr=False, compare=False)
    g: np.ndarray = field(init=False, repr=False, compare=False)
    weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("workload must have at least one entry")
        object.__setattr__(self, "s", _token_counts([e.s for e in self.entries]))
        object.__setattr__(self, "g", _token_counts([e.g for e in self.entries]))
        weight = np.array([e.weight for e in self.entries], dtype=float)
        if not (weight.min() > 0 and weight.max() < math.inf):  # NaN fails too
            raise ValueError("weight must be positive and finite")
        object.__setattr__(self, "weight", _read_only(weight))

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
        return _weighted_mean(self.s, self.weight)

    @property
    def mean_g(self) -> float:
        return _weighted_mean(self.g, self.weight)


def _check_finite(prefill: np.ndarray, decode: np.ndarray) -> np.ndarray:
    """The totals prefill + decode; the first, in entry order, that is not finite raises."""
    with np.errstate(invalid="ignore"):
        total = prefill + decode
    finite = np.isfinite(total)
    if not finite.all():
        raise _not_finite(total[finite.argmin()].item())
    return total


def _mean_breakdown(source, workload: WorkloadSpec, prefill, decode, notes=()) -> EnergyBreakdown:
    return EnergyBreakdown(
        prefill_wh=_weighted_mean(prefill, workload.weight),
        decode_wh=_weighted_mean(decode, workload.weight),
        provenance=source.provenance,
        warnings=notes,
    )


def _flagged_notes(flagged, prefill, decode, workload: WorkloadSpec) -> list[tuple[str, ...]]:
    """The warning texts of each row, in entry order; () where no phase is flagged."""
    notes = [()] * len(workload.s)
    s, g = workload.s, workload.g
    for row in np.flatnonzero(np.logical_or.reduce([mask for _, mask in flagged], initial=False)).tolist():
        notes[row] = tuple(out_of_range_message(poly, (decode if poly.decode else prefill)[row].item(),
                                                s[row].item(), g[row].item())
                           for poly, mask in flagged if mask[row])
    return notes


def estimate_workload(
    source, workload: WorkloadSpec
) -> tuple[EnergyBreakdown, list[tuple[WorkloadEntry, EnergyBreakdown]]]:
    """Weighted mean breakdown over a workload, plus the per-entry table,
    from one evaluation of the source on the workload's columns."""
    prefill, decode, flagged = source.phase_energies(workload.s, workload.g)
    total = _check_finite(prefill, decode)
    notes = _flagged_notes(flagged, prefill, decode, workload)
    mean = _mean_breakdown(source, workload, prefill, decode, tuple(dict.fromkeys(chain.from_iterable(notes))))
    # every total was checked above: the rows are built without checking them again
    rows = zip(prefill.tolist(), decode.tolist(), repeat(source.provenance), notes, total.tolist())
    return mean, list(zip(workload.entries, map(partial(tuple.__new__, EnergyBreakdown), rows)))


def estimate_interaction(source, s: int, g: int) -> EnergyBreakdown:
    """Energy breakdown of one interaction from either prediction source:
    the one-entry case of `estimate_workload`.

    Out-of-range polynomial evaluations surface as warning strings on the
    breakdown; the totals are still reported.
    """
    _, [(_, breakdown)] = estimate_workload(source, WorkloadSpec.single(s, g))
    return breakdown


def led_equivalent_minutes(wh: float, led_watts: float = DEFAULT_LED_WATTS) -> float:
    """Minutes a LED bulb of the given wattage runs on this much energy."""
    # chained comparisons against inf: NaN fails each of them
    if not 0 <= wh < math.inf:
        raise ValueError("wh must be finite and >= 0")
    if not 0 < led_watts < math.inf:
        raise ValueError("led_watts must be positive and finite")
    minutes = wh / led_watts * 60.0
    if not math.isfinite(minutes):
        raise OverflowError("LED equivalent overflowed; inputs are implausibly large")
    return minutes


def fleet_extrapolate(
    per_interaction_wh: float, interactions_per_day: float
) -> tuple[float, float]:
    """Scale one interaction to fleet level: (kWh per day, MWh per year)."""
    if not (0 <= per_interaction_wh < math.inf and 0 <= interactions_per_day < math.inf):
        raise ValueError("inputs must be finite and >= 0")
    kwh_per_day = per_interaction_wh * interactions_per_day / 1000.0
    mwh_per_year = kwh_per_day * DAYS_PER_YEAR / 1000.0
    if not (math.isfinite(kwh_per_day) and math.isfinite(mwh_per_year)):
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
    Each model's workload entries and contour points are one evaluation of
    its source: the contour points are appended to the workload's columns.
    """
    if not specs:
        raise ValueError("need at least one model spec")
    if any(c < 1 for c in contour_g):
        raise ValueError("need s >= 1 and g >= 1")
    mean_tokens = workload.mean_s + workload.mean_g
    grid_s = max(1, int(round(workload.mean_s)))
    n = len(workload.entries)
    contour = np.array(contour_g, dtype=np.int64)
    s = np.concatenate([workload.s, np.full(len(contour), grid_s)])
    g = np.concatenate([workload.g, contour])

    rows = []
    grid = []
    for spec in sorted(specs, key=lambda m: m.n_params):
        source = AnalyticSource(spec, hw)
        prefill, decode, _ = source.phase_energies(s, g)
        _check_finite(prefill[:n], decode[:n])
        mean = _mean_breakdown(source, workload, prefill[:n], decode[:n])
        name = spec.name or "model"
        rows.append(
            ModelComparisonRow(
                name=name,
                n_params=spec.n_params,
                mean_total_wh=mean.total_wh,
                wh_per_token=mean.total_wh / mean_tokens,
            )
        )
        grid.extend(
            ContourPoint(name=name, n_params=spec.n_params, g=c, decode_wh=wh)
            for c, wh in zip(contour_g, decode[n:].tolist())
        )
    return ModelComparison(rows=tuple(rows), grid=tuple(grid))
