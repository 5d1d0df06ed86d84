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
  per entry, and `compare_models` evaluates every model of a sweep at once;
* flagged rows are never clamped: the value is reported, and the warning
  text goes on the entry's breakdown and on the mean;
* one finiteness check covers every entry and contour point, of either
  source, and then the mean: nothing is reported as inf or NaN (OverflowError);
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
from typing import NamedTuple

import numpy as np

from .errors import InferwattError
from .phase_model import CoefficientSet, out_of_range_message
from .roofline import HardwareProfile, Phase, energy_from_power
from .transformer_costs import (ClassLatency, ModelSpec, _closed_form, _device_table, _DeviceTable, _term_table,
                                class_latencies)

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
    """Predicts energy from roofline latencies times per-phase mean power.

    `table` is the model's term table on the hardware, with the per-class
    slopes the two fix, formed once here; it takes no part in equality or
    hashing. Each `phase_energies` call evaluates it on the columns through
    the closed form `class_latencies` uses, and forms no table. A model whose
    dimension does not convert to float64 raises OverflowError here.
    """

    model: ModelSpec
    hw: HardwareProfile
    table: _DeviceTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "table", _device_table(_term_table(self.model)[..., np.newaxis], self.hw))

    def phase_energies(self, s: np.ndarray, g: np.ndarray):
        """Prefill and decode Wh at each (s, g) of two 1-D columns; no row is flagged."""
        return *_energies(*_closed_form(self.table, s, g), self.hw), ()

    @property
    def provenance(self) -> str:
        return f"analytic-roofline ({self.model.name or 'model'} @ {self.hw.name or 'hw'})"


@np.errstate(all="ignore")  # an overflow fails the caller's finiteness check
def _energies(prefill: ClassLatency, decode: ClassLatency, hw: HardwareProfile):
    """Prefill and decode Wh of both phases' latencies."""
    return (energy_from_power(Phase.PREFILL, prefill.total_seconds, hw),
            energy_from_power(Phase.DECODE, decode.total_seconds, hw))


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


class WorkloadEntry(NamedTuple):
    """One weighted (s, g) pair of a workload, unchecked: `WorkloadSpec` checks its entries."""

    s: int
    g: int
    weight: float = 1.0


_BOOLS = frozenset((bool, np.bool_))


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _token_counts(values: list) -> np.ndarray:
    """Whole token counts >= 1 as an int64 column. A bool is not a count,
    though numpy reads True as 1."""
    if not _BOOLS.isdisjoint(map(type, values)):
        raise ValueError("token counts must be whole numbers")
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
    if (column < 1).any():
        raise ValueError("need s >= 1 and g >= 1")
    return _read_only(column)


def _weighted_mean(x: np.ndarray, workload: "WorkloadSpec") -> float:
    """sum(w * x) / sum(w), summed as Python floats in entry order."""
    with np.errstate(over="ignore"):  # an overflowed sum is the caller's to report
        return sum((workload.weight * x).tolist()) / workload.weight_total


@dataclass(frozen=True)
class WorkloadSpec:
    """A population of interactions as weighted (s, g) pairs.

    `entries` holds them as `WorkloadEntry` tuples. `s` and `g` (int64),
    `weight` (float64) and `weight_total` (its builtin sum) hold the same
    values, read-only, built and checked once here; they take no part in
    equality or hashing. Token counts must be whole numbers below 2**63 (ValueError, OverflowError otherwise).
    """

    entries: tuple[WorkloadEntry, ...]
    s: np.ndarray = field(init=False, repr=False, compare=False)
    g: np.ndarray = field(init=False, repr=False, compare=False)
    weight: np.ndarray = field(init=False, repr=False, compare=False)
    weight_total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("workload must have at least one entry")
        object.__setattr__(self, "s", _token_counts([e.s for e in self.entries]))
        object.__setattr__(self, "g", _token_counts([e.g for e in self.entries]))
        weight = np.array([e.weight for e in self.entries], dtype=float)
        if not (weight.min() > 0 and weight.max() < math.inf):  # NaN fails too
            raise ValueError("weight must be positive and finite")
        object.__setattr__(self, "weight", _read_only(weight))
        object.__setattr__(self, "weight_total", sum(weight.tolist()))

    @classmethod
    def single(cls, s: int, g: int) -> "WorkloadSpec":
        return cls((WorkloadEntry(s, g),))

    @property
    def mean_s(self) -> float:
        return _weighted_mean(self.s, self)

    @property
    def mean_g(self) -> float:
        return _weighted_mean(self.g, self)


@np.errstate(all="ignore")  # a total that overflows reads as inf
def _check_finite(prefill: np.ndarray, decode: np.ndarray) -> np.ndarray:
    """The totals prefill + decode; the first, in entry order, that is not finite raises."""
    total = prefill + decode
    finite = np.isfinite(total)
    if not finite.all():
        raise _not_finite(total[finite.argmin()].item())
    return total


def _mean_breakdown(source, workload: WorkloadSpec, prefill, decode, notes=()) -> EnergyBreakdown:
    return EnergyBreakdown(
        prefill_wh=_weighted_mean(prefill, workload),
        decode_wh=_weighted_mean(decode, workload),
        provenance=source.provenance,
        warnings=notes,
    )


def _flagged_notes(flagged, prefill, decode, workload: WorkloadSpec) -> list[tuple[str, ...]]:
    """The warning texts of each row, in entry order; () where no phase is flagged."""
    notes = [()] * len(workload.s)
    if not flagged:
        return notes
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
    One evaluation covers every model: the contour points are appended to the
    workload's columns, which `class_latencies` evaluates for every model at
    once. Model by model, smallest first, its workload rows and contour
    points and then its mean are checked as `estimate_workload` checks them.
    Contour lengths are checked as a workload's token counts are.
    """
    if not specs:
        raise ValueError("need at least one model spec")
    contour = _token_counts(list(contour_g))
    mean_s = workload.mean_s
    mean_tokens = mean_s + workload.mean_g
    grid_s = max(1, int(round(mean_s)))
    n = len(workload.entries)
    s = np.concatenate([workload.s, np.full(len(contour_g), grid_s)])
    g = np.concatenate([workload.g, contour])
    ordered = sorted(((spec.n_params, spec) for spec in specs), key=lambda pair: pair[0])
    prefill, decode = _energies(*class_latencies([spec for _, spec in ordered], hw, s, g), hw)
    rows, grid = [], []
    for (n_params, spec), p, d in zip(ordered, prefill.reshape(len(ordered), -1), decode.reshape(len(ordered), -1)):
        _check_finite(p, d)
        mean = EnergyBreakdown(_weighted_mean(p[:n], workload), _weighted_mean(d[:n], workload))
        name = spec.name or "model"
        rows.append(ModelComparisonRow(name, n_params, mean.total_wh, mean.total_wh / mean_tokens))
        grid.extend(ContourPoint(name, n_params, c, wh) for c, wh in zip(contour.tolist(), d[n:].tolist()))
    return ModelComparison(rows=tuple(rows), grid=tuple(grid))
