"""Measurement trace ingestion, phase decomposition, and aggregate statistics.

A trace is a flat file of generation runs, two kinds per prompt: prefill-only
runs (generation constrained to a single output token) and full runs. The
decode cost of a prompt is estimated by subtracting the mean prefill-only
cost from the mean full cost, component-wise (GPU/CPU/RAM energy) and for
latency. Negative decode estimates are preserved and flagged, never clamped:
they are measurement-noise evidence.

Two serializations are supported, both UTF-8 with field names exactly as the
RunRecord fields: `delimited` (CSV with a header row) and `line-json` (one
object per line). Floats are written with shortest round-trip precision, so
parse -> write -> parse is identity.
"""

from __future__ import annotations

import enum
import io
import json
import statistics
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BadEdges, EmptyInput, EmptySelection, UnknownFormat
from .phase_model import LatencySample

COMPONENTS = ("gpu", "cpu", "ram")
_INF = float("inf")

_FIELDS = (
    "prompt_id",
    "run_kind",
    "input_tokens",
    "output_tokens",
    "latency_s",
    "gpu_wh",
    "cpu_wh",
    "ram_wh",
    "model_id",
    "precision",
    "batch",
)

FORMAT_DELIMITED = "delimited"
FORMAT_LINE_JSON = "line-json"


class RunKind(enum.Enum):
    PREFILL_ONLY = "prefill_only"
    FULL = "full"


class ComponentEnergy(NamedTuple):
    """Per-component energy in Wh."""

    gpu: float
    cpu: float
    ram: float

    @property
    def total(self) -> float:
        return self.gpu + self.cpu + self.ram

    def minus(self, other: "ComponentEnergy") -> "ComponentEnergy":
        return ComponentEnergy(self.gpu - other.gpu, self.cpu - other.cpu, self.ram - other.ram)

    def get(self, component: str) -> float:
        if component == "total":
            return self.total
        return getattr(self, component)


@dataclass(frozen=True)
class RunRecord:
    """One measured generation run."""

    prompt_id: str
    run_kind: RunKind
    input_tokens: int
    output_tokens: int
    latency_s: float
    gpu_wh: float
    cpu_wh: float
    ram_wh: float
    model_id: str = ""
    precision: str = ""
    batch: int = 1

    def __post_init__(self):
        if self.input_tokens < 1:
            raise ValueError("input_tokens must be >= 1")
        if self.output_tokens < 1:
            raise ValueError("output_tokens must be >= 1")
        if self.run_kind is RunKind.PREFILL_ONLY and self.output_tokens != 1:
            raise ValueError("prefill-only runs have exactly one output token")
        # chained comparisons against inf: NaN fails every one of them
        if not 0 < self.latency_s < _INF:
            raise ValueError("latency_s must be positive and finite")
        if not (0 <= self.gpu_wh < _INF and 0 <= self.cpu_wh < _INF and 0 <= self.ram_wh < _INF):
            raise ValueError("component energies must be nonnegative and finite")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    @property
    def energy(self) -> ComponentEnergy:
        return ComponentEnergy(self.gpu_wh, self.cpu_wh, self.ram_wh)


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


def _record_from_fields(fields: dict) -> RunRecord:
    kind_raw = str(fields["run_kind"])
    try:
        kind = RunKind(kind_raw)
    except ValueError:
        raise ValueError(f"unknown run_kind {kind_raw!r}") from None
    return RunRecord(
        prompt_id=str(fields["prompt_id"]),
        run_kind=kind,
        input_tokens=int(fields["input_tokens"]),
        output_tokens=int(fields["output_tokens"]),
        latency_s=float(fields["latency_s"]),
        gpu_wh=float(fields["gpu_wh"]),
        cpu_wh=float(fields["cpu_wh"]),
        ram_wh=float(fields["ram_wh"]),
        model_id=str(fields.get("model_id", "")),
        precision=str(fields.get("precision", "")),
        batch=int(fields.get("batch", 1)),
    )


def parse_records(
    source,
    fmt: str = FORMAT_DELIMITED,
    rename: dict[str, str] | None = None,
) -> tuple[list[RunRecord], list[ParseIssue]]:
    """Parse a trace from text, a text stream, or a pathlib.Path.

    Malformed lines are collected as ParseIssues with their line numbers and
    never silently dropped; well-formed records are returned in file order.
    `rename` maps external column/key names onto the canonical field names.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif hasattr(source, "read_text"):
        text = source.read_text(encoding="utf-8")
    else:
        text = source
    if fmt not in (FORMAT_DELIMITED, FORMAT_LINE_JSON):
        raise UnknownFormat(f"unknown trace format {fmt!r}")
    if not text.strip():
        raise EmptyInput("trace contains no data")
    rename = rename or {}

    records: list[RunRecord] = []
    issues: list[ParseIssue] = []
    lines = text.splitlines()

    if fmt == FORMAT_DELIMITED:
        header = [rename.get(h.strip(), h.strip()) for h in lines[0].split(",")]
        missing = [f for f in _FIELDS[:8] if f not in header]
        if missing:
            raise UnknownFormat(f"header is missing required columns {missing}")
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                issues.append(ParseIssue(lineno, f"expected {len(header)} cells, got {len(cells)}"))
                continue
            try:
                records.append(_record_from_fields(dict(zip(header, (c.strip() for c in cells)))))
            except (ValueError, KeyError) as exc:
                issues.append(ParseIssue(lineno, str(exc)))
    else:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                obj = {rename.get(k, k): v for k, v in obj.items()}
                records.append(_record_from_fields(obj))
            except (ValueError, KeyError) as exc:
                issues.append(ParseIssue(lineno, str(exc)))
    return records, issues


def _cell(value) -> str:
    if isinstance(value, RunKind):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records(records: Iterable[RunRecord], fmt: str = FORMAT_DELIMITED) -> str:
    """Serialize records; inverse of parse_records for both formats."""
    if fmt == FORMAT_DELIMITED:
        out = io.StringIO()
        out.write(",".join(_FIELDS) + "\n")
        for rec in records:
            out.write(",".join(_cell(getattr(rec, f)) for f in _FIELDS) + "\n")
        return out.getvalue()
    if fmt == FORMAT_LINE_JSON:
        lines = []
        for rec in records:
            obj = {f: getattr(rec, f) for f in _FIELDS}
            obj["run_kind"] = rec.run_kind.value
            lines.append(json.dumps(obj))
        return "\n".join(lines) + "\n"
    raise UnknownFormat(f"unknown trace format {fmt!r}")


def drop_warmup(records: Sequence[RunRecord], k: int) -> list[RunRecord]:
    """Drop the first k runs of each (prompt, kind) group, preserving order.

    Traces are normally expected to have warmup runs already excluded; this
    is the escape hatch for ones that do not.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    seen: dict[tuple[str, RunKind], int] = {}
    kept = []
    for rec in records:
        key = (rec.prompt_id, rec.run_kind)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > k:
            kept.append(rec)
    return kept


NEGATIVE_DECODE = "negative_decode"


@dataclass(frozen=True)
class PromptDecomposition:
    """Per-prompt phase split: decode = mean(full) - mean(prefill-only)."""

    prompt_id: str
    prefill_mean_wh: ComponentEnergy
    full_mean_wh: ComponentEnergy
    decode_wh: ComponentEnergy
    prefill_mean_latency_s: float
    full_mean_latency_s: float
    decode_latency_s: float
    input_tokens: int
    output_tokens: int
    n_prefill_runs: int
    n_full_runs: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class MissingKind:
    prompt_id: str
    missing: RunKind


def _mean_energy(records: Sequence[RunRecord]) -> ComponentEnergy:
    return ComponentEnergy(
        gpu=float(np.mean([r.gpu_wh for r in records])),
        cpu=float(np.mean([r.cpu_wh for r in records])),
        ram=float(np.mean([r.ram_wh for r in records])),
    )


def decompose(
    records: Iterable[RunRecord],
) -> tuple[list[PromptDecomposition], list[MissingKind]]:
    """Split each prompt's cost into prefill and decode phases.

    Prompts missing one run kind are reported as MissingKind entries and get
    no decomposition; nothing is fabricated. A negative decode estimate in
    any component sets the negative_decode flag on the decomposition.
    """
    groups: dict[str, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault(rec.prompt_id, []).append(rec)

    decompositions = []
    missing = []
    for prompt_id, group in groups.items():
        prefill = [r for r in group if r.run_kind is RunKind.PREFILL_ONLY]
        full = [r for r in group if r.run_kind is RunKind.FULL]
        if not prefill:
            missing.append(MissingKind(prompt_id, RunKind.PREFILL_ONLY))
        if not full:
            missing.append(MissingKind(prompt_id, RunKind.FULL))
        if not prefill or not full:
            continue
        prefill_wh = _mean_energy(prefill)
        full_wh = _mean_energy(full)
        decode_wh = full_wh.minus(prefill_wh)
        prefill_lat = float(np.mean([r.latency_s for r in prefill]))
        full_lat = float(np.mean([r.latency_s for r in full]))
        flags = (NEGATIVE_DECODE,) if min(decode_wh) < 0 else ()
        decompositions.append(
            PromptDecomposition(
                prompt_id=prompt_id,
                prefill_mean_wh=prefill_wh,
                full_mean_wh=full_wh,
                decode_wh=decode_wh,
                prefill_mean_latency_s=prefill_lat,
                full_mean_latency_s=full_lat,
                decode_latency_s=full_lat - prefill_lat,
                input_tokens=int(round(np.mean([r.input_tokens for r in full]))),
                output_tokens=int(round(np.mean([r.output_tokens for r in full]))),
                n_prefill_runs=len(prefill),
                n_full_runs=len(full),
                flags=flags,
            )
        )
    return decompositions, missing


@dataclass(frozen=True)
class ComponentStats:
    mean: float
    std: float
    count: int
    min: float
    max: float


@dataclass(frozen=True)
class EnergyStats:
    """Per-component energy statistics for one phase; total is the sum of
    component means."""

    phase: str
    components: dict[str, ComponentStats]
    total_mean: float


PHASE_PREFILL = "prefill"
PHASE_FULL = "full"
PHASE_DECODE = "decode"


def _phase_energies(item, phase: str) -> ComponentEnergy:
    if isinstance(item, RunRecord):
        return item.energy
    if phase == PHASE_PREFILL:
        return item.prefill_mean_wh
    if phase == PHASE_FULL:
        return item.full_mean_wh
    return item.decode_wh


def aggregate(items: Sequence, phase: str = PHASE_FULL) -> EnergyStats:
    """Aggregate per-component energy statistics over records or
    decompositions.

    For records the phase selects the run kind (prefill <-> prefill-only
    runs, full <-> full runs; decode requires decompositions). Uses the
    arithmetic mean and the population standard deviation.
    """
    if phase not in (PHASE_PREFILL, PHASE_FULL, PHASE_DECODE):
        raise ValueError(f"unknown phase {phase!r}")
    selected = list(items)
    if selected and isinstance(selected[0], RunRecord):
        if phase == PHASE_DECODE:
            raise EmptySelection("decode statistics require decompositions, not raw records")
        want = RunKind.PREFILL_ONLY if phase == PHASE_PREFILL else RunKind.FULL
        selected = [r for r in selected if r.run_kind is want]
    if not selected:
        raise EmptySelection(f"no items match phase {phase!r}")

    energies = [_phase_energies(item, phase) for item in selected]
    components = {}
    for comp in COMPONENTS:
        values = np.array([e.get(comp) for e in energies], dtype=float)
        components[comp] = ComponentStats(
            mean=float(np.mean(values)),
            std=float(np.std(values)),  # population std
            count=len(values),
            min=float(np.min(values)),
            max=float(np.max(values)),
        )
    total_mean = sum(components[c].mean for c in COMPONENTS)
    return EnergyStats(phase=phase, components=components, total_mean=total_mean)


@dataclass(frozen=True)
class HistogramResult:
    """Histogram with a right-skew indicator (mean above median marks the
    long tail)."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    mean: float
    median: float

    @property
    def right_skewed(self) -> bool:
        return self.mean > self.median


def histogram(values: Sequence[float], bins) -> HistogramResult:
    """Bin values into `bins` (a count or explicit edges).

    Counts always sum to len(values): with explicit edges, out-of-range
    values are clipped into the end bins.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise EmptyInput("no values to bin")
    if isinstance(bins, int):
        if bins < 1:
            raise ValueError("bins must be >= 1")
        counts, edges = np.histogram(data, bins=bins)
    else:
        edges = np.asarray(list(bins), dtype=float)
        if edges.size < 2 or not np.all(np.diff(edges) > 0):  # NaN edges fail too
            raise BadEdges("edges must be strictly increasing with at least two entries")
        clipped = np.clip(data, edges[0], edges[-1])
        counts, edges = np.histogram(clipped, bins=edges)
    return HistogramResult(
        edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        mean=float(np.mean(data)),
        median=float(statistics.median(data.tolist())),
    )


def synthesize_trace(
    plan: Sequence[tuple[int, int]],
    coeffs,
    noise: float = 0.0,
    seed: int = 0,
    runs: int = 1,
    model_id: str = "synthetic",
    precision: str = "fp32",
) -> list[RunRecord]:
    """Emit a trace drawn from a CoefficientSet over a grid of (s, g) points.

    Each point becomes one prompt with `runs` prefill-only records and, for
    g >= 1, `runs` full records whose latency/energy are the prefill plus
    decode polynomial values, each independently perturbed by multiplicative
    Gaussian noise of relative std `noise`. Polynomial energy goes to the
    gpu_wh component (the families model device-side energy); cpu and ram
    are zero. Deterministic for a fixed seed.
    """
    from .phase_model import (
        eval_decode_energy,
        eval_decode_latency,
        eval_prefill_energy,
        eval_prefill_latency,
    )
    from .errors import InferwattError, ModelOutOfRangeWarning
    import warnings as _warnings

    if noise < 0:
        raise ValueError("noise must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if coeffs.prefill_latency is None or coeffs.prefill_energy is None:
        raise InferwattError("trace synthesis needs prefill latency and energy coefficients")
    rng = np.random.default_rng(seed)

    def draw(value: float) -> float:
        return value if noise == 0.0 else value * (1.0 + noise * rng.standard_normal())

    records = []
    for idx, (s, g) in enumerate(plan):
        prompt = f"p{idx:04d}"
        t_pre = eval_prefill_latency(coeffs.prefill_latency, s)
        e_pre = eval_prefill_energy(coeffs.prefill_energy, s)
        if t_pre <= 0 or e_pre <= 0:
            raise InferwattError(f"grid point s={s} is outside the coefficient validity range")
        for _ in range(runs):
            records.append(
                RunRecord(prompt, RunKind.PREFILL_ONLY, s, 1, draw(t_pre), draw(e_pre),
                          0.0, 0.0, model_id, precision, 1)
            )
        if g >= 1:
            if coeffs.decode_latency is None or coeffs.decode_energy is None:
                raise InferwattError("plan has g>=1 points but no decode coefficients")
            with _warnings.catch_warnings():
                _warnings.simplefilter("error", ModelOutOfRangeWarning)
                try:
                    t_dec = eval_decode_latency(coeffs.decode_latency, s, g)
                    e_dec = eval_decode_energy(coeffs.decode_energy, s, g)
                except ModelOutOfRangeWarning:
                    raise InferwattError(
                        f"grid point (s={s}, g={g}) is outside the coefficient validity range"
                    ) from None
            for _ in range(runs):
                records.append(
                    RunRecord(prompt, RunKind.FULL, s, g,
                              draw(t_pre) + draw(t_dec), draw(e_pre) + draw(e_dec),
                              0.0, 0.0, model_id, precision, 1)
                )
    return records


def to_fit_samples(items: Sequence, component: str = "total") -> list[LatencySample]:
    """Bridge records or decompositions to fit samples.

    Records map one-to-one: prefill-only runs become g = 0 samples, full
    runs keep their output count and full-run latency. Decompositions yield
    one prefill sample (g = 0) and one decode-phase sample each, carrying
    the subtracted decode latency/energy; decompositions whose decode
    latency came out nonpositive are skipped as out of model range.
    `component` picks which energy the samples carry ('gpu', 'cpu', 'ram',
    or 'total').
    """
    if component not in COMPONENTS + ("total",):
        raise ValueError(f"unknown component {component!r}")
    samples = []
    for item in items:
        if isinstance(item, RunRecord):
            samples.append(
                LatencySample(
                    s=item.input_tokens,
                    g=0 if item.run_kind is RunKind.PREFILL_ONLY else item.output_tokens,
                    t=item.latency_s,
                    energy_wh=item.energy.get(component),
                )
            )
        else:
            samples.append(
                LatencySample(
                    s=item.input_tokens,
                    g=0,
                    t=item.prefill_mean_latency_s,
                    energy_wh=item.prefill_mean_wh.get(component),
                )
            )
            if item.decode_latency_s > 0:
                samples.append(
                    LatencySample(
                        s=item.input_tokens,
                        g=item.output_tokens,
                        t=item.decode_latency_s,
                        energy_wh=item.decode_wh.get(component),
                    )
                )
    return samples
