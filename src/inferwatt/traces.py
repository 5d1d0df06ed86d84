"""Measurement trace ingestion, phase decomposition, and aggregate statistics.

A trace is a flat file of generation runs, two kinds per prompt: prefill-only
runs (generation constrained to a single output token) and full runs. The
decode cost of a prompt is estimated by subtracting the mean prefill-only
cost from the mean full cost, component-wise (GPU/CPU/RAM energy) and for
latency. Runs are grouped by (prompt_id, model_id, precision, batch), so runs
of different models, precisions or batch sizes under one prompt id are never
averaged together. Negative decode estimates are preserved and flagged, never
clamped: they are measurement-noise evidence. A group whose runs disagree on
input_tokens is flagged too.

Each selection has one definition. `phase_energies` picks the component
energies of one phase (prefill-only runs, full runs, or the decode
estimates of decompositions); `aggregate` and the CLI's `hist` both read
it. `to_fit_samples` picks what `fit` fits: the prefill-only runs as g = 0
rows, then the positive decode estimates, as one `FitSamples` table.

Records are immutable tuples, validated when built: `RunRecord(...)`,
`_make` and `_replace` all reject the same bad values. `synthesize_trace`
builds them from a plan's columns: the coefficient classes evaluate the
whole plan at once, and the noise is one vector of draws in record order;
of the plan points that fail a check, the first raises its error.

Two serializations are supported, both UTF-8 (other bytes raise
UnknownFormat) with field names exactly as the RunRecord fields:
`delimited` (CSV with a header row) and `line-json` (one object per line).
Floats are written with shortest round-trip precision, so
parse -> write -> parse is identity. Delimited cells are quoted as the csv
module does (a cell holding a comma, a double quote or a newline is wrapped
in double quotes, inner quotes doubled) and read back with their surrounding
whitespace stripped. A text field holding a line break that csv leaves
unquoted (a lone carriage return, or one of the other breaks of
`str.splitlines`, such as U+2028) cannot be carried: writing it raises
ValueError; line-json carries any text.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import operator
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BadEdges, EmptyInput, EmptySelection, InferwattError, UnknownFormat
from .phase_model import FitSamples

COMPONENTS = ("gpu", "cpu", "ram")
_INF = float("inf")

FORMAT_DELIMITED = "delimited"
FORMAT_LINE_JSON = "line-json"


class RunKind(enum.Enum):
    PREFILL_ONLY = "prefill_only"
    FULL = "full"


_RUN_KINDS = {kind.value: kind for kind in RunKind}
# Per-record code reads the members from globals: that is faster than the
# enum class attribute.
_PREFILL_ONLY, _FULL = RunKind.PREFILL_ONLY, RunKind.FULL


class ComponentEnergy(NamedTuple):
    """Per-component energy in Wh."""

    gpu: float
    cpu: float
    ram: float

    @property
    def total(self) -> float:
        return self.gpu + self.cpu + self.ram


class _RunFields(NamedTuple):
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


class RunRecord(_RunFields):
    """One measured generation run."""

    __slots__ = ()

    def __new__(cls, prompt_id, run_kind, input_tokens, output_tokens, latency_s,
                gpu_wh, cpu_wh, ram_wh, model_id="", precision="", batch=1):
        if input_tokens < 1:
            raise ValueError("input_tokens must be >= 1")
        if output_tokens < 1:
            raise ValueError("output_tokens must be >= 1")
        if run_kind is _PREFILL_ONLY and output_tokens != 1:
            raise ValueError("prefill-only runs have exactly one output token")
        # chained comparisons against inf: NaN fails every one of them
        if not 0 < latency_s < _INF:
            raise ValueError("latency_s must be positive and finite")
        if not (0 <= gpu_wh < _INF and 0 <= cpu_wh < _INF and 0 <= ram_wh < _INF):
            raise ValueError("component energies must be nonnegative and finite")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return tuple.__new__(cls, (prompt_id, run_kind, input_tokens, output_tokens, latency_s,
                                   gpu_wh, cpu_wh, ram_wh, model_id, precision, batch))

    @classmethod
    def _make(cls, iterable) -> "RunRecord":
        return cls(*iterable)  # `_replace` builds through here, so it validates too


_FIELDS = RunRecord._fields
_REQUIRED = _FIELDS[:8]
# Cell text of the optional fields when a delimited header lacks them.
_DEFAULT_CELLS = {"model_id": "", "precision": "", "batch": "1"}


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


def _record_from_cells(cells: Iterable) -> RunRecord:
    """Convert the eleven field values, in field order, into a record."""
    prompt_id, kind, input_tokens, output_tokens, latency_s, gpu_wh, cpu_wh, ram_wh, \
        model_id, precision, batch = cells
    run_kind = _RUN_KINDS.get(str(kind))
    if run_kind is None:
        raise ValueError(f"unknown run_kind {str(kind)!r}")
    return RunRecord(str(prompt_id), run_kind, int(input_tokens), int(output_tokens),
                     float(latency_s), float(gpu_wh), float(cpu_wh), float(ram_wh),
                     str(model_id), str(precision), int(batch))


# What a bad cell or value can raise on its way into a record: int(None)
# (TypeError) and int(inf) (OverflowError) are reachable from line-json.
_BAD_VALUE = (ValueError, TypeError, OverflowError)


def _parse_delimited(text: str, rename: dict, records: list, issues: list) -> None:
    reader = csv.reader(text.splitlines(keepends=True))
    try:
        header = [rename.get(h.strip(), h.strip()) for h in next(reader)]
    except csv.Error as exc:
        raise UnknownFormat(f"unreadable header: {exc}") from None
    position = {name: i for i, name in enumerate(header)}  # a repeated name: the last one
    missing = [f for f in _REQUIRED if f not in position]
    if missing:
        raise UnknownFormat(f"header is missing required columns {missing}")
    width = len(header)
    defaults = []  # absent optional columns read these cells, appended to every row
    for name, cell in _DEFAULT_CELLS.items():
        if name not in position:
            position[name] = width + len(defaults)
            defaults.append(cell)
    cells = operator.itemgetter(*(position[f] for f in _FIELDS))

    start = 2  # the line on which the next csv record starts
    while True:
        try:
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if len(row) != width:
                    if len(row) > 1 or (row and row[0].strip()):  # blank lines are skipped
                        issues.append(ParseIssue(lineno, f"expected {width} cells, got {len(row)}"))
                    continue
                try:
                    records.append(_record_from_cells(map(str.strip, cells(row + defaults))))
                except _BAD_VALUE as exc:
                    issues.append(ParseIssue(lineno, str(exc)))
            return
        except csv.Error as exc:  # a cell longer than csv.field_size_limit(); reading goes on
            issues.append(ParseIssue(start, str(exc)))
            start = reader.line_num + 1


def _parse_line_json(text: str, rename: dict, records: list, issues: list) -> None:
    required = operator.itemgetter(*_REQUIRED)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            if rename:
                obj = {rename.get(k, k): v for k, v in obj.items()}
            records.append(_record_from_cells(
                (*required(obj), obj.get("model_id", ""), obj.get("precision", ""), obj.get("batch", 1))
            ))
        except (*_BAD_VALUE, KeyError, RecursionError) as exc:
            issues.append(ParseIssue(lineno, str(exc)))


def parse_records(
    source,
    fmt: str = FORMAT_DELIMITED,
    rename: dict[str, str] | None = None,
) -> tuple[list[RunRecord], list[ParseIssue]]:
    """Parse a trace from text, a text stream, or a pathlib.Path.

    Malformed lines are collected as ParseIssues with their line numbers and
    never silently dropped; well-formed records are returned in file order.
    A delimited record that spans lines (a quoted newline) is reported at the
    line where it starts. `rename` maps external column/key names onto the
    canonical field names. A file or stream that is not UTF-8 text raises
    UnknownFormat.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        elif hasattr(source, "read_text"):
            text = source.read_text(encoding="utf-8")
        else:
            text = source
    except UnicodeDecodeError as exc:
        raise UnknownFormat(f"trace is not UTF-8 text: {exc}") from None
    if fmt not in (FORMAT_DELIMITED, FORMAT_LINE_JSON):
        raise UnknownFormat(f"unknown trace format {fmt!r}")
    if not text.strip():
        raise EmptyInput("trace contains no data")
    records: list[RunRecord] = []
    issues: list[ParseIssue] = []
    parse = _parse_delimited if fmt == FORMAT_DELIMITED else _parse_line_json
    parse(text, rename or {}, records, issues)
    return records, issues


# Line breaks that str.splitlines (and so the reader) splits on but that csv
# leaves unquoted: a field holding one would be cut in two on reading.
_UNQUOTED_BREAK = re.compile(r"\r(?!\n)|[\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def _row(rec: RunRecord) -> tuple:
    return (rec[0], rec[1].value, *rec[2:])


def write_records(records: Iterable[RunRecord], fmt: str = FORMAT_DELIMITED) -> str:
    """Serialize records; inverse of parse_records for both formats.

    Raises ValueError when a delimited text field holds a line break the
    format cannot carry (see the module docstring).
    """
    if fmt == FORMAT_DELIMITED:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_FIELDS)
        writer.writerows(map(_row, records))
        text = out.getvalue()
        bad = _UNQUOTED_BREAK.search(text)
        if bad:
            raise ValueError(f"a text field holds the line break {bad.group()!r}, which "
                             "the delimited format cannot carry; use line-json")
        return text
    if fmt == FORMAT_LINE_JSON:
        return "\n".join(json.dumps(dict(zip(_FIELDS, _row(rec)))) for rec in records) + "\n"
    raise UnknownFormat(f"unknown trace format {fmt!r}")


def drop_warmup(records: Sequence[RunRecord], k: int) -> list[RunRecord]:
    """Drop the first k runs of each kind in each group `decompose` forms
    (prompt_id, model_id, precision, batch), preserving order.

    Traces are normally expected to have warmup runs already excluded; this
    is the escape hatch for ones that do not.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    seen: dict[tuple, int] = {}
    kept = []
    for rec in records:
        key = (rec.prompt_id, rec.model_id, rec.precision, rec.batch, rec.run_kind)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > k:
            kept.append(rec)
    return kept


NEGATIVE_DECODE = "negative_decode"
MIXED_INPUT_TOKENS = "mixed_input_tokens"


@dataclass(frozen=True)
class PromptDecomposition:
    """Per-group phase split: decode = mean(full) - mean(prefill-only), over
    the runs of one (prompt_id, model_id, precision, batch)."""

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
    model_id: str = ""
    precision: str = ""
    batch: int = 1


@dataclass(frozen=True)
class MissingKind:
    prompt_id: str
    missing: RunKind
    model_id: str = ""
    precision: str = ""
    batch: int = 1


_TOKENS_IN, _TOKENS_OUT, _LATENCY, _GPU, _CPU, _RAM = range(6)  # rows of decompose's values


def _group_means(values: np.ndarray, group: np.ndarray, picked: np.ndarray, n_groups: int,
                 rows: Sequence[int]):
    """Per-group counts of the runs `picked`, and the means of `values[rows]`
    over them (runs are columns of `values`; `group` numbers their groups).

    Groups of equal size are gathered into one C-contiguous (groups, size)
    block per value row and reduced along it, which sums each group in the
    same order as np.mean on that group's list, so the means are bitwise
    equal to it. Groups without picked runs get zeros.
    """
    counts = np.bincount(group[picked], minlength=n_groups)
    order = picked[np.argsort(group[picked], kind="stable")]  # grouped, in record order
    starts = np.cumsum(counts) - counts
    means = np.zeros((len(rows), n_groups))
    # np.unique would also do, but its first call costs ~1.5 MB of memory
    for size in sorted(set(counts.tolist()) - {0}):
        members = np.flatnonzero(counts == size)
        runs = order[starts[members, None] + np.arange(size)]
        for i, row in enumerate(rows):
            means[i, members] = values[row][runs].mean(axis=1)
    return counts, means


def decompose(
    records: Iterable[RunRecord],
) -> tuple[list[PromptDecomposition], list[MissingKind]]:
    """Split the cost of each (prompt_id, model_id, precision, batch) group
    into prefill and decode phases, in the order the groups first appear.

    Groups missing one run kind are reported as MissingKind entries and get
    no decomposition; nothing is fabricated. A negative decode estimate in
    any component sets the negative_decode flag on the decomposition; runs
    that disagree on input_tokens set mixed_input_tokens (input_tokens is
    then the rounded mean over the full runs).
    """
    records = list(records)
    if not records:
        return [], []
    prompt_ids, kinds, *numbers, model_ids, precisions, batches = zip(*records)
    groups: dict[tuple, int] = {}
    keys = [groups.setdefault(key, len(groups)) for key in zip(prompt_ids, model_ids, precisions, batches)]
    group = np.array(keys, dtype=np.intp)
    full = np.array([kind is _FULL for kind in kinds], dtype=bool)
    values = np.array(numbers, dtype=float)  # one row per field, input_tokens .. ram_wh
    n_groups = len(groups)
    distinct_inputs = set(zip(keys, numbers[_TOKENS_IN]))
    mixed = np.bincount([key for key, _ in distinct_inputs], minlength=n_groups) > 1

    rows = (_LATENCY, _GPU, _CPU, _RAM)
    pre_counts, pre_means = _group_means(values, group, np.flatnonzero(~full), n_groups, rows)
    full_counts, full_means = _group_means(values, group, np.flatnonzero(full), n_groups,
                                           rows + (_TOKENS_IN, _TOKENS_OUT))
    decode = full_means[:4] - pre_means
    negative = (decode[1:] < 0).any(axis=0)

    decompositions = []
    missing = []
    for (prompt_id, model_id, precision, batch), n_pre, n_full, p, f, d, neg, mix in zip(
        groups, pre_counts.tolist(), full_counts.tolist(), pre_means.T.tolist(), full_means.T.tolist(),
        decode.T.tolist(), negative.tolist(), mixed.tolist(),
    ):
        if not n_pre:
            missing.append(MissingKind(prompt_id, RunKind.PREFILL_ONLY, model_id, precision, batch))
        if not n_full:
            missing.append(MissingKind(prompt_id, RunKind.FULL, model_id, precision, batch))
        if not n_pre or not n_full:
            continue
        decompositions.append(
            PromptDecomposition(
                prompt_id=prompt_id,
                prefill_mean_wh=ComponentEnergy(*p[1:]),
                full_mean_wh=ComponentEnergy(*f[1:4]),
                decode_wh=ComponentEnergy(*d[1:]),
                prefill_mean_latency_s=p[0],
                full_mean_latency_s=f[0],
                decode_latency_s=d[0],
                input_tokens=int(round(f[4])),
                output_tokens=int(round(f[5])),
                n_prefill_runs=n_pre,
                n_full_runs=n_full,
                flags=(NEGATIVE_DECODE,) * neg + (MIXED_INPUT_TOKENS,) * mix,
                model_id=model_id,
                precision=precision,
                batch=batch,
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


_PHASE_ENERGY = {PHASE_PREFILL: "prefill_mean_wh", PHASE_FULL: "full_mean_wh", PHASE_DECODE: "decode_wh"}


def phase_energies(items: Sequence, phase: str = PHASE_FULL) -> np.ndarray:
    """The gpu, cpu and ram energy (Wh) of one phase, as a (3, n) array with
    one C-contiguous row per component, items in order.

    For records the phase selects the run kind (prefill <-> prefill-only
    runs, full <-> full runs; decode requires decompositions); for
    decompositions it selects their prefill mean, full mean or decode
    estimate.
    """
    if phase not in _PHASE_ENERGY:
        raise ValueError(f"unknown phase {phase!r}")
    items = list(items)
    if items and isinstance(items[0], RunRecord):
        if phase == PHASE_DECODE:
            raise EmptySelection("decode statistics require decompositions, not raw records")
        want = _PREFILL_ONLY if phase == PHASE_PREFILL else _FULL
        energies = [(r.gpu_wh, r.cpu_wh, r.ram_wh) for r in items if r.run_kind is want]
    else:
        energies = list(map(operator.attrgetter(_PHASE_ENERGY[phase]), items))
    if not energies:
        raise EmptySelection(f"no items match phase {phase!r}")
    return np.ascontiguousarray(np.array(energies, dtype=float).T)


def aggregate(items: Sequence, phase: str = PHASE_FULL) -> EnergyStats:
    """Aggregate per-component energy statistics over the records or
    decompositions `phase_energies` selects, with the arithmetic mean and the
    population standard deviation.
    """
    components = {
        comp: ComponentStats(
            mean=float(np.mean(values)),
            std=float(np.std(values)),  # population std
            count=len(values),
            min=float(np.min(values)),
            max=float(np.max(values)),
        )
        for comp, values in zip(COMPONENTS, phase_energies(items, phase))
    }
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
    data = np.asarray(values, dtype=float)
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
    # the middle value, or the mean of the middle two, as statistics.median
    # takes them; np.median would import numpy.ma (~2 MB) on its first call
    mid = data.size // 2
    middle = np.partition(data, [mid] if data.size % 2 else [mid - 1, mid])
    median = middle[mid] if data.size % 2 else (middle[mid - 1] + middle[mid]) / 2
    return HistogramResult(
        edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        mean=float(np.mean(data)),
        median=float(median),
    )


def _float_or_nan(n: int) -> float:
    try:
        return float(n)
    except OverflowError:  # a count too large for a float: its plan point raises this again
        return float("nan")


@np.errstate(all="ignore")  # an overflowed value is a draw no run can hold
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
    are zero. Deterministic for a fixed seed. A grid point where a polynomial
    is nonpositive, or a drawn value no RunRecord can hold (nonpositive or
    non-finite, as large noise or overflowing coefficients give), raises
    InferwattError; a plan point that is not a pair of whole numbers with
    s >= 1 and g >= 0 raises ValueError before anything is drawn.
    """
    if noise < 0:
        raise ValueError("noise must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    points = []
    for s, g in plan:
        # NaN and inf fail the range checks before int() sees them
        if not (1 <= s < _INF and 0 <= g < _INF and s == int(s) and g == int(g)):
            raise ValueError(f"plan point (s={s!r}, g={g!r}) needs whole numbers s >= 1 and g >= 0")
        points.append((int(s), int(g)))
    if coeffs.prefill_latency is None or coeffs.prefill_energy is None:
        raise InferwattError("trace synthesis needs prefill latency and energy coefficients")
    s_col, g_col = (np.array([_float_or_nan(point[i]) for point in points]) for i in (0, 1))
    decode = g_col != 0
    no_decode = coeffs.decode_latency is None or coeffs.decode_energy is None
    t_pre, e_pre = coeffs.prefill_latency(s_col), coeffs.prefill_energy(s_col)
    t_dec, e_dec = (0 * s_col, 0 * s_col) if no_decode else (
        coeffs.decode_latency(s_col, g_col), coeffs.decode_energy(s_col, g_col))
    out_of_range = ((t_pre <= 0) | (e_pre <= 0) | decode & ((t_dec <= 0) | (e_dec <= 0))).tolist()
    # each point's draws in order: (t_pre, e_pre) per prefill-only run, (t_pre, t_dec, e_pre, e_dec) per full run
    drawn = np.arange(6 * runs) < np.where(decode, 6 * runs, 2 * runs)[:, None]
    values = np.stack([t_pre, t_dec, e_pre, e_dec], axis=1)[:, [0, 2] * runs + [0, 1, 2, 3] * runs][drawn]
    rng = np.random.default_rng(seed)
    draw = iter((values * (1.0 + noise * rng.standard_normal(values.size))).tolist()).__next__

    records = []
    for idx, (s, g) in enumerate(points):
        if g and no_decode:
            raise InferwattError("plan has g>=1 points but no decode coefficients")
        if out_of_range[idx]:
            raise InferwattError(f"grid point (s={s}, g={g}) is outside the coefficient validity range")
        float(s), float(g)  # a count too large for a float (NaN above) raises OverflowError here
        prompt = f"p{idx:04d}"
        try:
            records += [RunRecord(prompt, _PREFILL_ONLY, s, 1, draw(), draw(), 0.0, 0.0, model_id, precision, 1)
                        for _ in range(runs)]
            records += [RunRecord(prompt, _FULL, s, g, draw() + draw(), draw() + draw(), 0.0, 0.0, model_id,
                                  precision, 1) for _ in range(runs if g else 0)]
        except ValueError as exc:
            raise InferwattError(f"grid point (s={s}, g={g}) drew a value no run can hold: {exc}") from None
    return records


def decode_fit_rows(decompositions: Sequence[PromptDecomposition]) -> list[PromptDecomposition]:
    """The decompositions `to_fit_samples` fits as decode rows, in order:
    those whose decode latency came out positive (the others are out of
    model range)."""
    return [d for d in decompositions if d.decode_latency_s > 0]


def to_fit_samples(records: Sequence[RunRecord], decompositions: Sequence[PromptDecomposition],
                   component: str = "total") -> FitSamples:
    """The samples `fit` fits: the prefill-only records, in order, as g = 0
    rows, then the `decode_fit_rows` decode estimates (decode latency and
    energy at their output length). `component` picks which energy the
    samples carry ('gpu', 'cpu', 'ram', or 'total', the sum gpu + cpu + ram).
    """
    if component not in COMPONENTS + ("total",):
        raise ValueError(f"unknown component {component!r}")
    prefill = [r for r in records if r.run_kind is _PREFILL_ONLY]
    decode = decode_fit_rows(decompositions)
    if component == "total":
        energy = [r.gpu_wh + r.cpu_wh + r.ram_wh for r in prefill]
    else:
        energy = list(map(operator.attrgetter(f"{component}_wh"), prefill))
    return FitSamples(
        s=[r.input_tokens for r in prefill] + [d.input_tokens for d in decode],
        g=[0] * len(prefill) + [d.output_tokens for d in decode],
        t=[r.latency_s for r in prefill] + [d.decode_latency_s for d in decode],
        energy_wh=energy + [getattr(d.decode_wh, component) for d in decode],
    )
