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

A run has one layout, one conversion and one list of checks. `_FIELD_KINDS`
gives each field of `_FIELDS`, in order, its kind (text, run kind, count or
real); a RunTable holds one column per field in that order, with the mask
`full` for the run kind, and a row (`_RunFields`) one value per field.
`_CHECKS` states each check once, in the order that names a bad run by its
first fault, on a row's numbers or a table's columns alike; `_faults` gives a
table's fault masks. `_run`, the one conversion and check of a row built by hand
(`RunTable.from_records`) or read, refuses a run kind that is no RunKind, then
converts each value (a boolean is no number, and a fraction no count), then
raises the message of the first check the run fails.

Conversion comes before checking. `read_runs` reads blocks of at most
`_BLOCK_ROWS` lines, converts each block's columns at once and names each
bad run by an unknown run kind, else by its first failing check. Only a
block with a value that does not convert is read again row by row through
`_run`. Each block takes one of two paths, which give the same runs and
issues. In a delimited trace with no double quote or NUL, a block whose
lines each hold the header's cell count, none longer than
`csv.field_size_limit()`, is split at its commas with no list per row; any
other block goes through `csv.reader`. A line-json block whose every line
matches `_JSON_LINE` (the layout `write_records` writes, with no escape in a
string and no number whose text converts to other than JSON's value) takes
its columns from the pattern's groups; any other, and every one under
`rename`, is decoded a line at a time. Line-json lines end at "\n" or
"\r\n" only, so a string may hold a raw U+2028; delimited lines end at each
break of `str.splitlines`. `parse_records` is the package's name for
`read_runs`, the same function. `synthesize_trace` evaluates the plan at
once and draws the noise as one vector in record order; of the plan points
that fail, the first raises.
`write_records` formats columns, a block of `_BLOCK_ROWS` rows at a time,
and encodes each distinct text once. `write_records`, `decompose`,
`to_fit_samples`, `phase_energies` and `drop_warmup` take a RunTable and read
its columns. Two RunTables are equal when every column holds the same values
in the same order.

Two serializations are supported, both UTF-8 (other bytes raise
UnknownFormat) with field names exactly as `_FIELDS`:
`delimited` (CSV with a header row) and `line-json` (one object per line).
Floats are written with shortest round-trip precision, so parse -> write ->
parse is identity. Line-json writes a text with only JSON's required escapes,
or as ASCII if it holds a lone surrogate, which UTF-8 cannot encode.
Delimited cells are quoted as the csv module does (a cell holding a comma, a
double quote or a newline is wrapped in double quotes, inner quotes doubled)
and read back with their surrounding whitespace stripped. A text field
holding a line break that csv leaves unquoted (a lone carriage return, or one
of the other breaks of `str.splitlines`, such as U+2028) cannot be carried:
writing it raises ValueError; line-json carries any text.
"""

from __future__ import annotations

import csv
import enum
import json
import operator
import re
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import PurePath
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
_FULL = RunKind.FULL  # per-row code reads it from globals: that is faster than the enum class attribute


def _finite(values, what: str):
    """`values`, if each is finite: a statistic that overflowed is refused (OverflowError naming `what`)."""
    if not np.isfinite(values).all():
        raise OverflowError(f"{what} is not finite; inputs are implausibly large")
    return values


@np.errstate(over="ignore")  # a total that overflows is refused
def _total(energy):
    """The total gpu + cpu + ram of a (gpu, cpu, ram) triple of numbers or of columns, if it does not overflow."""
    return _finite(energy[0] + energy[1] + energy[2], "a total energy (gpu + cpu + ram)")


class ComponentEnergy(NamedTuple):
    """Per-component energy in Wh, as numbers or as columns."""

    gpu: float
    cpu: float
    ram: float

    total = property(_total)


_COUNT_LIMIT = 2**63  # token counts and batch are int64 columns


def _number(name: str, value, convert):
    if value is True or value is False:  # JSON true and false
        raise ValueError(f"{name} must be a number, got {value}")
    try:
        number = convert(value)
    except _BAD_VALUE as exc:  # as int("x"), int(None) or int(inf): a value, not a program, at fault
        raise ValueError(f"{name}: {exc}") from None
    if convert is int and number != value and not isinstance(value, str):  # a count is no fraction
        raise ValueError(f"{name} must be a whole number, got {value}")
    return number


class _RunFields(NamedTuple):
    """One run as a row: its field values in field order."""

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

    @property
    def full(self) -> bool:
        """RunTable's `full`: whether the run kind is RunKind.FULL."""
        return self.run_kind is _FULL


_FIELDS = _RunFields._fields
# Each field's kind, in field order: a RunTable column, a column read and a
# written cell take their form from it
_FIELD_KINDS = ("text", "kind", "count", "count", "real", "real", "real", "real", "text", "text", "count")
_DEFAULTS = _RunFields._field_defaults  # the optional fields', in field order
_RUN_KIND = _FIELDS.index("run_kind")  # RunTable's `full`
_REQUIRED = _FIELDS[:-len(_DEFAULTS)]
_DTYPES = {"count": np.int64, "real": np.float64}


def _count_checks(name: str) -> tuple:
    count = operator.attrgetter(name)
    return ((lambda run: count(run) < 1, f"{name} must be >= 1"),
            (lambda run: count(run) >= _COUNT_LIMIT, f"{name} must be below 2**63"))


def _energy_ok(wh):
    return (0 <= wh) & (wh < _INF)


# Each check: a fault predicate, of a row's numbers or a table's columns (NaN
# fails every comparison; np.logical_not, as `~True` is -2), and its message.
_CHECKS = (
    *_count_checks("input_tokens"), *_count_checks("output_tokens"),
    (lambda run: np.logical_not(run.full) & (run.output_tokens != 1),
     "prefill-only runs have exactly one output token"),
    (lambda run: np.logical_not((0 < run.latency_s) & (run.latency_s < _INF)), "latency_s must be positive and finite"),
    (lambda run: np.logical_not(_energy_ok(run.gpu_wh) & _energy_ok(run.cpu_wh) & _energy_ok(run.ram_wh)),
     "component energies must be nonnegative and finite"),
    *_count_checks("batch"),
)


def _run(values: Sequence) -> _RunFields:
    """The run of a row's field values in field order (optional ones may be left
    out), converted and checked as the module docstring says."""
    if type(values[_RUN_KIND]) is not RunKind:
        raise ValueError(f"unknown run_kind {values[_RUN_KIND]!r}")
    run = _RunFields(*(value if kind == "kind" else str(value) if kind == "text" else
                       _number(name, value, int if kind == "count" else float)
                       for name, kind, value in zip(_FIELDS, _FIELD_KINDS, values)))
    for fault, message in _CHECKS:
        if fault(run):
            raise ValueError(message)
    return run


def _faults(runs: "RunTable") -> np.ndarray:
    """Row k marks the runs that fail `_CHECKS[k]`."""
    return np.array([fault(runs) for fault, _ in _CHECKS])


def _fault(faults: np.ndarray, i: int) -> str:
    """The message of run `i`'s first failing check; `faults` is `_faults` of its table."""
    return _CHECKS[np.argmax(faults[:, i])][1]


@dataclass(frozen=True, eq=False)
class RunTable:
    """Runs as columns, in trace order, as `read_runs`, `synthesize_trace` and
    `from_records` fill them: one per field of `_FIELDS`, in order, of the
    kinds `_FIELD_KINDS` gives (texts as lists of str, counts as int64 and
    reals as float64 arrays), with the bool mask `full` in place of
    `run_kind`. They hold values that pass every check of `_CHECKS`. Two
    tables are equal when each column holds the same values, in order."""

    prompt_id: list
    full: np.ndarray
    input_tokens: np.ndarray
    output_tokens: np.ndarray
    latency_s: np.ndarray
    gpu_wh: np.ndarray
    cpu_wh: np.ndarray
    ram_wh: np.ndarray
    model_id: list
    precision: list
    batch: np.ndarray

    def __len__(self) -> int:
        return len(self.prompt_id)

    @classmethod
    def from_records(cls, rows: Iterable) -> "RunTable":
        """The runs of rows built by hand, each its field values in field order
        (a `_RunFields` or a tuple), converted and checked as the reader
        converts and checks a row (`_run`): the first bad row raises."""
        return _table(list(map(_run, rows)))

    @classmethod
    def concat(cls, tables: Sequence["RunTable"]) -> "RunTable":
        if not tables:
            return _table(())
        return cls(*(list(chain.from_iterable(columns)) if kind == "text" else np.concatenate(columns)
                     for kind, columns in zip(_FIELD_KINDS, zip(*(vars(table).values() for table in tables)))))

    def __eq__(self, other):
        if not isinstance(other, RunTable):
            return NotImplemented
        return all(mine == theirs if isinstance(mine, list) else np.array_equal(mine, theirs)
                   for mine, theirs in zip(vars(self).values(), vars(other).values()))

    def take(self, index) -> "RunTable":
        """The runs at `index` (an int array), in its order."""
        rows = index.tolist()
        return RunTable(*([column[i] for i in rows] if isinstance(column, list) else column[index]
                          for column in vars(self).values()))


def _table(runs: Sequence[_RunFields]) -> RunTable:
    """The table of rows `_run` gave."""
    columns = zip(*runs) if runs else ((),) * len(_FIELDS)
    return RunTable(*(list(values) if kind == "text" else np.fromiter(values, _DTYPES[kind]) if kind in _DTYPES
                      else np.fromiter((value is _FULL for value in values), bool)
                      for kind, values in zip(_FIELD_KINDS, columns)))


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


# What a bad cell or value can raise on its way into a run: int(None)
# (TypeError) and int(inf) (OverflowError) are reachable from line-json.
_BAD_VALUE = (ValueError, TypeError, OverflowError)

_BLOCK_ROWS = 1024  # lines read or rows written at once: it bounds the cell values alive at a time
# The Python types of the line-json values a column of each field kind converts at once
_JSON_TYPES = {"text": {str}, "kind": {str}, "count": {int}, "real": {int, float}}


def _convert_column(kind: str, values: Sequence, form: str):
    """One field's column of a block, converted at once (the run kind stays
    text), of the `form` "cells" (delimited cell text, stripped), "tokens" (the
    text of values `_JSON_LINE` matched) or "values" (of the JSON types its kind takes)."""
    if form == "values":
        if not set(map(type, values)) <= _JSON_TYPES[kind]:  # int() takes booleans and fractions, float() booleans
            raise ValueError("a JSON value not of its column's type")
        return list(values) if kind in ("text", "kind") else np.array(values, dtype=_DTYPES[kind])
    if kind in ("text", "kind"):
        return list(map(str.strip, values)) if form == "cells" else list(values)
    # int() and float() take surrounding whitespace
    return np.fromiter(map(int if kind == "count" else float, values), _DTYPES[kind], len(values))


def _convert_block(form: str, columns: Sequence, lines: Sequence[int], issues: list) -> RunTable:
    """The runs of one block of rows, given as its eleven field columns in
    a `_convert_column` form. Each column is converted at once, and each
    bad run is an issue: an unknown run kind, else its first failing check.
    A block with a value that does not convert is read again row by row
    through `_run`."""
    try:
        converted = list(map(_convert_column, _FIELD_KINDS, columns, repeat(form)))
    except _BAD_VALUE:
        runs = []
        for lineno, cells in zip(lines, zip(*columns)):
            cells = list(map(str.strip, cells) if form == "cells" else cells)
            kind = str(cells[_RUN_KIND])
            cells[_RUN_KIND] = _RUN_KINDS.get(kind, kind)
            try:
                runs.append(_run(cells))
            except _BAD_VALUE as exc:
                issues.append(ParseIssue(lineno, str(exc)))
        return _table(runs)
    n, kind = len(lines), converted[_RUN_KIND]
    converted[_RUN_KIND] = np.fromiter(map(RunKind.FULL.value.__eq__, kind), bool, n)
    table = RunTable(*converted)
    unknown = ~table.full & np.fromiter(map(RunKind.PREFILL_ONLY.value.__ne__, kind), bool, n)
    faults = _faults(table)
    bad = unknown | faults.any(axis=0)
    if not bad.any():
        return table
    for i in np.flatnonzero(bad).tolist():
        issues.append(ParseIssue(lines[i], f"unknown run_kind {kind[i]!r}" if unknown[i] else _fault(faults, i)))
    return table.take(np.flatnonzero(~bad))


def _blocks(rows):  # each block as its columns, line numbers last; none is held once the next is asked for
    return iter(lambda: list(zip(*islice(rows, _BLOCK_ROWS))), [])


def _read_delimited(text: str, rename: dict, issues: list):
    """An iterator of the blocks, each as "cells", its eleven field columns
    and its line numbers; issues go to `issues`."""
    lines = text.splitlines(keepends=True)
    reader = csv.reader(lines)
    try:
        header = [rename.get(h.strip(), h.strip()) for h in next(reader)]
    except csv.Error as exc:
        raise UnknownFormat(f"unreadable header: {exc}") from None
    position = {name: i for i, name in enumerate(header)}  # a repeated name: the last one
    missing = [f for f in _REQUIRED if f not in position]
    if missing:
        raise UnknownFormat(f"header is missing required columns {missing}")
    width, limit = len(header), csv.field_size_limit()

    def block(cells):  # a block's header columns, line numbers last; an absent optional column reads its default
        return "cells", [cells[position[f]] if f in position else (str(_DEFAULTS[f]),) * len(cells[-1])
                         for f in _FIELDS], cells[-1]

    def rows(reader, before, start):  # `before` lines come ahead of the reader's; its next record starts at `start`
        while True:
            try:
                for row in reader:
                    lineno, start = start, before + reader.line_num + 1
                    if len(row) == width:
                        row.append(lineno)
                        yield row
                    elif len(row) > 1 or (row and row[0].strip()):  # blank lines are skipped
                        issues.append(ParseIssue(lineno, f"expected {width} cells, got {len(row)}"))
                return
            except csv.Error as exc:  # a cell longer than csv.field_size_limit(); reading goes on
                issues.append(ParseIssue(start, str(exc)))
                start = before + reader.line_num + 1

    if '"' in text or "\0" in text:  # a quoted record may span lines
        return map(block, _blocks(rows(reader, 0, 2)))

    def read(start):  # the block of lines from `start`, each a csv record, or None if it has no row
        chunk = lines[start:start + _BLOCK_ROWS]
        cells = ",".join(chunk).split(",")
        # csv splits the lines at each comma when each holds `width` cells (each width-th cell but the block's
        # last then ends its line: with a sentinel, one piece each) and none is longer than the field limit.
        # A last cell keeps its CR/LF, which int(), float() and strip take
        ends = "".join(cells[width - 1:-1:width]) + "."
        if len(cells) == width * len(chunk) and len(ends.splitlines()) == len(chunk) \
                and max(map(len, chunk)) <= limit:
            return block([cells[i::width] for i in range(width)] + [range(start + 1, start + 1 + len(chunk))])
        cells = list(zip(*rows(csv.reader(chunk), start, start + 1)))
        return block(cells) if cells else None

    return filter(None, map(read, range(1, len(lines), _BLOCK_ROWS)))  # a block's text dies with `read`


# A line-json row as `write_records` writes it, a %s per value
_JSON_LAYOUT = "{" + ", ".join(f"{json.dumps(name)}: %s" for name in _FIELDS) + "}"
# Each field kind's value text as a group. A string: no escape, and no control character, which JSON refuses. A
# count: an integer of at most 19 digits. A real: a number, but an integer -0 (JSON's is int 0, float("-0") is -0.0)
# or of 309 digits or more (float() of JSON's raises, of its text gives inf); a comma follows each. re matches (?:x|)
# faster than (?:x)?
_JSON_TOKENS = dict(text=r'"([^"\\\x00-\x1f]*)"', kind=r'"([^"\\\x00-\x1f]*)"', count=r"(-?(?:0|[1-9][0-9]{0,18}))",
                    real=r"(?!-0,)(-?(?:0|[1-9][0-9]{0,307})(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|))")
# One written line (a CR may end it), each value's text a group: int() and float() of it give JSON's value
_JSON_LINE = re.compile("(?m)^" + re.escape(_JSON_LAYOUT) % tuple(map(_JSON_TOKENS.get, _FIELD_KINDS)) + r"\r?$")


def _read_line_json(text: str, rename: dict, issues: list):
    """An iterator of the blocks of lines, each as its form ("tokens" if `_JSON_LINE` matches every line, else
    "values"), its eleven field columns and its line numbers; issues go to `issues`."""
    every, required = operator.itemgetter(*_FIELDS), operator.itemgetter(*_REQUIRED)
    lines = text.split("\n")
    if not lines[-1]:  # the text's last "\n" ends a line, not one more (text.removesuffix would copy the text)
        lines.pop()

    def read(start):  # the block of lines from `start`, taken off `lines` (their text dies with it), or None if no row
        block = lines[:_BLOCK_ROWS]
        del lines[:_BLOCK_ROWS]
        rows = [] if rename else _JSON_LINE.findall("\n".join(block))  # at most one match a line
        if len(rows) == len(block):
            return "tokens", list(zip(*rows)), range(start + 1, start + 1 + len(block))
        rows = []
        for lineno, line in enumerate(block, start=start + 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.removesuffix("\r"))  # a CR LF ends a line too
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                if rename:
                    obj = {rename.get(k, k): v for k, v in obj.items()}
                try:
                    rows.append((*every(obj), lineno))
                except KeyError:  # an optional field left out takes its default
                    missing = [f for f in _REQUIRED if f not in obj]
                    if missing:
                        raise ValueError(f"line is missing required fields {missing}") from None
                    rows.append((*required(obj), *map(obj.get, _DEFAULTS, _DEFAULTS.values()), lineno))
            except (*_BAD_VALUE, RecursionError) as exc:
                issues.append(ParseIssue(lineno, str(exc)))
        if rows:
            *columns, numbers = zip(*rows)
            return "values", columns, numbers

    return filter(None, map(read, range(0, len(lines), _BLOCK_ROWS)))  # a block's rows die with `read`


def trace_format(path, fmt: str | None) -> str:
    """`fmt` when given, else the format of the trace at `path`: line-json for a
    .jsonl or .ndjson name, delimited for any other and for None (standard output)."""
    if fmt is not None:
        return fmt
    return FORMAT_LINE_JSON if path is not None and PurePath(path).suffix in (".jsonl", ".ndjson") else FORMAT_DELIMITED


def read_runs(
    source,
    fmt: str = FORMAT_DELIMITED,
    rename: dict[str, str] | None = None,
) -> tuple[RunTable, list[ParseIssue]]:
    """Read a trace from text or a pathlib.Path into a RunTable of its
    well-formed runs, in file order, and a ParseIssue per malformed line.

    Malformed lines are never silently dropped. A delimited record that
    spans lines (a quoted newline) is reported at the line where it starts.
    Each block of `_BLOCK_ROWS` lines is split at its commas, or matched by
    one line-json pattern, when its text allows, else read by csv or a JSON
    decode per line, with equal results (see the module docstring).
    Line-json lines end at "\n" or "\r\n" only. One leading byte-order
    mark (U+FEFF) is dropped. `rename` maps external column/key names onto
    the canonical field names. A file that is not UTF-8 text, or a source
    that is neither text nor a Path (a stream, bytes), raises UnknownFormat;
    for text without a comma, such as a file name, its message says that a
    file name must be a Path. The package exports this function as
    `parse_records`.
    """
    if not (isinstance(source, str) or hasattr(source, "read_text")):
        raise UnknownFormat(f"a trace is text or a pathlib.Path, not {type(source).__name__}")
    try:
        text = source.read_text(encoding="utf-8") if hasattr(source, "read_text") else source
    except UnicodeDecodeError as exc:
        raise UnknownFormat(f"trace is not UTF-8 text: {exc}") from None
    if fmt not in (FORMAT_DELIMITED, FORMAT_LINE_JSON):
        raise UnknownFormat(f"unknown trace format {fmt!r}")
    if text[:1] == "\ufeff":  # a byte-order mark, as Excel's "CSV UTF-8" writes
        text = text[1:]
    if not text.strip():
        raise EmptyInput("trace contains no data")
    issues: list[ParseIssue] = []
    tables = []
    try:
        for form, columns, lines in (_read_delimited if fmt == FORMAT_DELIMITED else _read_line_json)(
                text, rename or {}, issues):
            tables.append(_convert_block(form, columns, lines, issues))
            del columns  # before the next block is read: with both alive, reading took ~4 % longer
    except UnknownFormat as exc:
        if isinstance(source, str) and "," not in text:  # a trace of either format has a comma
            raise UnknownFormat(f"{exc}; a file name must be given as a pathlib.Path") from None
        raise
    issues.sort(key=operator.attrgetter("line"))  # a line has at most one issue
    return RunTable.concat(tables), issues


parse_records = read_runs  # the package's name for the reader: one function, so a wrapper of either wraps both


# Line breaks that str.splitlines (and so the reader) splits on but that csv
# leaves unquoted: a field holding one would be cut in two on reading.
_UNQUOTED_BREAK = re.compile(r"\r(?!\n)|[\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


class _Echo:
    """A file whose `write` returns its text: a csv writer's `writerow` then
    returns the row as text."""

    @staticmethod
    def write(text: str) -> str:
        return text


_csv_row = csv.writer(_Echo(), lineterminator="\n").writerow


def _csv_cell(value: str) -> str:
    return _csv_row(("", value))[1:-1]  # one cell of a two-cell row: csv writes a lone "" as '""'


_SURROGATE = re.compile("[\ud800-\udfff]")  # in a str, only a "\ud800" escape read from line-json gives one


def _json_text(value: str) -> str:
    """A text as line-json writes it: as it is, or escaped if it holds a lone surrogate, which UTF-8 cannot encode."""
    return json.dumps(value, ensure_ascii=_SURROGATE.search(value) is not None)


# A row's text: text cells and the run kind as encoded, numbers as their repr (as csv and json write them)
_CELLS = tuple("%r" if kind in _DTYPES else "%s" for kind in _FIELD_KINDS)
_DELIMITED_ROW = ",".join(_CELLS) + "\n"
_JSON_ROW = _JSON_LAYOUT % _CELLS + "\n"


def _refuse_unquoted_breaks(columns: Sequence[list], distinct: Sequence[dict]) -> None:
    """Raise ValueError for the first text value in the written text that
    holds a line break csv leaves unquoted. `distinct[k]` holds the distinct
    values of `columns[k]`; only they are searched."""
    bad = {value for values in distinct for value in values if _UNQUOTED_BREAK.search(value)}
    if bad:  # the first in the text: the earliest row, then the leftmost column
        row, k = min((next(i for i, value in enumerate(column) if value in bad), k)
                     for k, column in enumerate(columns) if not bad.isdisjoint(distinct[k]))
        raise ValueError(f"a text field holds the line break {_UNQUOTED_BREAK.search(columns[k][row]).group()!r}, "
                         "which the delimited format cannot carry; use line-json")


def write_records(runs: RunTable, fmt: str = FORMAT_DELIMITED) -> str:
    """Serialize a RunTable; inverse of `read_runs` (`parse_records`) for
    both formats. Counts are written as integers, and
    latency and energies as floats, as a RunTable holds them.

    Columns are formatted at once: each distinct text value is encoded once,
    by the csv module or `_json_text`, and numbers are written as their repr,
    as csv and json write them. Raises ValueError when a delimited text field
    holds a line break the format cannot carry (see the module docstring).
    """
    if fmt not in (FORMAT_DELIMITED, FORMAT_LINE_JSON):
        raise UnknownFormat(f"unknown trace format {fmt!r}")
    delimited = fmt == FORMAT_DELIMITED
    encode = _csv_cell if delimited else _json_text
    columns = list(vars(runs).values())
    texts = [k for k, kind in enumerate(_FIELD_KINDS) if kind == "text"]
    distinct = [dict.fromkeys(columns[k]) for k in texts]
    if delimited:
        _refuse_unquoted_breaks([columns[k] for k in texts], distinct)
    for k, values in zip(texts, distinct):
        columns[k] = list(map({value: encode(value) for value in values}.__getitem__, columns[k]))
    columns[_RUN_KIND] = list(map(
        (encode(RunKind.PREFILL_ONLY.value), encode(RunKind.FULL.value)).__getitem__, runs.full.tolist()))
    row = _DELIMITED_ROW if delimited else _JSON_ROW
    blocks = [_csv_row(_FIELDS)] if delimited else []
    for start in range(0, len(runs), _BLOCK_ROWS):
        cells = (column[start:start + _BLOCK_ROWS] for column in columns)
        blocks.append("".join(map(row.__mod__, zip(*(c if isinstance(c, list) else c.tolist() for c in cells)))))
    return "".join(blocks) or "\n"  # line-json without runs: one empty line


def drop_warmup(runs: RunTable, k: int) -> RunTable:
    """Drop the first k runs of each kind in each group `decompose` forms
    (prompt_id, model_id, precision, batch), preserving order.

    Traces are normally expected to have warmup runs already excluded; this
    is the escape hatch for ones that do not.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    seen: dict[tuple, int] = {}
    kept = []
    for i, key in enumerate(zip(runs.prompt_id, runs.model_id, runs.precision, runs.batch.tolist(),
                                runs.full.tolist())):
        seen[key] = count = seen.get(key, 0) + 1
        if count > k:
            kept.append(i)
    return runs.take(np.array(kept, dtype=np.intp))


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


def _group_means(values: Sequence[np.ndarray], group: np.ndarray, picked: np.ndarray, n_groups: int,
                 rows: Sequence[int]):
    """Per-group counts of the runs `picked`, and the means of `values[rows]`
    over them (each of `values` is a column of runs; `group` numbers their groups).

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


@np.errstate(over="ignore", invalid="ignore")  # a mean that overflows is refused below
def decompose(runs: RunTable) -> tuple[list[PromptDecomposition], list[MissingKind]]:
    """Split the cost of each (prompt_id, model_id, precision, batch) group
    into prefill and decode phases, in the order the groups first appear.

    Groups missing one run kind are reported as MissingKind entries and get
    no decomposition; nothing is fabricated. A negative decode estimate in
    any component sets the negative_decode flag on the decomposition; runs
    that disagree on input_tokens set mixed_input_tokens (input_tokens is
    then the rounded mean over the full runs). A decomposed group whose run
    means overflow raises OverflowError. `runs` is a RunTable.
    """
    if not len(runs):
        return [], []
    groups: dict[tuple, int] = {}
    group = np.array([groups.setdefault(key, len(groups)) for key in
                      zip(runs.prompt_id, runs.model_id, runs.precision, runs.batch.tolist())], dtype=np.intp)
    full = runs.full
    values = (runs.input_tokens.astype(np.float64), runs.output_tokens.astype(np.float64), runs.latency_s,
              runs.gpu_wh, runs.cpu_wh, runs.ram_wh)
    n_groups = len(groups)
    low, high = np.full(n_groups, _COUNT_LIMIT - 1), np.zeros(n_groups, dtype=np.int64)
    np.minimum.at(low, group, runs.input_tokens)
    np.maximum.at(high, group, runs.input_tokens)
    mixed = low != high

    rows = (_LATENCY, _GPU, _CPU, _RAM)
    pre_counts, pre_means = _group_means(values, group, np.flatnonzero(~full), n_groups, rows)
    full_counts, full_means = _group_means(values, group, np.flatnonzero(full), n_groups,
                                           rows + (_TOKENS_IN, _TOKENS_OUT))
    decode = full_means[:4] - pre_means  # finite where both means are: latency and energies are >= 0
    negative = (decode[1:] < 0).any(axis=0)

    decompositions, missing = [], []
    for (prompt_id, model_id, precision, batch), n_pre, n_full, p, f, d, neg, mix, finite in zip(
            groups, pre_counts.tolist(), full_counts.tolist(), pre_means.T.tolist(), full_means.T.tolist(),
            decode.T.tolist(), negative.tolist(), mixed.tolist(), np.isfinite(decode).all(axis=0).tolist()):
        if not n_pre:
            missing.append(MissingKind(prompt_id, RunKind.PREFILL_ONLY, model_id, precision, batch))
        if not n_full:
            missing.append(MissingKind(prompt_id, RunKind.FULL, model_id, precision, batch))
        if not n_pre or not n_full:
            continue
        if not finite:  # of the groups decomposed, the first whose run means overflowed
            _finite(d, f"a run mean of prompt {prompt_id!r} (model {model_id!r}, precision {precision!r}, batch {batch})")
        decompositions.append(PromptDecomposition(
            prompt_id, ComponentEnergy(*p[1:]), ComponentEnergy(*f[1:4]), ComponentEnergy(*d[1:]), p[0], f[0], d[0],
            int(round(f[4])), int(round(f[5])), n_pre, n_full, (NEGATIVE_DECODE,) * neg + (MIXED_INPUT_TOKENS,) * mix,
            model_id, precision, batch))
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


def phase_energies(items, phase: str = PHASE_FULL) -> np.ndarray:
    """The gpu, cpu and ram energy (Wh) of one phase, as a (3, n) array with
    one C-contiguous row per component, items in order.

    For runs (a RunTable) the phase selects the run kind (prefill <->
    prefill-only runs, full <-> full runs; decode requires decompositions);
    for decompositions it selects their prefill mean, full mean or decode
    estimate.
    """
    if phase not in _PHASE_ENERGY:
        raise ValueError(f"unknown phase {phase!r}")
    if isinstance(items, RunTable):
        if phase == PHASE_DECODE:
            raise EmptySelection("decode statistics require decompositions, not raw records")
        pick = items.full if phase == PHASE_FULL else ~items.full
        energies = np.stack([items.gpu_wh[pick], items.cpu_wh[pick], items.ram_wh[pick]])
    else:
        energies = np.array(list(map(operator.attrgetter(_PHASE_ENERGY[phase]), items)), dtype=float).T
    if not energies.size:
        raise EmptySelection(f"no items match phase {phase!r}")
    return np.ascontiguousarray(energies)


@np.errstate(over="ignore", invalid="ignore")  # a statistic that overflows is refused
def aggregate(items, phase: str = PHASE_FULL) -> EnergyStats:
    """Aggregate per-component energy statistics over the runs or
    decompositions `phase_energies` selects, with the arithmetic mean and the
    population standard deviation. A statistic that overflows raises OverflowError.
    """
    components = {
        comp: ComponentStats(
            mean=_finite(float(np.mean(values)), f"the {phase} {comp} energy mean"),
            std=_finite(float(np.std(values)), f"the {phase} {comp} energy std"),  # population std
            count=len(values),
            min=float(np.min(values)),
            max=float(np.max(values)),
        )
        for comp, values in zip(COMPONENTS, phase_energies(items, phase))
    }
    total_mean = _finite(sum(components[c].mean for c in COMPONENTS), f"the {phase} total energy mean")
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


@np.errstate(over="ignore", invalid="ignore")  # a mean or median that overflows is refused
def histogram(values: Sequence[float], bins) -> HistogramResult:
    """Bin values into `bins` (a count or explicit edges).

    Counts always sum to len(values): with explicit edges, out-of-range
    values are clipped into the end bins. A value that is not finite raises
    ValueError, checked first; then an overflowing mean or median raises
    OverflowError; too many bins for the values' range raise BadEdges.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise EmptyInput("no values to bin")
    finite = np.isfinite(data)
    if not finite.all():
        bad = int(finite.argmin())
        raise ValueError(f"values must be finite, got {data.flat[bad].item()!r} at index {bad}")
    # the middle value, or the mean of the middle two, as statistics.median
    # takes them; np.median would import numpy.ma (~2 MB) on its first call
    mid = data.size // 2
    middle = np.partition(data, [mid] if data.size % 2 else [mid - 1, mid])
    median = middle[mid] if data.size % 2 else (middle[mid - 1] + middle[mid]) / 2
    mean = _finite(float(np.mean(data)), "the mean of the values")
    median = _finite(float(median), "the median of the values")
    if isinstance(bins, int):
        if bins < 1:
            raise ValueError("bins must be >= 1")
        try:
            counts, edges = np.histogram(data, bins=bins)
        except ValueError as exc:  # values too close together for `bins` finite-sized bins
            raise BadEdges(str(exc)) from None
    else:
        edges = np.asarray(list(bins), dtype=float)
        if edges.size < 2 or not np.all(np.diff(edges) > 0):  # NaN edges fail too
            raise BadEdges("edges must be strictly increasing with at least two entries")
        clipped = np.clip(data, edges[0], edges[-1])
        counts, edges = np.histogram(clipped, bins=edges)
    return HistogramResult(
        edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        mean=mean,
        median=median,
    )


@np.errstate(all="ignore")  # an overflowed value is a draw no run can hold
def synthesize_trace(
    plan: Sequence[tuple[int, int]],
    coeffs,
    noise: float = 0.0,
    seed: int = 0,
    runs: int = 1,
) -> RunTable:
    """A RunTable of a trace drawn from a CoefficientSet over a grid of (s, g) points.

    Each point becomes one prompt with `runs` prefill-only runs and, for
    g >= 1, `runs` full runs whose latency/energy are the prefill plus
    decode polynomial values, each independently perturbed by multiplicative
    Gaussian noise of relative std `noise`. Polynomial energy goes to the
    gpu_wh component (the families model device-side energy); cpu and ram
    are zero, and every run has model_id 'synthetic', precision 'fp32' and
    batch 1. Deterministic for a fixed seed. A grid point where a polynomial
    is nonpositive, or a drawn value no run can hold (nonpositive or
    non-finite, as large noise or overflowing coefficients give), raises
    InferwattError, naming the first check its first such run fails; of the
    points that fail, the first raises. A plan point that is not a pair of
    whole numbers with 1 <= s < 2**63 and 0 <= g < 2**63 raises ValueError
    before anything is drawn.
    """
    if noise < 0:
        raise ValueError("noise must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    points = []
    for s, g in plan:
        # NaN and inf fail the range checks before int() sees them
        if not (1 <= s < _COUNT_LIMIT and 0 <= g < _COUNT_LIMIT and s == int(s) and g == int(g)):
            raise ValueError(f"plan point (s={s!r}, g={g!r}) needs whole numbers 1 <= s < 2**63 "
                             "and 0 <= g < 2**63")
        points.append((int(s), int(g)))
    if coeffs.prefill_latency is None or coeffs.prefill_energy is None:
        raise InferwattError("trace synthesis needs prefill latency and energy coefficients")
    s_int, g_int = (np.array([point[i] for point in points], dtype=np.int64) for i in (0, 1))
    s_col, g_col = s_int.astype(np.float64), g_int.astype(np.float64)
    decode = g_int != 0
    no_decode = coeffs.decode_latency is None or coeffs.decode_energy is None
    t_pre, e_pre = coeffs.prefill_latency(s_col), coeffs.prefill_energy(s_col)
    t_dec, e_dec = (0 * s_col, 0 * s_col) if no_decode else (
        coeffs.decode_latency(s_col, g_col), coeffs.decode_energy(s_col, g_col))
    # each point's draws in order: (t_pre, e_pre) per prefill-only run, (t_pre, t_dec, e_pre, e_dec) per full run
    values = np.stack([t_pre, t_dec, e_pre, e_dec], axis=1)[:, [0, 2] * runs + [0, 1, 2, 3] * runs]
    drawn = np.arange(6 * runs) < np.where(decode, 6 * runs, 2 * runs)[:, None]
    values[drawn] *= 1.0 + noise * np.random.default_rng(seed).standard_normal(np.count_nonzero(drawn))
    prefill, full = values[:, :2 * runs].reshape(-1, runs, 2), values[:, 2 * runs:].reshape(-1, runs, 4)
    # a point's runs in record order: its prefill-only runs, then its full runs where it has any
    latency = np.concatenate([prefill[..., 0], full[..., 0] + full[..., 1]], axis=1)
    energy = np.concatenate([prefill[..., 1], full[..., 2] + full[..., 3]], axis=1)
    is_full = np.arange(2 * runs) >= runs
    kept = ~is_full | decode[:, None]
    full_runs = np.broadcast_to(is_full, kept.shape)[kept]
    per_point, n = kept.sum(axis=1), len(full_runs)
    table = RunTable(
        list(chain.from_iterable(map(repeat, (f"p{idx:04d}" for idx in range(len(points))), per_point.tolist()))),
        full_runs, np.repeat(s_int, per_point), np.where(full_runs, np.repeat(g_int, per_point), 1),
        latency[kept], energy[kept],  # then cpu_wh, ram_wh, model_id, precision and batch, the same in every run
        *(np.full(n, value, _DTYPES[kind]) if kind in _DTYPES else [value] * n
          for kind, value in zip(_FIELD_KINDS[6:], (0.0, 0.0, "synthetic", "fp32", 1))))
    faults = _faults(table)
    invalid = faults.any(axis=0)
    out_of_range = (t_pre <= 0) | (e_pre <= 0) | decode & ((t_dec <= 0) | (e_dec <= 0))
    failed = decode & no_decode | out_of_range
    failed[np.repeat(np.arange(len(points)), per_point)[invalid]] = True
    if failed.any():
        idx = int(np.argmax(failed))
        s, g = points[idx]
        if g and no_decode:
            raise InferwattError("plan has g>=1 points but no decode coefficients")
        if out_of_range[idx]:
            raise InferwattError(f"grid point (s={s}, g={g}) is outside the coefficient validity range")
        # the first invalid run is this point's: an earlier point would fail first
        raise InferwattError(f"grid point (s={s}, g={g}) drew a value no run can hold: "
                             f"{_fault(faults, int(np.argmax(invalid)))}")
    return table


def decode_fit_rows(decompositions: Sequence[PromptDecomposition]) -> list[PromptDecomposition]:
    """The decompositions `to_fit_samples` fits as decode rows, in order:
    those whose decode latency came out positive (the others are out of
    model range)."""
    return [d for d in decompositions if d.decode_latency_s > 0]


def to_fit_samples(runs: RunTable, decompositions: Sequence[PromptDecomposition],
                   component: str = "total") -> FitSamples:
    """The samples `fit` fits: the prefill-only runs, in order, as g = 0
    rows, then the `decode_fit_rows` decode estimates (decode latency and
    energy at their output length). `component` picks which energy the
    samples carry ('gpu', 'cpu', 'ram', or 'total', their sum, which raises
    OverflowError if it overflows).
    """
    if component not in COMPONENTS + ("total",):
        raise ValueError(f"unknown component {component!r}")
    prefill = ~runs.full
    decode = decode_fit_rows(decompositions)
    pick = _total if component == "total" else operator.itemgetter(COMPONENTS.index(component))
    energy = pick((runs.gpu_wh[prefill], runs.cpu_wh[prefill], runs.ram_wh[prefill]))
    return FitSamples(
        s=runs.input_tokens[prefill].tolist() + [d.input_tokens for d in decode],
        g=[0] * len(energy) + [d.output_tokens for d in decode],
        t=runs.latency_s[prefill].tolist() + [d.decode_latency_s for d in decode],
        energy_wh=energy.tolist() + pick(np.reshape([d.decode_wh for d in decode], (-1, 3)).T).tolist(),
    )
