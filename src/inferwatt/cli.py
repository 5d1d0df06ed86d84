"""Command-line surface: predict, fit, decompose, stats, hist, compare,
extrapolate, synth.

Exit codes: 0 success, 1 usage error, 2 data/model error. All output is
deterministic for fixed inputs, flags, and seeds. Table output rounds to 4
significant digits; json and delimited output carry full precision.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from . import bundled
from .errors import EmptyInput, InferwattError
from .estimator import (
    DEFAULT_CONTOUR_G,
    AnalyticSource,
    FittedSource,
    WorkloadSpec,
    compare_models,
    estimate_interaction,
    fleet_extrapolate,
    led_equivalent_minutes,
)
from .phase_model import (
    CoefficientSet,
    fit_decode_energy,
    fit_decode_latency,
    fit_prefill_energy,
    fit_prefill_latency,
    format_coefficients,
    load_coefficients,
)
from .roofline import load_profile
from .traces import (
    FORMAT_DELIMITED,
    FORMAT_LINE_JSON,
    MIXED_INPUT_TOKENS,
    PHASE_DECODE,
    RunKind,
    aggregate,
    decode_fit_rows,
    decompose,
    drop_warmup,
    histogram,
    phase_energies,
    read_runs,
    synthesize_trace,
    to_fit_samples,
    trace_format,
    write_records,
)
from .transformer_costs import load_model

FORMATS = ("table", "json", "delimited")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error, found by this parser or by its command's handler:
        the message, this (sub)parser's usage and exit code 1."""
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        self.exit(1)

    def parse_known_args(self, args=None, namespace=None):
        # A subcommand's parser runs this on its own arguments, so leftovers
        # are reported with its usage, not the root's.
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def _fmt_cell(value, full_precision: bool) -> str:
    if isinstance(value, float):
        return repr(value) if full_precision else f"{value:.4g}"
    return str(value)


def _json_cell(value):
    """JSON has no NaN or infinity: non-finite floats are written as null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit_rows(rows, fmt: str, out) -> None:
    """Render a list of uniform mappings as table, json, or delimited text.
    One mapping in place of the list is one row, which json writes as an
    object: the shape of json output depends on the command, not the rows."""
    one = isinstance(rows, dict)
    rows = [rows] if one else rows
    if fmt == "json":
        rows = [{k: _json_cell(v) for k, v in row.items()} for row in rows]
        print(json.dumps(rows[0] if one else rows, indent=2, allow_nan=False), file=out)
        return
    if not rows:
        return
    keys = list(rows[0])
    if fmt == "delimited":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([_fmt_cell(row[k], True) for k in keys] for row in rows)
        return
    cells = [[_fmt_cell(row[k], False) for k in keys] for row in rows]
    widths = [max(len(k), *(len(r[i]) for r in cells)) for i, k in enumerate(keys)]
    numeric = [all(isinstance(row[k], (int, float)) for row in rows) for k in keys]

    def align(text, i):
        return text.rjust(widths[i]) if numeric[i] else text.ljust(widths[i])

    print("  ".join(align(k, i) for i, k in enumerate(keys)).rstrip(), file=out)
    for r in cells:
        print("  ".join(align(c, i) for i, c in enumerate(r)).rstrip(), file=out)


def _read_trace(args):
    """The trace's runs, as a RunTable, with a warning per parse issue. A
    trace left with no run is a data error for every trace command."""
    path = Path(args.trace)
    runs, issues = read_runs(path, trace_format(path, args.trace_format), args.rename)
    for issue in issues:
        print(f"warning: line {issue.line}: {issue.message}", file=sys.stderr)
    if args.drop_first:
        runs = drop_warmup(runs, args.drop_first)
    if not len(runs):
        dropped = f" after --drop-first {args.drop_first}" if args.drop_first else ""
        raise EmptyInput(f"trace has no valid runs{dropped}")
    return runs


def _group(item) -> str:
    """How a warning names the (prompt, model, precision, batch) group of a
    decomposition or a missing kind."""
    return (f"prompt {item.prompt_id!r} (model {item.model_id!r}, precision {item.precision!r}, "
            f"batch {item.batch})")


def _decompose(runs, fitting=False):
    """decompose, with a warning per group that misses a run kind and so drops
    out; `fit` keeps a group without full runs, as g = 0 rows of its prefill-only runs."""
    decomps, missing = decompose(runs)
    for m in missing:
        if not (fitting and m.missing is RunKind.FULL):
            print(f"warning: {_group(m)} has no {m.missing.value} runs", file=sys.stderr)
    return decomps


def _load_coeffs(args) -> CoefficientSet:
    return load_coefficients(args.coeffs) if args.coeffs else bundled.reference_coefficients()


def _load_hw(args):
    return load_profile(args.hw) if args.hw else bundled.reference_profile()


def _arg_type(convert, expected: str, ok=lambda value: True):
    """An argparse type: text that does not convert, or whose value fails
    `ok`, is a usage error naming what was expected."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


_POSITIVE_INT = _arg_type(int, "an integer >= 1", lambda v: v >= 1)
_COUNT = _arg_type(int, "an integer >= 0", lambda v: v >= 0)
_POSITIVE = _arg_type(float, "a positive finite number", lambda v: 0 < v < math.inf)
_NONNEGATIVE = _arg_type(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
_LENGTHS = _arg_type(_int_list, "comma-separated integers >= 1", lambda v: v and min(v) >= 1)
_COUNTS = _arg_type(_int_list, "comma-separated integers >= 0", lambda v: v and min(v) >= 0)
_NUMBERS = _arg_type(lambda text: [float(v) for v in text.split(",")], "comma-separated numbers")
_RENAME = _arg_type(lambda text: dict(p.split("=", 1) for p in text.split(",")), "external=canonical pairs")


# --- subcommand handlers --------------------------------------------------


def _cmd_predict(args, out) -> int:
    if args.hw and not args.model:  # --model and --coeffs exclude each other in the parser
        args.parser.error("--hw sets the hardware of the analytic source: give it with --model")
    if args.model:
        source = AnalyticSource(load_model(args.model), _load_hw(args))
    else:
        source = FittedSource(_load_coeffs(args), label=f"fitted-coeffs ({args.coeffs or 'bundled'})")
    breakdown = estimate_interaction(source, args.s, args.g)
    for note in breakdown.warnings:
        print(f"warning: {note}", file=sys.stderr)
    _emit_rows(
        {
            "source": breakdown.provenance,
            "prefill_wh": breakdown.prefill_wh,
            "decode_wh": breakdown.decode_wh,
            "total_wh": breakdown.total_wh,
            # a negative total is out of range (and flagged): it has no LED equivalent
            "led_minutes": (led_equivalent_minutes(breakdown.total_wh, args.led_watts)
                            if breakdown.total_wh >= 0 else float("nan")),
        },
        args.format,
        out,
    )
    return 0


def _cmd_fit(args, out) -> int:
    runs = _read_trace(args)
    decomps = _decompose(runs, fitting=True)
    for d in decode_fit_rows(decomps):
        if MIXED_INPUT_TOKENS in d.flags:
            print(f"warning: {_group(d)} mixes input lengths; its decode row is fitted at their "
                  f"rounded mean s={d.input_tokens}", file=sys.stderr)
    samples = to_fit_samples(runs, decomps, args.component)

    families = (
        ("prefill_latency", fit_prefill_latency),
        ("decode_latency", fit_decode_latency),
        ("prefill_energy", fit_prefill_energy),
        ("decode_energy", fit_decode_energy),
    )
    fitted = {}
    rows = []
    for name, fit_fn in families:
        try:
            coeffs, fit = fit_fn(samples)
        except InferwattError as exc:
            print(f"warning: {name}: {exc}", file=sys.stderr)
            continue
        fitted[name] = coeffs
        rows.append(
            {
                "family": name,
                "r_squared": fit.r_squared,
                "residual_norm": fit.residual_norm,
                "condition": fit.condition_estimate,
                "physical": coeffs.is_physical,
            }
        )
    if not fitted:
        raise InferwattError("no coefficient family could be fitted from this trace")
    cs = CoefficientSet(**fitted)
    text = format_coefficients(
        cs, header=f"fitted from {args.trace} (component: {args.component})"
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        out.write(text)
    _emit_rows(rows, args.format, sys.stderr if not args.out else out)
    return 0


def _cmd_decompose(args, out) -> int:
    decomps = _decompose(_read_trace(args))
    rows = [
        {
            "prompt_id": d.prompt_id,
            "model_id": d.model_id,
            "input_tokens": d.input_tokens,
            "output_tokens": d.output_tokens,
            "prefill_gpu_wh": d.prefill_mean_wh.gpu,
            "decode_gpu_wh": d.decode_wh.gpu,
            "decode_cpu_wh": d.decode_wh.cpu,
            "decode_ram_wh": d.decode_wh.ram,
            "decode_latency_s": d.decode_latency_s,
            "flags": ";".join(d.flags),
        }
        for d in decomps
    ]
    _emit_rows(rows, args.format, out)
    return 0


def _phase_items(args):
    """The trace's runs, or their decompositions for the decode phase."""
    runs = _read_trace(args)
    return _decompose(runs) if args.phase == PHASE_DECODE else runs


def _cmd_stats(args, out) -> int:
    stats = aggregate(_phase_items(args), phase=args.phase)
    rows = [
        {
            "component": comp,
            "mean_wh": cs.mean,
            "std_wh": cs.std,
            "count": cs.count,
            "min_wh": cs.min,
            "max_wh": cs.max,
        }
        for comp, cs in stats.components.items()
    ]
    nan = float("nan")  # the total row has a mean only
    rows.append({"component": "total", "mean_wh": stats.total_mean, "std_wh": nan,
                 "count": rows[0]["count"], "min_wh": nan, "max_wh": nan})
    _emit_rows(rows, args.format, out)
    return 0


def _cmd_hist(args, out) -> int:
    gpu, cpu, ram = phase_energies(_phase_items(args), args.phase)
    values = {"gpu": gpu, "cpu": cpu, "ram": ram, "total": gpu + cpu + ram}[args.component]
    result = histogram(values, args.edges or args.bins)
    skew = "right-skewed (mean > median)" if result.right_skewed else "not right-skewed"
    print(
        f"note: mean={result.mean:.6g} Wh, median={result.median:.6g} Wh: {skew}",
        file=sys.stderr,
    )
    rows = [
        {"bin_left_edge": result.edges[i], "count": result.counts[i]}
        for i in range(len(result.counts))
    ]
    _emit_rows(rows, args.format, out)
    return 0


def _cmd_compare(args, out) -> int:
    specs = [load_model(path) for path in args.models]
    if args.family:
        specs.extend(bundled.qwen_family())
    if not specs:
        args.parser.error("give model spec files and/or --family")
    hw = _load_hw(args)
    workload = WorkloadSpec.single(args.s, args.g)
    comparison = compare_models(specs, hw, workload, tuple(args.contour_g))
    _emit_rows([vars(row) for row in comparison.rows], args.format, out)
    if args.grid_out:
        with open(args.grid_out, "w", encoding="utf-8") as fh:
            _emit_rows([vars(point) for point in comparison.grid], "delimited", fh)
    return 0


def _cmd_extrapolate(args, out) -> int:
    kwh_day, mwh_year = fleet_extrapolate(args.wh, args.per_day)
    _emit_rows(
        {
            "wh_per_interaction": args.wh,
            "interactions_per_day": args.per_day,
            "kwh_per_day": kwh_day,
            "mwh_per_year": mwh_year,
            "led_minutes_per_interaction": led_equivalent_minutes(args.wh, args.led_watts),
        },
        args.format,
        out,
    )
    return 0


def _cmd_synth(args, out) -> int:
    coeffs = _load_coeffs(args)
    plan = [(s, g) for s in args.s_values for g in args.g_values]
    try:
        runs = synthesize_trace(plan, coeffs, noise=args.noise, seed=args.seed, runs=args.runs)
    except ValueError as exc:  # a length of 2**63 or more; argparse has checked the other arguments
        raise InferwattError(str(exc)) from None
    text = write_records(runs, trace_format(args.out, args.trace_format))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        out.write(text)
    return 0


# --- parser ---------------------------------------------------------------


def _add_common(sub, trace=False, fmt=True):
    if fmt:
        sub.add_argument("--format", choices=FORMATS, default="table")
    if trace:
        sub.add_argument("--trace", required=True, help="trace file path")
        sub.add_argument(
            "--trace-format",
            choices=(FORMAT_DELIMITED, FORMAT_LINE_JSON),
            default=None,
            help="default: by file extension (.jsonl/.ndjson is line-json)",
        )
        sub.add_argument("--rename", type=_RENAME, default=None, help="external=canonical[,..] column mapping")
        sub.add_argument("--drop-first", type=_COUNT, default=0,
                         help="drop the first k runs of each kind per (prompt, model, precision, batch)")


@functools.cache  # one per process: parsing leaves it unchanged, and its handlers are module functions
def build_parser() -> _Parser:
    parser = _Parser(prog="inferwatt", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("predict", help="energy breakdown of one interaction")
    p.add_argument("-s", type=_POSITIVE_INT, required=True, help="input (prompt) tokens")
    p.add_argument("-g", type=_POSITIVE_INT, required=True, help="generated tokens")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--coeffs", help="coefficient file (default: bundled reference set)")
    source.add_argument("--model", help="model spec file: use the analytic roofline source")
    p.add_argument("--hw", help="hardware profile file for --model (default: bundled H100 profile)")
    p.add_argument("--led-watts", type=_POSITIVE, default=5.0)
    _add_common(p)
    p.set_defaults(func=_cmd_predict)

    p = subs.add_parser("fit", help="fit polynomial coefficients from a trace")
    _add_common(p, trace=True)
    p.add_argument("--component", choices=("gpu", "cpu", "ram", "total"), default="total")
    p.add_argument("--out", help="write coefficient file here instead of stdout")
    p.set_defaults(func=_cmd_fit)

    p = subs.add_parser("decompose", help="per-prompt prefill/decode split")
    _add_common(p, trace=True)
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("stats", help="aggregate energy statistics")
    _add_common(p, trace=True)
    p.add_argument("--phase", choices=("prefill", "full", "decode"), default="full")
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("hist", help="energy histogram (bin_left_edge, count)")
    _add_common(p, trace=True)
    p.add_argument("--component", choices=("gpu", "cpu", "ram", "total"), default="gpu")
    p.add_argument("--phase", choices=("prefill", "full", "decode"), default="full")
    p.add_argument("--bins", type=_POSITIVE_INT, default=10)
    p.add_argument("--edges", type=_NUMBERS, default=None, help="explicit comma-separated bin edges")
    p.set_defaults(func=_cmd_hist)

    p = subs.add_parser("compare", help="workload energy across model sizes")
    p.add_argument("models", nargs="*", help="model spec files")
    p.add_argument("--family", choices=("qwen25",), help="bundled model family")
    p.add_argument("--hw", help="hardware profile file (default: bundled H100 profile)")
    p.add_argument("-s", type=_POSITIVE_INT, required=True)
    p.add_argument("-g", type=_POSITIVE_INT, required=True)
    p.add_argument("--contour-g", type=_LENGTHS, default=DEFAULT_CONTOUR_G, help="g values for the contour grid")
    p.add_argument("--grid-out", default=None, help="write contour grid (delimited) here")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("extrapolate", help="scale one interaction to fleet level")
    p.add_argument("--wh", type=_NONNEGATIVE, required=True, help="Wh per interaction")
    p.add_argument("--per-day", type=_NONNEGATIVE, required=True, help="interactions per day")
    p.add_argument("--led-watts", type=_POSITIVE, default=5.0)
    _add_common(p)
    p.set_defaults(func=_cmd_extrapolate)

    p = subs.add_parser("synth", help="generate a synthetic trace from coefficients")
    p.add_argument("--coeffs", help="coefficient file (default: bundled reference set)")
    p.add_argument("--s-values", type=_LENGTHS, required=True, help="comma-separated input lengths")
    p.add_argument("--g-values", type=_COUNTS, required=True, help="comma-separated output lengths (0 = prefill-only)")
    p.add_argument("--noise", type=_NONNEGATIVE, default=0.0, help="relative noise std")
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--runs", type=_POSITIVE_INT, default=1, help="runs per kind per grid point")
    p.add_argument("--out", help="write trace here instead of stdout")
    p.add_argument(
        "--trace-format", choices=(FORMAT_DELIMITED, FORMAT_LINE_JSON), default=None,
        help="default: by --out extension (.jsonl/.ndjson is line-json); standard output is delimited",
    )
    p.set_defaults(func=_cmd_synth)

    for sub in subs.choices.values():  # a handler's usage error names its subcommand's parser
        sub.set_defaults(parser=sub)
    return parser


def cli_dispatch(argv, out=None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args, out)
    except SystemExit as exc:  # --help, or a usage error (`_Parser.error`)
        return int(exc.code or 0)
    except (InferwattError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
