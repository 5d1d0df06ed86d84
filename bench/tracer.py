"""Per-layer tracing for the benchmark, recorded from outside the package.

`Tracer.install()` replaces public functions of the `inferwatt` modules with
wrappers defined here, in every `inferwatt` module namespace that holds
them (the package imports functions by name, so one function can live in
several namespaces). `uninstall()` puts the originals back. Nothing in the
package is edited.

Two kinds of wrapper are used:

* a span wrapper times the call. A layer's self time is the span's duration
  minus the time covered by the spans nested inside it. Spans are folded
  into per-name totals as they close (self seconds and call count) instead
  of being kept one by one: the hot layers close ~10^5 spans per round.
* a count wrapper only counts calls. It is used for the per-token roofline
  functions, which run ~10^5-10^6 times per round; their time stays in the
  self time of the span that called them (`transformer_costs.decode`).
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (unit, name) of every per-layer metric, in report order. `import.s` and
# `tracing.overhead_pct` are filled in by the runner, not by a wrapper.
PER_LAYER = (
    ("s", "transformer_costs.decode.s"),
    ("count", "transformer_costs.decode.calls"),
    ("count", "transformer_costs.decode_step_costs.calls"),
    ("s", "transformer_costs.prefill.s"),
    ("count", "transformer_costs.prefill.calls"),
    ("count", "roofline.op_latency.calls"),
    ("s", "estimator.estimate_workload.s"),
    ("s", "estimator.compare_models.s"),
    ("count", "estimator.entries"),
    ("s", "phase_model.eval.s"),
    ("count", "phase_model.eval.calls"),
    ("count", "phase_model.out_of_range"),
    ("s", "phase_model.fit.s"),
    ("s", "numerics.ols_fit.s"),
    ("count", "numerics.ols_fit.rows"),
    ("s", "traces.parse.delimited.s"),
    ("s", "traces.parse.line-json.s"),
    ("count", "traces.parse.records"),
    ("count", "traces.parse.issues"),
    ("B", "traces.input_bytes.delimited"),
    ("B", "traces.input_bytes.line-json"),
    ("s", "traces.synthesize.s"),
    ("s", "traces.write.delimited.s"),
    ("s", "traces.write.line-json.s"),
    ("s", "traces.decompose.s"),
    ("count", "traces.decompose.prompts"),
    ("count", "traces.decompose.negative_decode"),
    ("s", "traces.to_fit_samples.s"),
    ("s", "traces.aggregate.s"),
    ("s", "traces.histogram.s"),
    ("s", "cli.s"),
    ("B", "cli.output_bytes"),
    ("s", "kvconfig.parse.s"),
    ("s", "bundled.load.s"),
    ("s", "import.s"),
    ("%", "tracing.overhead_pct"),
)


def _fmt_arg(args, kwargs, pos: int, default: str) -> str:
    return kwargs.get("fmt", args[pos] if len(args) > pos else default)


def _count_parse(counts, args, kwargs, result):
    records, issues = result
    counts["traces.parse.records"] += len(records)
    counts["traces.parse.issues"] += len(issues)
    source = args[0] if args else kwargs["source"]
    fmt = _fmt_arg(args, kwargs, 1, "delimited")
    if isinstance(source, str):
        size = len(source.encode("utf-8"))
    else:
        size = os.path.getsize(source)
    counts[f"traces.input_bytes.{fmt}"] += size


def _count_decompose(counts, args, kwargs, result):
    decomps, _ = result
    counts["traces.decompose.prompts"] += len(decomps)
    counts["traces.decompose.negative_decode"] += sum(1 for d in decomps if d.flags)


def _count_out_of_range(counts, args, kwargs, result):
    # eval_decode_* warn (ModelOutOfRangeWarning) exactly when the value is <= 0.
    if result <= 0:
        counts["phase_model.out_of_range"] += 1


def _count_entries(counts, args, kwargs, result):
    counts["estimator.entries"] += len(result[1])


def _count_rows(counts, args, kwargs, result):
    counts["numerics.ols_fit.rows"] += args[0].rows


def _count_cli_output(counts, args, kwargs, result):
    argv, out = args[0], args[1] if len(args) > 1 else kwargs.get("out")
    size = len(out.getvalue().encode("utf-8")) if hasattr(out, "getvalue") else 0
    for flag in ("--out", "--grid-out"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                size += os.path.getsize(path)
    counts["cli.output_bytes"] += size


def _parse_name(args, kwargs):
    return f"traces.parse.{_fmt_arg(args, kwargs, 1, 'delimited')}.s"


def _write_name(args, kwargs):
    return f"traces.write.{_fmt_arg(args, kwargs, 1, 'delimited')}.s"


# Span wrappers: (module, function, metric name or a function of the call's
# arguments that gives it, boundary counter or None).
SPANS = (
    ("cli", "cli_dispatch", "cli.s", _count_cli_output),
    ("estimator", "estimate_workload", "estimator.estimate_workload.s", _count_entries),
    ("estimator", "compare_models", "estimator.compare_models.s", None),
    ("transformer_costs", "predict_decode_latency", "transformer_costs.decode.s", None),
    ("transformer_costs", "predict_prefill_latency", "transformer_costs.prefill.s", None),
    ("phase_model", "eval_prefill_latency", "phase_model.eval.s", None),
    ("phase_model", "eval_prefill_energy", "phase_model.eval.s", None),
    ("phase_model", "eval_decode_latency", "phase_model.eval.s", _count_out_of_range),
    ("phase_model", "eval_decode_energy", "phase_model.eval.s", _count_out_of_range),
    ("phase_model", "fit_prefill_latency", "phase_model.fit.s", None),
    ("phase_model", "fit_decode_latency", "phase_model.fit.s", None),
    ("phase_model", "fit_prefill_energy", "phase_model.fit.s", None),
    ("phase_model", "fit_decode_energy", "phase_model.fit.s", None),
    ("numerics", "ols_fit", "numerics.ols_fit.s", _count_rows),
    ("traces", "parse_records", _parse_name, _count_parse),
    ("traces", "write_records", _write_name, None),
    ("traces", "synthesize_trace", "traces.synthesize.s", None),
    ("traces", "decompose", "traces.decompose.s", _count_decompose),
    ("traces", "to_fit_samples", "traces.to_fit_samples.s", None),
    ("traces", "aggregate", "traces.aggregate.s", None),
    ("traces", "histogram", "traces.histogram.s", None),
    ("kvconfig", "parse_kv", "kvconfig.parse.s", None),
    ("bundled", "reference_profile", "bundled.load.s", None),
    ("bundled", "reference_coefficients", "bundled.load.s", None),
    ("bundled", "bundled_model", "bundled.load.s", None),
    ("bundled", "qwen_family", "bundled.load.s", None),
)
# Count wrappers: (module, function, metric name).
COUNTS = (
    ("transformer_costs", "decode_step_costs", "transformer_costs.decode_step_costs.calls"),
    ("roofline", "op_latency", "roofline.op_latency.calls"),
)


class Tracer:
    """Accumulates self time, call counts and boundary counts per layer."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child = [0.0]  # time covered by closed child spans, per open span
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn, counter):
        clock = time.perf_counter
        stack = self._child
        self_s = self.self_s
        counts = self.counts
        fixed = isinstance(name, str)
        calls = name[: -len(".s")] + ".calls" if fixed else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                child = stack.pop()
                stack[-1] += duration
                key = name if fixed else name(args, kwargs)
                self_s[key] += duration - child
                counts[calls or key[: -len(".s")] + ".calls"] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever an inferwatt module holds them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "inferwatt" or k.startswith("inferwatt.")]
        replace = {}
        for mod, fn_name, name, counter in SPANS:
            original = getattr(sys.modules[f"inferwatt.{mod}"], fn_name)
            replace[id(original)] = (original, self._span(name, original, counter))
        for mod, fn_name, name in COUNTS:
            original = getattr(sys.modules[f"inferwatt.{mod}"], fn_name)
            replace[id(original)] = (original, self._counter(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def per_round(self, rounds: int) -> dict[str, float]:
        """Mean per traced round of every wrapper-filled per-layer metric."""
        out = {}
        for unit, name in PER_LAYER:
            if unit == "s":
                out[name] = self.self_s.get(name, 0.0) / rounds
            else:  # every round makes the same calls, so counts divide exactly
                count = self.counts.get(name, 0)
                out[name] = count // rounds if count % rounds == 0 else count / rounds
        return out
