"""The benchmark's per-layer tracer sees the trace reads the CLI makes.

`bench/tracer.py` wraps `traces.parse_records` by identity wherever an
`inferwatt` module holds it; the CLI reads through `read_runs`, the same
function, so the wrapper times and counts those reads.
"""

import importlib
import importlib.util
import io
from pathlib import Path

from inferwatt import cli
from inferwatt.bundled import REFERENCE_TRACE, data_path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_counts_the_reads_of_a_cli_command():
    tracer = _load_tracer()
    for name in {mod for mod, *_ in tracer.SPANS + tracer.COUNTS}:
        importlib.import_module(f"inferwatt.{name}")
    trace = data_path(REFERENCE_TRACE)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cli.cli_dispatch(["stats", "--trace", str(trace)], out=io.StringIO()) == 0
    finally:
        spans.uninstall()
    assert spans.counts["traces.parse.records"] == 16
    assert spans.counts["traces.parse.issues"] == 0
    assert spans.counts["traces.input_bytes.delimited"] == trace.stat().st_size
