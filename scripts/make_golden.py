#!/usr/bin/env python3
"""Regenerate the golden CLI transcripts under tests/golden/.

A fixed matrix of in-process `cli_dispatch` calls covers every subcommand:
`fit`, `decompose`, `stats` (three phases) and `hist` (bins and edges) on the
bundled trace and a synthesized one, in both formats, with CRLF,
byte-order-mark, quoted and bad-cell variants, `--rename` and
`--drop-first`; `predict` with both sources and `--hw`; `compare` with
`--family` and `--grid-out`; `extrapolate`; `synth` to both formats; usage
errors and `--help`. Each group of calls has one transcript,
tests/golden/<group>.txt: per call its argv, exit code, stdout, stderr, the
Python warnings it raised and the files it wrote.

The traces and configuration files the calls read are written here too,
under tests/golden/inputs/, from the bundled files. The calls name them, and
the bundled data files, by their paths relative to the repository, and run
in a scratch directory that holds copies at those paths, so no transcript
depends on where the checkout is. Files the calls write go to out/ there.

tests/test_golden.py checks that the committed inputs are `inputs()` byte
for byte, replays the matrix against them and compares bytes. A change that
alters an output on purpose regenerates the files in the same commit and
names each changed transcript.

    PYTHONPATH=src python scripts/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

from inferwatt.bundled import data_path, reference_coefficients
from inferwatt.cli import cli_dispatch
from inferwatt.traces import _FIELDS, read_runs, synthesize_trace, write_records

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
INPUTS = "tests/golden/inputs"
DATA = "src/inferwatt/data"

TRACE = f"{DATA}/reference_trace.csv"
COEFFS = f"{DATA}/llama31_8b_h100_fp32.coeffs"
HW = f"{DATA}/h100_sxm_80gb_fp32.hw"
MODEL = f"{DATA}/llama31_8b_fp32.model"
QWEN = f"{DATA}/qwen25_0p5b_fp32.model"

# Bad cells, each written into one line, from the first run on, as (field, delimited cell, line-json value text).
# Those of FAULTS convert, so the reader converts their block at once and finds each run's first failing check;
# those of BAD_VALUES do not, so their block is converted a row at a time.
FAULTS = (
    ("latency_s", "nan", "NaN"),
    ("gpu_wh", "1e400", "1e400"),
    ("output_tokens", "-0", "-0"),
    ("run_kind", "Full", '"Full"'),
    ("cpu_wh", "-0.5", "-0.5"),
    ("output_tokens", "7", "7"),
    ("batch", "0", "0"),
)
BAD_VALUES = (
    ("input_tokens", "x", '"x"'),
    ("batch", "true", "true"),
    ("input_tokens", "9223372036854775808", "9223372036854775808"),
    ("output_tokens", "2.5", "2.5"),
    ("latency_s", "1.5.0", "[1]"),
    ("input_tokens", "", "null"),
    ("run_kind", "full", "1"),
)
RENAMED = {"prompt_id": "prompt", "run_kind": "kind"}  # the --rename variant's own names
RENAME_ARG = ",".join(f"{ours}={theirs}" for theirs, ours in RENAMED.items())


def _bad_lines(text: str, fmt: str, cells) -> str:
    """`text` with `cells` (`FAULTS` or `BAD_VALUES`) written into its lines,
    then a line of too few cells (a JSON object without input_tokens), a
    line that is no row, and a blank line."""
    lines = text.splitlines(keepends=True)
    first = 1 if fmt == "delimited" else 0
    for k, (field, cell, value) in enumerate(cells):
        line = lines[first + k]
        if fmt == "delimited":
            row = line.rstrip("\r\n").split(",")
            row[_FIELDS.index(field)] = cell
            lines[first + k] = ",".join(row) + line[len(line.rstrip("\r\n")):]
        else:
            lines[first + k] = re.sub(f'"{field}": [^,}}]+', f'"{field}": {value}', line)
    if fmt == "delimited":
        lines += ["q1,full,10,5,1.0\n", "not,a,row\n", "\n"]
    else:
        lines += ['{"prompt_id": "q1", "run_kind": "full", "output_tokens": 5}\n', "[1, 2]\n", "{\n", "\n"]
    return "".join(lines)


def inputs() -> dict[str, str]:
    """The text of each trace and configuration file under tests/golden/inputs/, by file name."""
    bundled = read_runs(data_path("reference_trace.csv").read_text(encoding="utf-8"))[0]
    plan = [(s, g) for s in (128, 512, 2048) for g in (0, 16, 256)]
    tables = {"bundled": bundled, "synth": synthesize_trace(plan, reference_coefficients(), 0.05, 7, 2)}
    files = {}
    for name, table in tables.items():
        quoted = replace(table, prompt_id=[f'{p}, "q"' for p in table.prompt_id],
                         model_id=[f"{m} (café)" for m in table.model_id])
        for fmt, suffix in (("delimited", "csv"), ("line-json", "jsonl")):
            text = write_records(table, fmt)
            files[f"{name}.{suffix}"] = text
            files[f"{name}-crlf.{suffix}"] = text.replace("\n", "\r\n")
            files[f"{name}-bom.{suffix}"] = "\ufeff" + text
            files[f"{name}-quoted.{suffix}"] = write_records(quoted, fmt)
            files[f"{name}-faults.{suffix}"] = _bad_lines(text, fmt, FAULTS)
            files[f"{name}-bad.{suffix}"] = _bad_lines(text, fmt, BAD_VALUES)
            if name != "synth":
                continue
            if fmt == "delimited":  # the header's names
                header, _, body = text.partition("\n")
                renamed = ",".join(RENAMED.get(h, h) for h in header.split(",")) + "\n" + body
            else:  # every line's keys
                renamed = text
                for theirs, ours in RENAMED.items():
                    renamed = renamed.replace(f'"{theirs}":', f'"{ours}":')
            files[f"{name}-renamed.{suffix}"] = renamed
    for path in (COEFFS, HW, MODEL):  # each configuration file with a byte-order mark, as Windows editors write
        name = Path(path).name
        files["bom-" + name] = "\ufeff" + (REPO / path).read_text(encoding="utf-8")
    return files


def write_inputs() -> None:
    """Write `inputs()` under tests/golden/inputs/, in place of what it held."""
    root = REPO / INPUTS
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    for name, text in inputs().items():
        (root / name).write_bytes(text.encode("utf-8"))


def _trace_calls(trace: str) -> list[list[str]]:
    """The trace commands on one trace file."""
    args = ["--trace", trace]
    return [
        ["fit", *args],
        ["decompose", *args, "--format", "delimited"],
        ["stats", *args, "--phase", "prefill", "--format", "json"],
        ["stats", *args, "--phase", "full", "--format", "delimited"],
        ["stats", *args, "--phase", "decode"],
        ["hist", *args, "--bins", "4"],
        ["hist", *args, "--component", "total", "--phase", "decode", "--format", "delimited"],
        ["hist", *args, "--edges", "0,0.05,0.1,0.2,0.4", "--phase", "prefill"],
    ]


def matrix() -> dict[str, list[list[str]]]:
    """Each transcript's calls, in order; the calls of one group share a working directory."""
    groups = {}
    for name in ("bundled", "synth"):
        for suffix in ("csv", "jsonl"):
            for variant in ("", "-crlf", "-bom", "-quoted", "-faults", "-bad"):
                groups[f"{name}{variant}.{suffix}"] = _trace_calls(f"{INPUTS}/{name}{variant}.{suffix}")
    groups["bundled.csv"] += [
        ["fit", "--trace", TRACE, "--format", "json", "--out", "out/fitted.coeffs"],
        ["fit", "--trace", TRACE, "--component", "gpu", "--format", "delimited"],
        ["predict", "-s", "900", "-g", "82", "--coeffs", "out/fitted.coeffs"],
        ["predict", "-s", "900", "-g", "1", "--coeffs", "out/fitted.coeffs"],
        ["decompose", "--trace", TRACE],
        ["decompose", "--trace", TRACE, "--format", "json"],
        ["stats", "--trace", TRACE, "--trace-format", "line-json"],
        ["hist", "--trace", TRACE, "--edges", "0.3,0.1"],
        ["stats", "--trace", f"{INPUTS}/missing.csv"],
    ]
    for suffix in ("csv", "jsonl"):
        renamed = f"{INPUTS}/synth-renamed.{suffix}"
        groups[f"rename.{suffix}"] = [
            ["decompose", "--trace", renamed, "--format", "delimited"],
            ["decompose", "--trace", renamed, "--rename", RENAME_ARG, "--format", "delimited"],
            ["stats", "--trace", renamed, "--rename", RENAME_ARG, "--phase", "decode", "--format", "json"],
            ["fit", "--trace", renamed, "--rename", RENAME_ARG],
        ]
        synth = f"{INPUTS}/synth.{suffix}"
        groups[f"drop-first.{suffix}"] = [
            ["decompose", "--trace", synth, "--drop-first", "1", "--format", "delimited"],
            ["stats", "--trace", synth, "--drop-first", "1", "--phase", "prefill", "--format", "json"],
            ["fit", "--trace", synth, "--drop-first", "1"],
            ["hist", "--trace", synth, "--drop-first", "1", "--bins", "3"],
            ["stats", "--trace", synth, "--drop-first", "2"],
        ]
    groups["predict"] = [
        ["predict", "-s", "900", "-g", "82"],
        ["predict", "-s", "900", "-g", "82", "--format", "json"],
        ["predict", "-s", "900", "-g", "82", "--format", "delimited", "--led-watts", "10"],
        ["predict", "-s", "9000", "-g", "1"],
        ["predict", "-s", "120000", "-g", "4096", "--format", "json"],
        ["predict", "-s", "900", "-g", "82", "--coeffs", COEFFS],
        ["predict", "-s", "900", "-g", "82", "--model", MODEL],
        ["predict", "-s", "900", "-g", "82", "--model", MODEL, "--hw", HW, "--format", "json"],
        ["predict", "-s", "2048", "-g", "512", "--model", QWEN, "--format", "delimited"],
        ["predict", "-s", "900", "-g", "82", "--hw", HW],
        ["predict", "-s", "900", "-g", "82", "--coeffs", COEFFS, "--model", MODEL],
        ["predict", "-s", "0", "-g", "82"],
        ["predict", "-s", "900"],
        ["predict", "-s", "900", "-g", "82", "--coeffs", f"{INPUTS}/bom-llama31_8b_h100_fp32.coeffs"],
        ["predict", "-s", "900", "-g", "82", "--model", f"{INPUTS}/bom-llama31_8b_fp32.model"],
        ["predict", "-s", "900", "-g", "82", "--model", MODEL, "--hw", f"{INPUTS}/bom-h100_sxm_80gb_fp32.hw"],
    ]
    groups["compare"] = [
        ["compare", "--family", "qwen25", "-s", "900", "-g", "82"],
        ["compare", "--family", "qwen25", "-s", "900", "-g", "82", "--format", "json", "--grid-out", "out/grid.csv"],
        ["compare", MODEL, QWEN, "-s", "2048", "-g", "256", "--contour-g", "1,64,1024", "--hw", HW,
         "--format", "delimited", "--grid-out", "out/grid2.csv"],
        ["compare", "-s", "900", "-g", "82"],
        ["compare", "--family", "qwen25", "-s", "900", "-g", "82", "--contour-g", "0"],
    ]
    groups["extrapolate"] = [
        ["extrapolate", "--wh", "0.245", "--per-day", "1e9"],
        ["extrapolate", "--wh", "0.245", "--per-day", "2.5e8", "--format", "json", "--led-watts", "9"],
        ["extrapolate", "--wh", "0", "--per-day", "0", "--format", "delimited"],
        ["extrapolate", "--wh", "-1", "--per-day", "1"],
        ["extrapolate", "--wh", "nan", "--per-day", "1"],
    ]
    groups["synth"] = [
        ["synth", "--s-values", "128,512", "--g-values", "0,16"],
        ["synth", "--s-values", "128,512", "--g-values", "0,16", "--trace-format", "line-json"],
        ["synth", "--s-values", "100,900", "--g-values", "1,82", "--noise", "0.1", "--seed", "3", "--runs", "2",
         "--out", "out/noisy.csv"],
        ["synth", "--s-values", "100,900", "--g-values", "1,82", "--noise", "0.1", "--seed", "3", "--runs", "2",
         "--out", "out/noisy.jsonl"],
        ["fit", "--trace", "out/noisy.jsonl"],
        ["synth", "--s-values", "100", "--g-values", "5", "--coeffs", COEFFS, "--out", "out/one.ndjson"],
        ["synth", "--s-values", "9223372036854775808", "--g-values", "1"],
        ["synth", "--s-values", "100", "--g-values", "1", "--noise", "1e300"],
        ["synth", "--s-values", "0", "--g-values", "1"],
    ]
    groups["usage"] = [
        [],
        ["--help"],
        ["fit", "--help"],
        ["predict", "--help"],
        ["bogus"],
        ["fit"],
        ["decompose", "--trace", TRACE, "--format", "yaml"],
        ["hist", "--trace", TRACE, "--bins", "0"],
        ["hist", "--trace", TRACE, "--bins", "3", "--edges", "0,1"],
        ["stats", "--trace", TRACE, "--rename", "nonsense"],
        ["stats", "--trace", TRACE, "--drop-first", "-1"],
        ["stats", "--trace", TRACE, "--extra"],
        ["extrapolate", "--wh", "1"],
    ]
    return groups


def _section(name: str, text: str) -> str:
    return f"--- {name} ({len(text)} chars)\n{text}\n"


def transcript(calls: list[list[str]], workdir: Path) -> str:
    """Run `calls` in order with `workdir` as the working directory, which
    must hold copies of the inputs (see `prepare`), and return their transcript."""
    parts = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in calls:
            before = {p: p.read_bytes() for p in Path("out").rglob("*") if p.is_file()}
            out, err = io.StringIO(), io.StringIO()
            # argparse wraps --help to the terminal's width
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught, \
                    mock.patch.dict(os.environ, COLUMNS="100"):
                warnings.simplefilter("always")
                code = cli_dispatch(list(argv), out=out)
            parts.append(f"$ inferwatt {' '.join(json.dumps(a) if not a or ' ' in a else a for a in argv)}\n"
                         f"exit {code}\n" + _section("stdout", out.getvalue()) + _section("stderr", err.getvalue()))
            for w in caught:
                parts.append(_section("warning", f"{w.category.__name__}: {w.message}"))
            for path in sorted(p for p in Path("out").rglob("*") if p.is_file()):
                data = path.read_bytes()
                if before.get(path) != data:
                    parts.append(_section(f"file {path.as_posix()}", data.decode("utf-8")))
            parts.append("\n")
    finally:
        os.chdir(cwd)
    return "".join(parts)


def prepare(workdir: Path) -> None:
    """Copy the inputs and the bundled data files into `workdir` at their
    repository paths, and make its out/."""
    for sub in (INPUTS, DATA):
        shutil.copytree(REPO / sub, workdir / sub, ignore=shutil.ignore_patterns("__pycache__"))
    (workdir / "out").mkdir()


def run_group(group: str, calls: list[list[str]]) -> str:
    """One group's transcript, run in a fresh scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp))
        return transcript(calls, Path(tmp))


def main() -> None:
    write_inputs()
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    groups = matrix()
    for group, calls in groups.items():
        (GOLDEN / f"{group}.txt").write_bytes(run_group(group, calls).encode("utf-8"))
    print(f"wrote {len(groups)} transcripts ({sum(map(len, groups.values()))} calls) under {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    main()
