import csv
import importlib.util
import io
import json
import math
import random
import re
import statistics
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inferwatt import traces
from inferwatt.bundled import REFERENCE_TRACE, data_path, reference_coefficients
from inferwatt.cli import cli_dispatch
from inferwatt.errors import (
    BadEdges,
    EmptyInput,
    EmptySelection,
    InferwattError,
    ModelOutOfRangeWarning,
    UnknownFormat,
)
from inferwatt.phase_model import (
    CoefficientSet,
    DecodeEnergyCoeffs,
    DecodeLatencyCoeffs,
    FitSamples,
    PrefillEnergyCoeffs,
    PrefillLatencyCoeffs,
    eval_decode_energy,
    eval_decode_latency,
    eval_prefill_energy,
    eval_prefill_latency,
)
from inferwatt.traces import (
    MIXED_INPUT_TOKENS,
    NEGATIVE_DECODE,
    ComponentEnergy,
    MissingKind,
    ParseIssue,
    PromptDecomposition,
    RunKind,
    aggregate,
    decompose,
    drop_warmup,
    histogram,
    parse_records,
    phase_energies,
    synthesize_trace,
    to_fit_samples,
    write_records,
)
from inferwatt.traces import _RunFields as Run

REFERENCE_TEXT = data_path(REFERENCE_TRACE).read_text(encoding="utf-8")
HEADER = "prompt_id,run_kind,input_tokens,output_tokens,latency_s,gpu_wh,cpu_wh,ram_wh,model_id,precision,batch"

# Text fields for round trips: quotes, commas and newlines, but no leading or
# trailing whitespace (the delimited reader strips cells).
_ID = st.lists(st.sampled_from(["a", "Z", "7", " ", ",", '"', "\n", "\r\n", "é"]), max_size=6).map(
    "".join).filter(lambda text: text == text.strip())


def record(prompt="p0", kind=RunKind.FULL, s=100, g=20, t=1.0,
           gpu=0.3, cpu=0.02, ram=0.01):
    if kind is RunKind.PREFILL_ONLY:
        g = 1
    return Run(prompt, kind, s, g, t, gpu, cpu, ram, "m", "fp32", 1)


def as_table(records):
    """The RunTable of hand-built rows, which it checks."""
    return traces.RunTable.from_records(records)


def columns(table):
    """A table's columns as lists, in field order: their repr shows every bit."""
    return [column if isinstance(column, list) else column.tolist() for column in vars(table).values()]


def rows_of(table):
    """A table's runs as rows, for the per-run oracles."""
    values = columns(table)
    values[traces._RUN_KIND] = [RunKind.FULL if full else RunKind.PREFILL_ONLY for full in values[traces._RUN_KIND]]
    return [Run(*row) for row in zip(*values)]


class TestParse:
    def test_empty_file_rejected(self):
        with pytest.raises(EmptyInput):
            parse_records("", "delimited")
        with pytest.raises(EmptyInput):
            parse_records("  \n \n", "line-json")

    def test_single_good_line(self):
        text = HEADER + "\np1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1\n"
        records, issues = parse_records(text)
        assert len(records) == 1 and not issues
        assert records.full.tolist() == [True]
        assert records.latency_s.tolist() == [1.5]

    def test_bad_lines_collected_with_line_numbers(self):
        good = "p1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1"
        bad = "p2,full,not_a_number,20,1.5,0.3,0.02,0.01,m,fp32,1"
        text = "\n".join([HEADER, good, good, bad, good]) + "\n"
        records, issues = parse_records(text)
        assert len(records) == 3
        assert len(issues) == 1 and issues[0].line == 4

    def test_wrong_cell_count_collected(self):
        text = HEADER + "\np1,full,100\n"
        records, issues = parse_records(text)
        assert not records and issues[0].line == 2

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            parse_records("x", "parquet")

    def test_missing_required_column(self):
        with pytest.raises(UnknownFormat):
            parse_records("prompt_id,run_kind\np,full\n", "delimited")

    def test_rename_maps_external_headers(self):
        text = "prompt,kind,input_tokens,output_tokens,latency_s,gpu_wh,cpu_wh,ram_wh\n" \
               "p1,full,100,20,1.5,0.3,0.02,0.01\n"
        records, issues = parse_records(
            text, rename={"prompt": "prompt_id", "kind": "run_kind"}
        )
        assert len(records) == 1 and not issues

    def test_line_json(self):
        text = ('{"prompt_id": "p1", "run_kind": "prefill_only", "input_tokens": 50, '
                '"output_tokens": 1, "latency_s": 0.2, "gpu_wh": 0.05, "cpu_wh": 0.0, '
                '"ram_wh": 0.0}\n')
        records, issues = parse_records(text, "line-json")
        assert len(records) == 1 and not issues
        assert records.full.tolist() == [False]

    def test_order_preserved(self):
        rows = [f"p{i},full,100,20,1.5,0.3,0.02,0.01,m,fp32,1" for i in range(5)]
        records, _ = parse_records("\n".join([HEADER] + rows))
        assert records.prompt_id == [f"p{i}" for i in range(5)]


class TestRoundTrip:
    def test_reference_trace_round_trips(self):
        text = REFERENCE_TEXT
        records, issues = parse_records(text)
        assert not issues
        assert write_records(records) == text
        again, _ = parse_records(write_records(records))
        assert again == records

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            _ID,
            st.sampled_from([RunKind.PREFILL_ONLY, RunKind.FULL]),
            st.integers(min_value=1, max_value=10000),
            st.integers(min_value=1, max_value=300),
            st.floats(min_value=1e-6, max_value=1e4, allow_nan=False),
            st.floats(min_value=0, max_value=10.0, allow_nan=False),
            _ID,
            _ID,
        ),
        min_size=1, max_size=10,
    ))
    def test_random_records_round_trip_both_formats(self, rows):
        records = as_table([
            Run(pid, kind, s, 1 if kind is RunKind.PREFILL_ONLY else g,
                t, e, e / 3, e / 7, model, precision)
            for pid, kind, s, g, t, e, model, precision in rows
        ])
        for fmt in ("delimited", "line-json"):
            parsed, issues = parse_records(write_records(records, fmt), fmt)
            assert not issues
            assert parsed == records

    def test_quoted_cells_round_trip(self):
        records = as_table([record(prompt='a,b'), record(prompt='say "hi"'),
                            record(prompt="two\nlines"), record(prompt="crlf\r\nline")])
        text = write_records(records)
        assert text.splitlines()[1].startswith('"a,b",')
        assert parse_records(text) == (records, [])

    @pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_line_break_csv_leaves_unquoted_is_refused(self, char):
        records = as_table([record(prompt=f"a{char}b")])
        with pytest.raises(ValueError):
            write_records(records)
        # line-json escapes it
        assert parse_records(write_records(records, "line-json"), "line-json") == (records, [])

    def test_issue_line_is_where_a_multi_line_record_starts(self):
        text = HEADER + '\n"a\nb",full,10,5,1.0,0.1,0,0,m,fp32,1\n"c\nd",full,x,5,1.0,0.1,0,0,m,fp32,1\n'
        records, issues = parse_records(text)
        assert records.prompt_id == ["a\nb"]
        assert [i.line for i in issues] == [4]


# --- the per-record writer before the columnar writer, kept as the reference ---


def _write_records_oracle(table, fmt="delimited"):
    records = rows_of(table)

    def row(rec):
        return (rec[0], rec[1].value, *rec[2:])

    if fmt == "delimited":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(traces._FIELDS)
        writer.writerows(map(row, records))
        text = out.getvalue()
        bad = re.search(r"\r(?!\n)|[\x0b\x0c\x1c-\x1e\x85\u2028\u2029]", text)
        if bad:
            raise ValueError(f"a text field holds the line break {bad.group()!r}, which "
                             "the delimited format cannot carry; use line-json")
        return text
    if fmt == "line-json":  # texts as they are: these hold no lone surrogate, which UTF-8 cannot encode
        return "\n".join(json.dumps(dict(zip(traces._FIELDS, row(rec))), ensure_ascii=False) for rec in records) + "\n"
    raise UnknownFormat(f"unknown trace format {fmt!r}")


# Text that csv quotes or escapes, line breaks it leaves unquoted, text json
# escapes, and the empty string; drawn from a few values so that ids repeat.
_HOSTILE_TEXT = st.lists(st.sampled_from(["a", ",", '"', "\r", "\n", "\r\n", "\x0b", "\u2028", "\x85", "é",
                                          "\U0001f600", " ", "\\", "\x00"]), max_size=4).map("".join)
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, 0.1, 1 / 3, 1.7976931348623157e308]
_LATENCY = st.one_of(st.sampled_from([f for f in _EDGE_FLOATS if f > 0]),
                     st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False))
_ENERGY = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(min_value=0, allow_nan=False, allow_infinity=False))
_COUNT = st.one_of(st.integers(1, 2**63 - 1), st.sampled_from([1, 2**53 + 1, 2**63 - 1]))


@st.composite
def _hostile_records(draw):
    ids = draw(st.lists(_HOSTILE_TEXT, min_size=1, max_size=4))
    text = st.sampled_from(ids)
    return [Run(draw(text), kind, draw(_COUNT), 1 if kind is RunKind.PREFILL_ONLY else draw(_COUNT),
                draw(_LATENCY), draw(_ENERGY), draw(_ENERGY), draw(_ENERGY), draw(text), draw(text),
                draw(_COUNT))
            for kind in draw(st.lists(st.sampled_from(list(RunKind)), max_size=8))]


class TestWriteOracle:
    @settings(max_examples=400, deadline=None)
    @given(_hostile_records(), st.sampled_from(["delimited", "line-json"]), st.sampled_from([1, 3, 1024]))
    def test_matches_the_per_record_writer(self, records, fmt, block_rows):
        # the same text, or ValueError with the same message
        table = as_table(records)
        want = _result(_write_records_oracle, table, fmt)
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            assert _result(write_records, table, fmt) == want

    def test_first_unquoted_break_in_the_text_is_named(self):
        # the earliest row wins, then the leftmost column, then the first break in the value
        rows = [("ok", "ok", "ok"), ("ok", "b\u2028\x0b", "c\x85"), ("\x0b", "ok", "ok")]
        records = as_table([Run(pid, RunKind.FULL, 10, 2, 1.0, 0.5, 0.0, 0.0, model, precision)
                            for pid, model, precision in rows])
        want = _result(_write_records_oracle, records)
        assert want[0] is ValueError and "'\\u2028'" in want[1]
        assert _result(write_records, records) == want

    def test_reference_and_synthesized_traces(self, coeffs):
        plan = [(s, g) for s in (200, 900, 3000) for g in (0, 3, 82)]
        for table in (traces.read_runs(REFERENCE_TEXT)[0],
                      synthesize_trace(plan, coeffs, noise=0.05, seed=2, runs=4),
                      traces.RunTable.from_records([])):
            for fmt in ("delimited", "line-json"):
                assert write_records(table, fmt) == _write_records_oracle(table, fmt)

    def test_each_distinct_text_is_encoded_once(self, coeffs, monkeypatch):
        table = synthesize_trace([(s, g) for s in (200, 900) for g in (0, 82)], coeffs, noise=0.05, runs=30)
        want = {fmt: _write_records_oracle(table, fmt) for fmt in ("delimited", "line-json")}
        encoded = []
        monkeypatch.setattr(traces, "json", mock.Mock(
            dumps=lambda value, **options: encoded.append(value) or json.dumps(value, **options)))
        row = traces._csv_row
        monkeypatch.setattr(traces, "_csv_row", lambda cells: encoded.append(cells) or row(cells))
        for fmt in want:
            encoded.clear()
            assert write_records(table, fmt) == want[fmt]
            # four prompt ids, one model, one precision, two run kinds; and the delimited header
            assert len(encoded) == 8 + (fmt == "delimited")


class TestDropWarmup:
    def test_drops_first_k_per_prompt_and_kind(self):
        records = [record(prompt="a", t=float(i + 1)) for i in range(4)]
        records += [record(prompt="a", kind=RunKind.PREFILL_ONLY, t=9.0)]
        kept = drop_warmup(as_table(records), 2)
        assert kept.latency_s[kept.full].tolist() == [3.0, 4.0]
        assert np.count_nonzero(~kept.full) == 0

    def test_groups_are_the_decompose_groups(self):
        def run(model, kind):
            return record(prompt="p", kind=kind)._replace(model_id=model)

        kinds = (RunKind.PREFILL_ONLY, RunKind.FULL)
        # two runs of each kind per model: each model keeps its second ones
        records = [run(m, k) for k in kinds for m in "AB" for _ in range(2)]
        kept = drop_warmup(as_table(records), 1)
        assert list(zip(kept.model_id, kept.full.tolist())) == [(m, k is RunKind.FULL) for k in kinds for m in "AB"]
        # one run of each: the first model's runs are not counted against the second's
        records = [run(m, k) for m in "AB" for k in kinds]
        assert len(drop_warmup(as_table(records), 1)) == 0
        split = [r._replace(precision=p) for r in records for p in ("fp32", "bf16")]
        assert drop_warmup(as_table(split), 1).precision == []


class TestDecompose:
    def test_direct_subtraction(self):
        records = [
            record(kind=RunKind.PREFILL_ONLY, gpu=0.10, cpu=0.0, ram=0.0, t=0.5),
            record(kind=RunKind.FULL, gpu=0.30, cpu=0.0, ram=0.0, t=2.0),
        ]
        decomps, missing = decompose(as_table(records))
        assert not missing
        assert decomps[0].decode_wh.gpu == pytest.approx(0.20)
        assert decomps[0].decode_latency_s == pytest.approx(1.5)

    def test_identical_runs_give_zero_decode(self):
        records = [
            record(kind=RunKind.PREFILL_ONLY, gpu=0.25, cpu=0.03, ram=0.01),
            record(kind=RunKind.FULL, gpu=0.25, cpu=0.03, ram=0.01),
        ]
        decomps, _ = decompose(as_table(records))
        assert decomps[0].decode_wh == ComponentEnergy(0.0, 0.0, 0.0)

    def test_known_decode_recovered_exactly(self):
        # full = prefill + decode by construction, several runs per kind
        rng = np.random.default_rng(0)
        records = []
        truth = {}
        for i in range(20):
            prompt = f"p{i}"
            prefill = ComponentEnergy(*rng.uniform(0.01, 0.2, 3))
            decode = ComponentEnergy(*rng.uniform(0.05, 0.5, 3))
            truth[prompt] = decode
            for _ in range(5):
                records.append(Run(prompt, RunKind.PREFILL_ONLY, 100, 1, 0.5,
                                   *prefill))
                records.append(Run(prompt, RunKind.FULL, 100, 40, 2.0,
                                   prefill.gpu + decode.gpu,
                                   prefill.cpu + decode.cpu,
                                   prefill.ram + decode.ram))
        decomps, missing = decompose(as_table(records))
        assert not missing
        for d in decomps:
            want = truth[d.prompt_id]
            for got, expect in zip(d.decode_wh, want):
                assert abs(got - expect) <= 1e-12

    def test_missing_kinds_reported_not_fabricated(self):
        records = [
            record(prompt="only_full"),
            record(prompt="only_prefill", kind=RunKind.PREFILL_ONLY),
            record(prompt="both"),
            record(prompt="both", kind=RunKind.PREFILL_ONLY),
        ]
        decomps, missing = decompose(as_table(records))
        assert {d.prompt_id for d in decomps} == {"both"}
        reported = {(m.prompt_id, m.missing) for m in missing}
        assert reported == {
            ("only_full", RunKind.PREFILL_ONLY),
            ("only_prefill", RunKind.FULL),
        }

    def test_negative_decode_flagged_and_preserved(self):
        records = [
            record(kind=RunKind.PREFILL_ONLY, gpu=0.30),
            record(kind=RunKind.FULL, gpu=0.20),
        ]
        decomps, _ = decompose(as_table(records))
        assert decomps[0].decode_wh.gpu == pytest.approx(-0.10)
        assert NEGATIVE_DECODE in decomps[0].flags


class TestAggregate:
    def test_single_record_stats(self):
        stats = aggregate(as_table([record(gpu=0.4)]), phase="full")
        gpu = stats.components["gpu"]
        assert gpu.mean == 0.4 and gpu.std == 0.0 and gpu.count == 1
        assert gpu.min == gpu.max == 0.4

    def test_reference_fixture_hits_published_means_exactly(self):
        records, issues = parse_records(REFERENCE_TEXT)
        assert not issues
        stats = aggregate(records, phase="full")
        assert stats.components["gpu"].mean == 0.202
        assert stats.components["cpu"].mean == 0.024
        assert stats.components["ram"].mean == 0.019
        assert stats.total_mean == pytest.approx(0.245, abs=1e-15)

    def test_mean_invariant_under_shuffle(self):
        rng = np.random.default_rng(4)
        records = [record(prompt=f"p{i}", gpu=float(g)) for i, g in
                   enumerate(rng.uniform(0.01, 1.0, 30))]
        shuffled = records[:]
        random.Random(1).shuffle(shuffled)
        assert aggregate(as_table(records)).components["gpu"].mean == pytest.approx(
            aggregate(as_table(shuffled)).components["gpu"].mean, rel=1e-12
        )

    def test_population_std(self):
        records = [record(prompt="a", gpu=0.1), record(prompt="b", gpu=0.3)]
        # population std of {0.1, 0.3} is 0.1 (sample std would be 0.1414)
        assert aggregate(as_table(records)).components["gpu"].std == pytest.approx(0.1)

    def test_total_is_sum_of_component_means(self):
        records = [record(gpu=0.4, cpu=0.03, ram=0.02), record(gpu=0.2, cpu=0.01, ram=0.04)]
        stats = aggregate(as_table(records))
        assert stats.total_mean == pytest.approx(
            sum(stats.components[c].mean for c in ("gpu", "cpu", "ram"))
        )

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            aggregate(as_table([record()]), phase="prefill")
        with pytest.raises(EmptySelection):
            aggregate(as_table([]), phase="full")

    def test_decode_phase_needs_decompositions(self):
        with pytest.raises(EmptySelection):
            aggregate(as_table([record()]), phase="decode")
        records = [record(kind=RunKind.PREFILL_ONLY, gpu=0.1), record(gpu=0.5)]
        decomps, _ = decompose(as_table(records))
        stats = aggregate(decomps, phase="decode")
        assert stats.components["gpu"].mean == pytest.approx(0.4)


class TestPhaseEnergies:
    def test_one_contiguous_row_per_component(self):
        records = [record(gpu=0.4, cpu=0.03, ram=0.02), record(kind=RunKind.PREFILL_ONLY, gpu=0.1),
                   record(gpu=0.2, cpu=0.01, ram=0.04)]
        energies = phase_energies(as_table(records), "full")
        assert energies.shape == (3, 2)
        assert all(row.flags.c_contiguous for row in energies)
        assert energies.tolist() == [[0.4, 0.2], [0.03, 0.01], [0.02, 0.04]]

    def test_decompositions_give_the_phase_asked_for(self):
        records = [record(kind=RunKind.PREFILL_ONLY, gpu=0.1, cpu=0.0, ram=0.0),
                   record(gpu=0.5, cpu=0.0, ram=0.0)]
        decomps, _ = decompose(as_table(records))
        gpu = {phase: phase_energies(decomps, phase)[0].tolist() for phase in ("prefill", "full", "decode")}
        assert gpu == {"prefill": [0.1], "full": [0.5], "decode": [0.5 - 0.1]}

    def test_bad_selections(self):
        with pytest.raises(ValueError, match="unknown phase"):
            phase_energies(as_table([record()]), "both")
        with pytest.raises(EmptySelection, match="require decompositions"):
            phase_energies(as_table([record()]), "decode")
        with pytest.raises(EmptySelection, match="no items match phase 'prefill'"):
            phase_energies(as_table([record()]), "prefill")


class TestHistogram:
    def test_single_value_single_bin(self):
        result = histogram([0.25], bins=1)
        assert result.counts == (1,)

    def test_uniform_values_split_evenly(self):
        result = histogram([1.0, 1.0, 3.0, 3.0], bins=2)
        assert result.counts == (2, 2)

    def test_lognormal_sample_is_right_skewed(self):
        rng = np.random.default_rng(11)
        result = histogram(rng.lognormal(0.0, 0.8, 5000).tolist(), bins=40)
        assert result.mean > result.median
        assert result.right_skewed

    def test_counts_always_sum_to_n(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(0, 1, 137).tolist()
        assert sum(histogram(values, bins=7).counts) == 137
        # explicit edges that exclude part of the range still count everything
        assert sum(histogram(values, bins=[0.2, 0.4, 0.6]).counts) == 137

    def test_bad_edges(self):
        with pytest.raises(BadEdges):
            histogram([1.0, 2.0], bins=[0.0, 1.0, 0.5])
        with pytest.raises(BadEdges):
            histogram([1.0, 2.0], bins=[0.0, 1.0, float("nan")])
        with pytest.raises(BadEdges, match="Cannot create 10 finite-sized bins"):
            histogram([0.1, 0.10000000000000003], bins=10)  # a range of two ulps

    def test_empty_values(self):
        with pytest.raises(EmptyInput):
            histogram([], bins=3)

    @pytest.mark.parametrize("values,median", [([3.0, 1.0, 2.0], 2.0), ([4.0, 1.0, 2.5, 3.0], 2.75)])
    def test_pinned_result_on_odd_and_even_lengths(self, values, median):
        result = histogram(values, bins=[1.0, 2.0, 4.0])
        assert result == traces.HistogramResult(
            edges=(1.0, 2.0, 4.0), counts=(1, len(values) - 1),
            mean=sum(values) / len(values), median=median)

    def test_median_is_the_statistics_median_on_every_length(self):
        # the median of the middle one or two sorted values, as
        # statistics.median gives it, for inputs as lists or arrays
        rng = np.random.default_rng(13)
        for n in range(1, 200):
            values = rng.lognormal(-3.0, 1.0, n)
            want = statistics.median(values.tolist())
            assert histogram(values, bins=5).median == want
            assert histogram(values.tolist(), bins=5).median == want


class TestToFitSamples:
    def test_prefill_records_then_positive_decode_estimates(self):
        records = [
            record(prompt="a", kind=RunKind.FULL, s=300, g=64, t=2.5, gpu=0.6, cpu=0.0, ram=0.0),
            record(prompt="b", kind=RunKind.PREFILL_ONLY, s=200, t=0.4),
            record(prompt="a", kind=RunKind.PREFILL_ONLY, s=300, t=0.5, gpu=0.1, cpu=0.0, ram=0.0),
            record(prompt="b", kind=RunKind.FULL, s=200, g=50, t=0.3),  # decode latency -0.1: skipped
        ]
        decomps, _ = decompose(as_table(records))
        samples = to_fit_samples(as_table(records), decomps, component="gpu")
        # full runs are no rows; prefill-only runs come in file order
        assert samples.s.tolist() == [200, 300, 300]
        assert samples.g.tolist() == [0, 0, 64]
        assert samples.t.tolist() == [0.4, 0.5, pytest.approx(2.0)]
        assert samples.energy_wh.tolist() == [0.3, 0.1, pytest.approx(0.5)]

    def test_component_selector(self):
        records = [record(kind=RunKind.PREFILL_ONLY, gpu=0.5, cpu=0.04, ram=0.01)]
        assert to_fit_samples(as_table(records), [], component="gpu").energy_wh.tolist() == [0.5]

    def test_empty_input_empty_output(self):
        samples = to_fit_samples(as_table([]), [])
        assert [len(c) for c in (samples.s, samples.g, samples.t, samples.energy_wh)] == [0, 0, 0, 0]

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown component"):
            to_fit_samples(as_table([]), [], component="disk")

    def test_records_read_the_component_fields(self, monkeypatch):
        records = [record(kind=RunKind.PREFILL_ONLY, gpu=0.1, cpu=0.2, ram=0.7),
                   record(kind=RunKind.PREFILL_ONLY, gpu=1 / 3, cpu=0.1, ram=1e-17)]

        def no_per_record_energy(*args):
            raise AssertionError("to_fit_samples built a ComponentEnergy per record")

        monkeypatch.setattr(traces, "ComponentEnergy", no_per_record_energy)
        for component in ("gpu", "cpu", "ram"):
            got = to_fit_samples(as_table(records), [], component=component).energy_wh.tolist()
            assert got == [getattr(r, f"{component}_wh") for r in records]
        totals = to_fit_samples(as_table(records), []).energy_wh.tolist()
        assert totals == [r.gpu_wh + r.cpu_wh + r.ram_wh for r in records]  # bitwise, in that order


class TestStatisticsThatOverflow:
    """Runs that are each finite but whose mean, std or component total is
    not: the statistic raises OverflowError naming it, with no numpy warning."""

    BIG = 1e308

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_decompose_names_the_group(self):
        runs = as_table([record(kind=RunKind.PREFILL_ONLY, t=self.BIG, gpu=self.BIG),
                         record(t=self.BIG, gpu=self.BIG), record(t=self.BIG, gpu=self.BIG)])
        with pytest.raises(OverflowError, match=re.escape(
                "a run mean of prompt 'p0' (model 'm', precision 'fp32', batch 1) is not finite")):
            decompose(runs)

    def test_a_group_missing_a_kind_reports_no_mean(self):
        runs = as_table([record(gpu=self.BIG), record(gpu=self.BIG), record("p1", RunKind.PREFILL_ONLY)])
        decomps, missing = decompose(runs)
        assert not decomps and [(m.prompt_id, m.missing) for m in missing] == \
            [("p0", RunKind.PREFILL_ONLY), ("p1", RunKind.FULL)]

    @pytest.mark.parametrize("energies,phase,what", [
        ([(BIG, 0.0), (BIG, 0.0)], "full", "the full gpu energy mean"),
        ([(BIG, 0.0), (0.0, 0.0)], "full", "the full gpu energy std"),
        ([(BIG, BIG)], "full", "the full total energy mean"),
    ])
    def test_aggregate_names_the_statistic(self, energies, phase, what):
        runs = as_table([record(gpu=gpu, cpu=cpu) for gpu, cpu in energies])
        with pytest.raises(OverflowError, match=f"^{what} is not finite; inputs are implausibly large$"):
            aggregate(runs, phase)

    @pytest.mark.parametrize("bins", [[0.0, 1.0], 10])  # a count: the statistic, not numpy's binning error
    @pytest.mark.parametrize("values,what", [
        ([BIG, BIG], "the mean of the values"),
        ([-1.7e308, BIG, BIG, BIG], "the median of the values"),  # a finite mean, but (BIG + BIG) / 2
    ])
    def test_histogram_names_the_statistic(self, values, what, bins):
        with pytest.raises(OverflowError, match=f"^{what} is not finite"):
            histogram(values, bins)

    @pytest.mark.parametrize("bins", [[0.0, 1.0], 10])
    @pytest.mark.parametrize("values,text", [
        ([math.nan, 1.0], "nan at index 0"),
        ([1.0, 2.0, -math.inf], "-inf at index 2"),
        ([BIG, BIG, math.inf], "inf at index 2"),  # before the mean's overflow
    ])
    def test_histogram_refuses_a_value_that_is_not_finite(self, values, text, bins):
        with pytest.raises(ValueError, match=f"^values must be finite, got {text}$"):
            histogram(values, bins)

    def test_component_totals(self):
        with pytest.raises(OverflowError, match=re.escape("a total energy (gpu + cpu + ram) is not finite")):
            ComponentEnergy(self.BIG, self.BIG, 0.0).total
        prefill_total = as_table([record(kind=RunKind.PREFILL_ONLY, gpu=self.BIG, cpu=self.BIG)])
        runs = as_table([record(kind=RunKind.PREFILL_ONLY, t=0.5, gpu=0.0, cpu=0.0),
                         record(gpu=self.BIG, cpu=self.BIG)])
        decomps, _ = decompose(runs)
        assert decomps[0].decode_wh.gpu == decomps[0].decode_wh.cpu == self.BIG
        for table, rows in ((prefill_total, []), (runs, decomps)):
            with pytest.raises(OverflowError, match=re.escape("a total energy (gpu + cpu + ram)")):
                to_fit_samples(table, rows)
            assert to_fit_samples(table, rows, "gpu").energy_wh.max() == self.BIG


class TestSynthesizeTrace:
    def test_noiseless_decompose_recovers_polynomials(self, coeffs):
        plan = [(500, 32), (1000, 64), (2000, 128)]
        records = synthesize_trace(plan, coeffs, runs=3)
        decomps, missing = decompose(records)
        assert not missing
        for (s, g), d in zip(plan, decomps):
            assert d.decode_wh.gpu == pytest.approx(eval_decode_energy(coeffs.decode_energy, s, g), rel=1e-12)
            assert d.decode_latency_s == pytest.approx(eval_decode_latency(coeffs.decode_latency, s, g), rel=1e-12)

    def test_deterministic_per_seed(self, coeffs):
        plan = [(500, 32), (1000, 64)]
        a = synthesize_trace(plan, coeffs, noise=0.05, seed=3)
        b = synthesize_trace(plan, coeffs, noise=0.05, seed=3)
        assert a == b
        c = synthesize_trace(plan, coeffs, noise=0.05, seed=4)
        assert a != c

    def test_out_of_range_grid_point_rejected(self, coeffs):
        with pytest.raises(InferwattError):
            synthesize_trace([(1, 1)], coeffs)

    def test_values_no_run_can_hold_are_an_error(self, coeffs):
        # relative noise 5 draws negative values; a coefficient of 1e308
        # overflows to inf. Neither is a run, so neither is a trace.
        with pytest.raises(InferwattError, match="drew a value no run can hold"):
            synthesize_trace([(900, 0)] * 20, coeffs, noise=5.0)
        huge = CoefficientSet(coeffs.prefill_latency, None, PrefillEnergyCoeffs(1e308, 0.0))
        with pytest.raises(InferwattError, match="drew a value no run can hold"):
            synthesize_trace([(900, 0)], huge)

    @pytest.mark.parametrize("point", [(100, -3), (100.5, 3), (100, 2.5), (0, 0), (0, 5),
                                       (float("nan"), 3), (100, float("inf")), (2**63, 3), (100, 2**63),
                                       (float(2**63), 3)])
    def test_plan_points_must_be_whole_with_s_at_least_1_and_g_at_least_0(self, coeffs, point):
        # unchecked, (100, -3) gives a prefill-only prompt and (100.5, 3)
        # records that `parse_records` rejects once written
        with pytest.raises(ValueError, match="plan point"):
            synthesize_trace([(500, 32), point], coeffs)

    def test_whole_float_plan_points_give_int_token_counts(self, coeffs):
        table = synthesize_trace([(500.0, 32.0)], coeffs)
        assert table == synthesize_trace([(500, 32)], coeffs)
        assert table.input_tokens.dtype == table.output_tokens.dtype == np.int64
        assert parse_records(write_records(table)) == (table, [])

    def test_prefill_only_points_check_no_full_run(self, coeffs):
        # at g = 0 the decode latency is its intercept rho < 0, and at s = 1
        # t_pre + rho < 0: a prompt without full runs must not fail on one
        assert coeffs.prefill_latency(1.0) + coeffs.decode_latency(1.0, 0.0) < 0
        plan = [(1, 0), (10, 0), (900, 82)]
        assert repr(columns(synthesize_trace(plan, coeffs, noise=0.05, runs=2))) == \
            repr(columns(_synthesize_oracle(plan, coeffs, noise=0.05, runs=2)))

    def test_columns_have_the_run_table_types(self, coeffs):
        table = synthesize_trace([(500, 0), (900, 82)], coeffs, noise=0.05, runs=2)
        assert [type(value) for value in table.prompt_id + table.model_id + table.precision] == [str] * 18
        assert table.full.dtype == bool
        assert {c.dtype for c in (table.input_tokens, table.output_tokens, table.batch)} == {np.dtype(np.int64)}
        assert {c.dtype for c in (table.latency_s, table.gpu_wh, table.cpu_wh, table.ram_wh)} == \
            {np.dtype(np.float64)}
        assert repr(columns(as_table(rows_of(table)))) == repr(columns(table))

    def test_synth_builds_no_record(self, coeffs, monkeypatch):
        plan = [(500, 0), (500, 82), (900, 0), (900, 82)]
        records = _synthesize_oracle(plan, coeffs, noise=0.05, seed=4, runs=3)
        want = {fmt: _write_records_oracle(records, fmt) for fmt in ("delimited", "line-json")}

        def no_per_run_check(*args):
            raise AssertionError("a row was converted and checked")

        monkeypatch.setattr(traces, "_run", no_per_run_check)
        table = synthesize_trace(plan, coeffs, noise=0.05, seed=4, runs=3)
        for fmt in want:
            assert write_records(table, fmt) == want[fmt]
            out = io.StringIO()
            assert cli_dispatch(["synth", "--s-values", "500,900", "--g-values", "0,82", "--noise", "0.05",
                                 "--seed", "4", "--runs", "3", "--trace-format", fmt], out=out) == 0
            assert out.getvalue() == want[fmt]


# --- the per-point loop before the columnar synthesis, kept as the reference ---


def _synthesize_oracle(plan, coeffs, noise=0.0, seed=0, runs=1, model_id="synthetic", precision="fp32"):
    if noise < 0:
        raise ValueError("noise must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    points = []
    for s, g in plan:
        if not (1 <= s < 2**63 and 0 <= g < 2**63 and s == int(s) and g == int(g)):
            raise ValueError(f"plan point (s={s!r}, g={g!r}) needs whole numbers 1 <= s < 2**63 "
                             "and 0 <= g < 2**63")
        points.append((int(s), int(g)))
    if coeffs.prefill_latency is None or coeffs.prefill_energy is None:
        raise InferwattError("trace synthesis needs prefill latency and energy coefficients")
    rng = np.random.default_rng(seed)

    def draw(value: float) -> float:
        return value if noise == 0.0 else value * (1.0 + noise * rng.standard_normal())

    records = []
    for idx, (s, g) in enumerate(points):
        if g >= 1 and (coeffs.decode_latency is None or coeffs.decode_energy is None):
            raise InferwattError("plan has g>=1 points but no decode coefficients")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ModelOutOfRangeWarning)
            try:
                t_pre = eval_prefill_latency(coeffs.prefill_latency, s)
                e_pre = eval_prefill_energy(coeffs.prefill_energy, s)
                if g >= 1:
                    t_dec = eval_decode_latency(coeffs.decode_latency, s, g)
                    e_dec = eval_decode_energy(coeffs.decode_energy, s, g)
            except ModelOutOfRangeWarning:
                raise InferwattError(f"grid point (s={s}, g={g}) is outside the coefficient validity range") from None
        prompt = f"p{idx:04d}"
        try:
            records += [_checked_oracle(Run(prompt, RunKind.PREFILL_ONLY, s, 1, draw(t_pre), draw(e_pre),
                                            0.0, 0.0, model_id, precision, 1)) for _ in range(runs)]
            records += [_checked_oracle(Run(prompt, RunKind.FULL, s, g, draw(t_pre) + draw(t_dec),
                                            draw(e_pre) + draw(e_dec), 0.0, 0.0, model_id, precision, 1))
                        for _ in range(runs if g >= 1 else 0)]
        except ValueError as exc:
            raise InferwattError(f"grid point (s={s}, g={g}) drew a value no run can hold: {exc}") from None
    return as_table(records)


def _result(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except (InferwattError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return repr(columns(result) if isinstance(result, traces.RunTable) else result)  # repr shows every bit


# Mostly coefficient sets and plans that give a trace; some have one value
# that fails a check: a negative slope or intercept, an overflowing
# coefficient, a missing decode group, a count of 2**63 or more.
_FLOAT_LIMIT = 2**1024 - 2**970  # the least int that float() rejects: it rounds to 2**1024


@st.composite
def _coefficient_sets(draw):
    families = (PrefillLatencyCoeffs, DecodeLatencyCoeffs, PrefillEnergyCoeffs, DecodeEnergyCoeffs)
    values = [[draw(st.floats(1e-7, 1e-2)) for _ in fields(cls)[:-1]] + [draw(st.floats(1e-4, 0.05))]
              for cls in families]
    if draw(st.booleans()):
        group = draw(st.integers(0, 3))
        values[group][draw(st.integers(0, len(values[group]) - 1))] = draw(
            st.one_of(st.floats(-0.05, 0.0), st.sampled_from([-1e-9, 1e300, -1e300, 1e308])))
    sets = [cls(*v) for cls, v in zip(families, values)]
    for group in draw(st.sampled_from([()] * 12 + [(1,), (3,), (1, 3)])):
        sets[group] = None
    return CoefficientSet(*sets)


@st.composite
def _plans(draw):
    plan = draw(st.lists(st.tuples(st.integers(1, 5000), st.one_of(st.just(0), st.integers(1, 2000))),
                         min_size=1, max_size=6))
    if draw(st.integers(0, 4)) == 0:
        index, position = draw(st.integers(0, len(plan) - 1)), draw(st.integers(0, 1))
        point = list(plan[index])
        point[position] = draw(st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, 10**300, _FLOAT_LIMIT, 10**400]))
        plan[index] = tuple(point)
    return plan


class TestSynthesizeOracle:
    @settings(max_examples=400, deadline=None)
    @given(plan=_plans(), coeffs=_coefficient_sets(),
           noise=st.one_of(st.sampled_from([0.0, 0.05, 5.0]), st.floats(0.0, 3.0)),
           seed=st.integers(0, 2**32), runs=st.integers(1, 4))
    def test_matches_the_per_point_loop(self, plan, coeffs, noise, seed, runs):
        # equal records, or the same exception type and text: a count of
        # 2**63 or more fails the plan check first in both, then the first
        # failing point (missing decode group, nonpositive polynomial, a bad
        # draw) fails first in both
        kwargs = dict(noise=noise, seed=seed, runs=runs)
        assert _result(synthesize_trace, plan, coeffs, **kwargs) == \
            _result(_synthesize_oracle, plan, coeffs, **kwargs)

    @pytest.mark.parametrize("plan,prefill", [
        ([(500, 0), (900, 82), (1, 1)], None),  # the last point is out of range
        ([(900, 82), (2**63, 0)], None),  # a count of 2**63 fails the plan check
        ([(1, 1), (2**63, 5)], None),  # which comes before the earlier point's range
        ([(1, 10**400)], PrefillLatencyCoeffs(1e-4, 1e-8, -0.01)),  # and before its own prefill
        ([(1, 5), (10, 0)], PrefillLatencyCoeffs(1e-4, 1e-8, -0.01)),  # a negative prefill fails its point
        ([(900, 0)] * 30, None),  # noise 5 draws a negative value
    ])
    def test_each_error_at_its_point(self, coeffs, plan, prefill):
        coeffs = replace(coeffs, prefill_latency=prefill or coeffs.prefill_latency)
        kwargs = dict(noise=5.0, seed=11, runs=2)
        want = _result(_synthesize_oracle, plan, coeffs, **kwargs)
        assert isinstance(want, tuple)
        assert _result(synthesize_trace, plan, coeffs, **kwargs) == want

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_reference_grid(self, coeffs, noise):
        plan = [(s, g) for s in (500, 900, 3000) for g in (0, 32, 82, 1024)]
        table = synthesize_trace(plan, coeffs, noise=noise, seed=5, runs=3)
        assert repr(columns(table)) == repr(columns(_synthesize_oracle(plan, coeffs, noise=noise, seed=5, runs=3)))
        assert len(table) == 3 * 12 + 3 * 9


@st.composite
def _physical_coefficient_sets(draw):
    # every coefficient but the intercept nonnegative, as `is_physical` asks
    families = (PrefillLatencyCoeffs, DecodeLatencyCoeffs, PrefillEnergyCoeffs, DecodeEnergyCoeffs)
    slope, intercept = st.one_of(st.just(0.0), st.floats(1e-9, 1e-2)), st.floats(-0.01, 0.05)
    return CoefficientSet(*(cls(*[draw(slope) for _ in fields(cls)[:-1]], draw(intercept)) for cls in families))


class TestThePapersFindingsThroughTheTrace:
    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.one_of(st.just(reference_coefficients()), _physical_coefficient_sets()),
           s_values=st.lists(st.integers(1, 8000), min_size=2, max_size=5, unique=True),
           g_values=st.lists(st.integers(1, 4000), min_size=2, max_size=5, unique=True))
    def test_decode_cost_rises_with_g_and_prefill_energy_with_s(self, coeffs, s_values, g_values):
        # input and output length drive energy: a noise-free trace, written and read back in either
        # format, keeps the orderings of the physical polynomials it was drawn from
        assert all(poly.is_physical for poly in vars(coeffs).values())
        plan = [(s, g) for s in s_values for g in [0] + g_values  # the points the polynomials are positive at
                if coeffs.prefill_latency(s) > 0 and coeffs.prefill_energy(s) > 0
                and (g == 0 or coeffs.decode_latency(s, g) > 0 and coeffs.decode_energy(s, g) > 0)]
        assume(plan)
        table = synthesize_trace(plan, coeffs)
        for fmt in ("delimited", "line-json"):
            runs, issues = traces.read_runs(write_records(table, fmt), fmt)
            assert not issues
            decode = sorted((d.input_tokens, d.output_tokens, d.decode_latency_s, d.decode_wh.gpu)
                            for d in decompose(runs)[0])
            for (s1, _, t1, e1), (s2, _, t2, e2) in zip(decode, decode[1:]):
                assert s1 < s2 or (t1 <= t2 and e1 <= e2)
            prefill = ~runs.full
            energy = runs.gpu_wh[prefill][np.argsort(runs.input_tokens[prefill], kind="stable")]
            assert np.all(np.diff(energy) >= 0)


class TestRecordValidation:
    """`RunTable.from_records` converts and checks hand-built rows as the
    reader converts and checks a read one; the first bad row raises."""

    def test_prefill_only_single_output_token(self):
        with pytest.raises(ValueError, match="^prefill-only runs have exactly one output token$"):
            as_table([Run("p", RunKind.PREFILL_ONLY, 10, 5, 1.0, 0.1, 0.0, 0.0)])

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ValueError, match="^latency_s must be positive and finite$"):
            as_table([Run("p", RunKind.FULL, 10, 5, 0.0, 0.1, 0.0, 0.0)])

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError, match="^component energies must be nonnegative and finite$"):
            as_table([Run("p", RunKind.FULL, 10, 5, 1.0, -0.1, 0.0, 0.0)])

    @pytest.mark.parametrize("latency", [float("inf"), float("nan")])
    def test_non_finite_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="^latency_s must be positive and finite$"):
            as_table([Run("p", RunKind.FULL, 10, 5, latency, 0.1, 0.0, 0.0)])

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_energy_rejected(self, position, value):
        energies = [0.1, 0.01, 0.01]
        energies[position] = value
        with pytest.raises(ValueError, match="^component energies must be nonnegative and finite$"):
            as_table([Run("p", RunKind.FULL, 10, 5, 1.0, *energies)])

    @pytest.mark.parametrize("position", [2, 3, 4, 5, 6, 7, 10])
    @pytest.mark.parametrize("value", [True, False])
    def test_a_boolean_is_no_number(self, position, value):
        # True passed every count check and `decompose` counted it as 1
        cells = ["p", RunKind.FULL, 10, 2, 1.0, 0.1, 0.0, 0.0, "m", "fp32", 1]
        cells[position] = value
        message = f"^{traces._FIELDS[position]} must be a number, got {value}$"
        with pytest.raises(ValueError, match=message):
            as_table([tuple(cells)])
        with pytest.raises(ValueError, match=message):
            as_table([record()._replace(**{traces._FIELDS[position]: value})])

    def test_the_first_boolean_is_named_with_the_readers_text(self):
        with pytest.raises(ValueError, match="^input_tokens must be a number, got True$"):
            as_table([Run("p", RunKind.FULL, True, 5, True, 0.1, 0.0, 0.0)])
        assert parse_records(_json_run(input_tokens=True, latency_s=True), "line-json") == \
            (as_table([]), [ParseIssue(1, "input_tokens must be a number, got True")])

    @pytest.mark.parametrize("field", ["input_tokens", "output_tokens", "batch"])
    @pytest.mark.parametrize("value", [2.5, np.float64(2.5), np.float32(2.5), 1e-3])
    def test_a_count_is_no_fraction(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a whole number, got {float(value)}$"):
            as_table([record()._replace(**{field: value})])

    def test_whole_numbers_convert_to_counts_and_reals(self):
        table = as_table([record()._replace(input_tokens=100.0, latency_s=2, batch=np.int64(3), model_id=7)])
        assert table == as_table([record()._replace(latency_s=2.0, batch=3, model_id="7")])
        assert table.input_tokens.dtype == np.int64 and type(table.latency_s[0]) is np.float64

    @pytest.mark.parametrize("bad,message", [
        (dict(input_tokens=0, output_tokens=0, latency_s=-1.0, gpu_wh=-1.0, batch=0), "input_tokens must be >= 1"),
        (dict(run_kind=RunKind.PREFILL_ONLY, output_tokens=0, latency_s=-1.0, batch=0), "output_tokens must be >= 1"),
        (dict(run_kind=RunKind.PREFILL_ONLY, output_tokens=5, latency_s=-1.0, gpu_wh=-1.0, batch=0),
         "prefill-only runs have exactly one output token"),
        (dict(latency_s=0.0, ram_wh=-1.0, batch=0), "latency_s must be positive and finite"),
        (dict(cpu_wh=-0.5, batch=0), "component energies must be nonnegative and finite"),
        (dict(batch=0), "batch must be >= 1"),
    ])
    def test_a_run_is_named_by_its_first_failing_check(self, bad, message):
        # built by hand, and in both readers, which check the run's columns
        cells = record()._replace(**bad)  # a row is built unchecked
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_table([cells])
        for fmt in ("delimited", "line-json"):
            text = write_records(traces._table([cells]), fmt)
            assert parse_records(text, fmt) == (as_table([]), [ParseIssue(2 if fmt == "delimited" else 1, message)])

    @pytest.mark.parametrize("run_kind", ["full", "Full", 1, None])
    def test_a_run_kind_that_is_no_run_kind_is_refused(self, run_kind):
        # a row of the text 'full' would be written as a prefill_only line; the
        # refusal comes ahead of the bool refusal and every check, as in the reader
        message = f"^{re.escape(f'unknown run_kind {run_kind!r}')}$"
        with pytest.raises(ValueError, match=message):
            as_table([Run("p", run_kind, True, 0, 0.0, -1.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match=message):
            as_table([record()._replace(run_kind=run_kind)])
        if run_kind == "Full":  # the reader's text for a kind it does not know
            [issue] = parse_records(_json_run(run_kind=run_kind, input_tokens=True), "line-json")[1]
            assert re.match(message, issue.message)

    @pytest.mark.parametrize("bad", [
        dict(input_tokens=True), dict(batch=False), dict(output_tokens=2.5), dict(run_kind="Full"),
        dict(run_kind=RunKind.PREFILL_ONLY), dict(latency_s=0.0), dict(ram_wh=-1e-300), dict(batch=2**63),
        dict(input_tokens=0, latency_s=True), dict(latency_s="x"), dict(gpu_wh=[0.1]), dict(input_tokens=None),
    ])
    def test_a_row_built_by_hand_and_read_from_line_json_give_one_message(self, bad):
        row = record()._replace(**bad)
        with pytest.raises(ValueError) as refused:
            as_table([row])
        line = json.dumps({name: value.value if isinstance(value, RunKind) else value
                           for name, value in row._asdict().items()})
        assert parse_records(line, "line-json") == (as_table([]), [ParseIssue(1, str(refused.value))])

    def test_the_first_bad_row_raises(self):
        rows = [record(), record()._replace(batch=0), record()._replace(latency_s=0.0)]
        with pytest.raises(ValueError, match="^batch must be >= 1$"):
            as_table(rows)
        assert rows_of(as_table(rows[:1])) == rows[:1]
        assert len(as_table(iter(rows[:1]))) == 1

    def test_non_finite_cell_is_a_parse_issue(self):
        text = HEADER + "\np,full,10,5,1.0,nan,0.0,0.0,m,fp32,1\np,full,10,5,1.0,0.1,0.0,0.0,m,fp32,1\n"
        records, issues = parse_records(text)
        assert len(records) == 1 and [i.line for i in issues] == [2]


class TestRecordTuple:
    def test_immutable_hashable_with_defaults(self):
        rec = Run("p", RunKind.FULL, 10, 5, 1.0, 0.1, 0.0, 0.0)
        assert (rec.model_id, rec.precision, rec.batch) == ("", "", 1)
        assert (rec.gpu_wh, rec.cpu_wh, rec.ram_wh) == (0.1, 0.0, 0.0)
        assert len({rec, Run("p", RunKind.FULL, 10, 5, 1.0, 0.1, 0.0, 0.0)}) == 1
        with pytest.raises(AttributeError):
            rec.latency_s = 2.0

    def test_optional_fields_may_be_left_out(self):
        assert rows_of(as_table([("p", RunKind.FULL, 10, 5, 1.0, 0.1, 0.0, 0.0)])) == \
            [Run("p", RunKind.FULL, 10, 5, 1.0, 0.1, 0.0, 0.0)]


# --- the parser before csv-module reading, kept as the reference ------------

_ORACLE_FIELDS = traces._FIELDS


def _number_oracle(fields: dict, name: str, convert, default=None):
    # a JSON boolean is no number, and a count no fraction: each is an issue
    value = fields[name] if default is None else fields.get(name, default)
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if convert is int and isinstance(value, float) and value != int(value):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    try:
        return convert(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _checked_oracle(run):
    """`run`, or ValueError naming the first check it fails, in this order."""
    def count(name):
        value = getattr(run, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
        if value >= 2**63:
            raise ValueError(f"{name} must be below 2**63")

    count("input_tokens")
    count("output_tokens")
    if run.run_kind is RunKind.PREFILL_ONLY and run.output_tokens != 1:
        raise ValueError("prefill-only runs have exactly one output token")
    if not 0 < run.latency_s < float("inf"):
        raise ValueError("latency_s must be positive and finite")
    if not all(0 <= wh < float("inf") for wh in (run.gpu_wh, run.cpu_wh, run.ram_wh)):
        raise ValueError("component energies must be nonnegative and finite")
    count("batch")
    return run


def _record_from_fields_oracle(fields: dict) -> Run:
    # its own copy of the checks: RunTable.from_records is what it checks
    kind_raw = str(fields["run_kind"])
    try:
        kind = RunKind(kind_raw)
    except ValueError:
        raise ValueError(f"unknown run_kind {kind_raw!r}") from None
    return _checked_oracle(Run(
        prompt_id=str(fields["prompt_id"]),
        run_kind=kind,
        input_tokens=_number_oracle(fields, "input_tokens", int),
        output_tokens=_number_oracle(fields, "output_tokens", int),
        latency_s=_number_oracle(fields, "latency_s", float),
        gpu_wh=_number_oracle(fields, "gpu_wh", float),
        cpu_wh=_number_oracle(fields, "cpu_wh", float),
        ram_wh=_number_oracle(fields, "ram_wh", float),
        model_id=str(fields.get("model_id", "")),
        precision=str(fields.get("precision", "")),
        batch=_number_oracle(fields, "batch", int, 1),
    ))


def _parse_records_oracle(text, fmt="delimited", rename=None):
    rename = rename or {}
    records, issues = [], []
    # line-json lines end at "\n" or "\r\n" only
    lines = text.splitlines() if fmt == "delimited" else [line.removesuffix("\r") for line in text.split("\n")]
    if fmt == "delimited":
        header = [rename.get(h.strip(), h.strip()) for h in lines[0].split(",")]
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                issues.append(ParseIssue(lineno, f"expected {len(header)} cells, got {len(cells)}"))
                continue
            try:
                records.append(_record_from_fields_oracle(dict(zip(header, (c.strip() for c in cells)))))
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
                missing = [f for f in traces._REQUIRED if f not in obj]
                if missing:
                    raise ValueError(f"line is missing required fields {missing}")
                records.append(_record_from_fields_oracle(obj))
            except ValueError as exc:
                issues.append(ParseIssue(lineno, str(exc)))
    return as_table(records), issues


# Per field: good cells (with padding whitespace), then bad numbers, NaN,
# negative and infinite values and unknown kinds.
_GOOD_CELLS = {
    "prompt_id": ["p0", "p1", " p 2 ", ""],
    "run_kind": ["full", "prefill_only", " full "],
    "input_tokens": ["100", "1", " 7 ", "1_0"],
    "output_tokens": ["1", "20"],
    "latency_s": ["1.5", "0.25", "1e-3"],
    "gpu_wh": ["0.3", "0"],
    "cpu_wh": ["0.02", "0", " 0.5 "],
    "ram_wh": ["0.01", "0"],
    "model_id": ["m", "", " m2 "],
    "precision": ["fp32", ""],
    "batch": ["1", "2"],
}
_CELLS = {name: good + bad for (name, good), bad in zip(_GOOD_CELLS.items(), [
    [], ["bogus", ""], ["0", "-5", "2.5", "x"], ["0", "nan"], ["0", "-1", "nan", "inf", "abc"],
    ["-0.1", "nan", "1e400", "x"], ["-inf"], ["NaN"], [], [], ["0", "x"],
])}
_HEADERS = [
    list(_ORACLE_FIELDS),
    list(_ORACLE_FIELDS[:8]),
    ["batch", "ram_wh", "prompt_id", "input_tokens", "run_kind", "output_tokens",
     "latency_s", "gpu_wh", "cpu_wh", "model_id"],
    list(_ORACLE_FIELDS) + ["prompt_id"],  # a repeated column: the last one is read
]


@st.composite
def _quote_free_trace(draw):
    header = draw(st.sampled_from(_HEADERS))
    lines = [" " + ", ".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["good", "good", "any", "any", "short", "long", "blank"]))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        pool = _GOOD_CELLS if shape == "good" else _CELLS
        cells = [draw(st.sampled_from(pool[name])) for name in header]
        if shape == "short":
            cells = cells[:draw(st.integers(1, len(cells) - 1))]
        elif shape == "long":
            cells.append("extra")
        lines.append(",".join(cells))
    # line breaks of str.splitlines, csv's own ones included
    breaks = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", " "])) for _ in lines]
    return "".join(line + br for line, br in zip(lines, breaks))


# Rows per converted block: small ones make traces cross block boundaries.
_BLOCK_SIZES = [2, 3, traces._BLOCK_ROWS]


class TestParseOracle:
    @settings(max_examples=300, deadline=None)
    @given(_quote_free_trace(), st.sampled_from(_BLOCK_SIZES))
    def test_delimited_matches_the_split_parser(self, text, block_rows):
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            assert parse_records(text) == _parse_records_oracle(text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.fixed_dictionaries(
            {name: st.sampled_from(cells) for name, cells in _CELLS.items()},
        ).map(json.dumps),
        st.fixed_dictionaries(
            {"prompt_id": st.sampled_from(["p", 5]), "run_kind": st.sampled_from(["full", 1]),
             "input_tokens": st.sampled_from([10, 2.5, "10", 10.0, True, 1e20, 2**63 - 1]),
             "output_tokens": st.sampled_from([1, 3, 3.9, 3.0, False]),
             "latency_s": st.sampled_from([1.0, -1.0, "nan", 2, True]), "gpu_wh": st.sampled_from([0.1, 0, False]),
             "cpu_wh": st.just(0.0), "ram_wh": st.just(0.0)},
            optional={"batch": st.sampled_from([1, 2, 0, 1.7, 2.0, True, 2**63]),
                      "model_id": st.sampled_from(["m", 3])},
        ).map(json.dumps),
        st.sampled_from(["", "  ", "[1, 2]", "17", "{", "not json", '{"prompt_id": "p"}']),
    ), max_size=12), st.sampled_from(_BLOCK_SIZES))
    def test_line_json_matches_the_split_parser(self, lines, block_rows):
        text = "\n".join(lines) + "\n"
        if not text.strip():
            return
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            assert parse_records(text, "line-json") == _parse_records_oracle(text, "line-json")

    @pytest.mark.parametrize("block_rows", _BLOCK_SIZES)
    def test_each_bad_value_alone_matches_the_split_parser(self, block_rows):
        # one bad cell or value per row, each after a good row: with blocks
        # of two rows, every check runs on a block of its own
        json_values = {"input_tokens": [2.5, 3.0, True, 0, -2, 1e20, 2**63],
                       "output_tokens": [3.9, 2.0, False, 0, 2**63 - 1],
                       "latency_s": [-1.0, 0, float("nan"), float("inf"), True, "1.5"],
                       "gpu_wh": [-0.1, float("nan"), float("-inf"), False],
                       "batch": [1.7, 0, True, 2**63, 2**64, "2"], "prompt_id": [5, None], "model_id": [3]}
        delimited, line_json = [",".join(_ORACLE_FIELDS)], []
        for kind in ("full", "prefill_only"):
            good = {name: cells[0] for name, cells in _GOOD_CELLS.items()}
            good.update(run_kind=kind, output_tokens="1")
            good_json = dict(good, input_tokens=100, output_tokens=1, latency_s=1.5, gpu_wh=0.3, cpu_wh=0.02,
                             ram_wh=0.01, batch=1)
            for name, cells in _CELLS.items():
                for cell in cells:
                    delimited += [",".join(good.values()), ",".join({**good, name: cell}.values())]
                    line_json += [json.dumps(good_json), json.dumps({**good_json, name: cell})]
            for name, values in json_values.items():
                for value in values:
                    line_json += [json.dumps(good_json), json.dumps({**good_json, name: value})]
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            for fmt, lines in (("delimited", delimited), ("line-json", line_json)):
                text = "\n".join(lines) + "\n"
                assert parse_records(text, fmt) == _parse_records_oracle(text, fmt)

    @pytest.mark.parametrize("block_rows", _BLOCK_SIZES)
    def test_issues_stay_in_line_order_across_blocks(self, block_rows):
        good = "p{},full,100,20,1.5,0.3,0.02,0.01,m,fp32,1"
        lines = [HEADER] + [good.format(i) for i in range(5)]
        lines[3] = "p2,full,100,x,1.5,0.3,0.02,0.01,m,fp32,1"  # a bad cell in a middle block
        lines[5] = "p4,full,100,20,-1.5,0.3,0.02,0.01,m,fp32,1"  # a run no record can hold
        lines += ["x" * 200_000 + good.format(5), good.format(6), "p7,full", "", good.format(8)]
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            records, issues = parse_records("\n".join(lines) + "\n")
        assert records.prompt_id == ["p0", "p1", "p3", "p6", "p8"]
        assert [(i.line, i.message) for i in issues] == [
            (4, "output_tokens: invalid literal for int() with base 10: 'x'"),
            (6, "latency_s must be positive and finite"),
            (7, "field larger than field limit (131072)"),
            (9, "expected 11 cells, got 2"),
        ]

    @pytest.mark.parametrize("fmt", ["delimited", "line-json"])
    def test_columns_match_the_split_parser_on_whole_traces(self, coeffs, fmt):
        plan = [(s, g) for s in range(200, 3200, 300) for g in (0, 16, 82, 300)]
        synthesized = synthesize_trace(plan, coeffs, noise=0.05, seed=3, runs=60)
        assert len(synthesized) > traces._BLOCK_ROWS
        for records in (parse_records(REFERENCE_TEXT)[0], synthesized):
            text = write_records(records, fmt)
            table, issues = traces.read_runs(text, fmt)
            want, want_issues = _parse_records_oracle(text, fmt)
            assert not issues and not want_issues
            assert repr(columns(table)) == repr(columns(want))  # repr shows every bit

    def test_rename_matches_the_split_parser(self):
        text = "prompt,kind,input_tokens,output_tokens,latency_s,gpu_wh,cpu_wh,ram_wh\n" \
               "p1,full,100,20,1.5,0.3,0.02,0.01\np2,prefill_only,100,3,1.5,0.3,0.02,0.01\n"
        rename = {"prompt": "prompt_id", "kind": "run_kind"}
        assert parse_records(text, rename=rename) == _parse_records_oracle(text, rename=rename)


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text().map(lambda body: HEADER + "\n" + body)),
           st.sampled_from(["delimited", "line-json"]))
    def test_any_text_gives_records_and_issues_or_a_typed_error(self, text, fmt):
        try:
            records, issues = parse_records(text, fmt)
        except (EmptyInput, UnknownFormat):
            return
        assert isinstance(records, traces.RunTable)
        assert all(isinstance(i, ParseIssue) for i in issues)

    @pytest.mark.parametrize("value", ["null", "[1]", "Infinity", "1e400"])
    def test_wrong_json_types_are_issues(self, value):
        obj = ('{"prompt_id": "p", "run_kind": "full", "input_tokens": %s, "output_tokens": 2, '
               '"latency_s": 1.0, "gpu_wh": 0.1, "cpu_wh": 0.0, "ram_wh": 0.0}' % value)
        records, issues = parse_records(obj + "\n", "line-json")
        assert not records and [i.line for i in issues] == [1]

    @pytest.mark.parametrize("fmt,suffix", [("delimited", ".csv"), ("line-json", ".jsonl")])
    def test_text_that_is_not_utf8_is_unknown_format(self, tmp_path, fmt, suffix):
        good = write_records(as_table([record()]), fmt).encode("utf-8")
        path = tmp_path / f"trace{suffix}"
        path.write_bytes(good + b"\xff\n")
        with pytest.raises(UnknownFormat, match="trace is not UTF-8 text"):
            parse_records(path, fmt)

    @pytest.mark.parametrize("fmt", ["delimited", "line-json"])
    @pytest.mark.parametrize("source", [io.StringIO(REFERENCE_TEXT), REFERENCE_TEXT.encode("utf-8"), None, 5])
    def test_a_source_that_is_not_text_or_a_path_is_unknown_format(self, source, fmt):
        with pytest.raises(UnknownFormat, match=r"^a trace is text or a pathlib\.Path, not [A-Za-z]+$"):
            traces.read_runs(source, fmt)

    def test_a_file_name_given_as_text_is_named(self, tmp_path):
        # text without a comma is no trace of either format: the header
        # message says that a file name must be a Path
        missing = "header is missing required columns ['prompt_id', 'run_kind', 'input_tokens', " \
                  "'output_tokens', 'latency_s', 'gpu_wh', 'cpu_wh', 'ram_wh']"
        for name in ("runs.csv", str(tmp_path / "runs.csv")):
            with pytest.raises(UnknownFormat, match=f"^{re.escape(missing)}; a file name must be given as a "
                                                    f"pathlib.Path$"):
                traces.read_runs(name)
        # a Path to a file without a comma gets the header message alone
        path = tmp_path / "runs.csv"
        path.write_text("runs\n", encoding="utf-8")
        with pytest.raises(UnknownFormat, match=f"^{re.escape(missing)}$"):
            traces.read_runs(path)

    def test_oversized_cell_is_an_issue_and_reading_goes_on(self):
        good = "p1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1"
        text = "\n".join([HEADER, "x" * 200_000 + good, good]) + "\n"
        records, issues = parse_records(text)
        assert len(records) == 1 and [i.line for i in issues] == [2]


# --- the delimited reader's two paths: split text, or csv for the rest ------


def _read_state(text, rename=None, fmt="delimited"):
    """What `read_runs` gives for `text`: every column with its type and
    dtype (repr shows every bit) and the issues, or the error it raises."""
    try:
        table, issues = traces.read_runs(text, fmt, rename)
    except InferwattError as exc:
        return type(exc), str(exc)
    return repr([(type(column), getattr(column, "dtype", None), column if isinstance(column, list) else column.tolist())
                 for column in vars(table).values()]), issues


def _through_csv(text):
    """`text` with the header's first cell quoted: it then reads through csv."""
    first, rest = text.split(",", 1)
    return f'"{first}",{rest}'


def _takes_split_path(text, rename=None):
    """Whether every body line of `text` is split, none read by csv: a csv reader reads the header alone."""
    with mock.patch.object(traces, "_blocks", wraps=traces._blocks) as row_blocks, \
            mock.patch.object(traces.csv, "reader", wraps=csv.reader) as readers:
        traces.read_runs(text, rename=rename)
    return not row_blocks.called and readers.call_count == 1


# Text values with no double quote, comma, NUL or line break: written unquoted
_UNQUOTED = st.text(st.characters(blacklist_characters='",\0\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029',
                                  blacklist_categories=("Cs",)), max_size=5)
_COUNT = st.integers(1, 2**63 - 1)
_REAL = st.floats(0, allow_infinity=False)


@st.composite
def _unquoted_tables(draw, texts=_UNQUOTED):
    runs = []
    for _ in range(draw(st.integers(1, 9))):
        full = draw(st.booleans())
        runs.append(Run(draw(texts), RunKind.FULL if full else RunKind.PREFILL_ONLY, draw(_COUNT),
                        draw(_COUNT) if full else 1, draw(_REAL.filter(bool)), draw(_REAL), draw(_REAL),
                        draw(_REAL), draw(texts), draw(texts), draw(_COUNT)))
    return traces.RunTable.from_records(runs)


# Inputs that exercise the reader's rules, and whether each takes the split path
_DELIMITED_CASES = {
    "blank line": (HEADER + "\np1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1\n\np2,full,9,2,1,0,0,0,m,fp32,1\n", False),
    "blank line at the end": (HEADER + "\np1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1\n \n", False),
    "wrong cell count": (HEADER + "\np1,full,100,20,1.5,0.3,0.02,0.01,m,fp32\np2,full,1,2,1,0,0,0,m,fp32,1,\n",
                         False),
    "cell that does not convert": (HEADER + "\np1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1\n"
                                   "p2,full,1_0,2.5,1,0,0,0,m,fp32,1\np3,bogus,1,2,1,0,0,0,m,fp32,1\n", True),
    "run no record holds": (HEADER + "\np1,full,100,20,-1.5,0.3,0.02,0.01,m,fp32,1\n", True),
    "CRLF line ends": (HEADER + "\r\np1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1\r\np2,full,x,1,1,0,0,0,m,fp32,2\r\n",
                       True),
    "other line breaks": (HEADER + "\x0cp1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1\x85"
                          "p2,prefill_only,5,1,1,0,0,0,m,fp32,2\u2028p3,full,1,2,1,0,0,0,m,x,1\x1c", True),
    "spaces around cells": (" " + HEADER.replace(",", " , ") + " \n p1 , full ,100 , 20,\t1.5,0.3,0.02,0.01, m ,"
                            " fp32 , 1 \n", True),
    "no line end": (HEADER + "\np1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1", True),
    "absent optional columns": (HEADER.rsplit(",", 3)[0] + "\np1,full,100,20,1.5,0.3,0.02,0.01\n", True),
    "header only": (HEADER + "\n", True),  # no body line to read by csv
    "NUL": (HEADER + "\np\0,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1\n", False),
    "quoted cell": (HEADER + '\n"p,1",full,100,20,1.5,0.3,0.02,0.01,m,fp32,1\n', False),
    "special numbers": (HEADER + "\np1,full,1e2,20,inf,nan,1e400,-0.0,m,fp32,1\np2,full,100,20,1.5,0,-0.0,0,m,fp32,1\n",
                        True),
    "missing column": ("prompt_id,run_kind,input_tokens\np1,full,100\n", None),
}
_HEADER_CASES = {  # a header's names and a rename: each row's cells in that order
    "renamed": ("prompt,kind,input_tokens,output_tokens,latency_s,gpu_wh,cpu_wh,ram_wh",
                {"prompt": "prompt_id", "kind": "run_kind"}),
    "reordered": ("batch,ram_wh,prompt_id,input_tokens,run_kind,output_tokens,latency_s,gpu_wh,cpu_wh,model_id", None),
    "repeated": (HEADER + ",prompt_id", None),
    "renamed onto another": (HEADER + ",pid", {"pid": "prompt_id"}),
}


class TestDelimitedPaths:
    """A delimited trace without quotes reads by splitting its text; every
    other one through csv. Both give the same runs and issues."""

    @settings(max_examples=200, deadline=None)
    @given(_unquoted_tables(), st.sampled_from(_BLOCK_SIZES),
           st.none() | st.tuples(st.integers(0, 8), st.integers(0, 10), st.sampled_from(["x", "", "-1", "2.5", " "])))
    def test_drawn_tables_read_alike_on_both_paths(self, table, block_rows, bad):
        text = write_records(table)
        if bad is not None:  # one cell of one row replaced, which may make an issue
            lines = text.splitlines(keepends=True)
            row, col = bad[0] % len(table) + 1, bad[1]
            cells = lines[row].split(",")
            cells[col] = bad[2] + ("\n" if col == 10 else "")
            lines[row] = ",".join(cells)
            text = "".join(lines)
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            assert _takes_split_path(text) and not _takes_split_path(_through_csv(text))
            state = _read_state(text)
            assert state == _read_state(_through_csv(text))

    @pytest.mark.parametrize("case", _DELIMITED_CASES)
    @pytest.mark.parametrize("block_rows", [1, 2, traces._BLOCK_ROWS])
    def test_each_case_reads_alike_on_both_paths(self, case, block_rows):
        text, split = _DELIMITED_CASES[case]
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            state = _read_state(text)
            assert state == _read_state(_through_csv(text))
            assert state == _read_state(re.sub(r"(?<!\r)\n", "\r\n", text))
            if split is not None:
                assert _takes_split_path(text) is split

    @pytest.mark.parametrize("case", _HEADER_CASES)
    def test_each_header_reads_alike_on_both_paths(self, case):
        header, rename = _HEADER_CASES[case]
        good = {**dict(zip(_ORACLE_FIELDS, "p1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,2".split(","))),
                "prompt": "p1", "kind": "full", "pid": "p9"}
        text = header + "\n" + ",".join(good[name] for name in header.split(",")) + "\n"
        assert _takes_split_path(text, rename)
        state = _read_state(text, rename)
        assert state == _read_state(_through_csv(text), rename)
        records, issues = parse_records(text, rename=rename)
        assert not issues and records == _parse_records_oracle(text, rename=rename)[0]

    def test_issue_names_the_line_of_a_cell_that_does_not_convert(self):
        good = "p{},full,100,20,1.5,0.3,0.02,0.01,m,fp32,1"
        lines = [HEADER] + [good.format(i) for i in range(7)]
        lines[5] = "p4,full,100,20,1.5,zero,0.02,0.01,m,fp32,1"
        text = "\r\n".join(lines) + "\r\n"
        for block_rows in (2, 3, traces._BLOCK_ROWS):
            with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
                assert _takes_split_path(text)
                records, issues = parse_records(text)
                assert issues == [ParseIssue(6, "gpu_wh: could not convert string to float: 'zero'")]
                assert records.prompt_id == ["p0", "p1", "p2", "p3", "p5", "p6"]
                assert (records, issues) == parse_records(_through_csv(text))

    @pytest.fixture
    def field_limit(self):
        limit = csv.field_size_limit()
        yield csv.field_size_limit
        csv.field_size_limit(limit)

    def test_a_line_longer_than_the_field_limit_reads_through_csv(self, field_limit):
        good = "p1,full,100,20,1.5,0.3,0.02,0.01,m,fp32,1"
        text = "\n".join([HEADER, "q" * 5 + good, "r" * 60 + good, good]) + "\n"
        every = ["q" * 5 + "p1", "r" * 60 + "p1", "p1"]
        field_limit(50)  # the third line's first cell is longer than the limit
        assert not _takes_split_path(text)
        records, issues = parse_records(text)
        assert records.prompt_id == [every[0], every[2]]
        assert issues == [ParseIssue(3, "field larger than field limit (50)")]
        assert _read_state(text) == _read_state(_through_csv(text))
        field_limit(70)  # the third line is longer than the limit, but none of its cells
        assert not _takes_split_path(text)
        assert parse_records(text) == parse_records(_through_csv(text))
        assert parse_records(text)[0].prompt_id == every
        field_limit(200)  # every line fits
        assert _takes_split_path(text)
        assert parse_records(text)[0].prompt_id == every

    def test_unquoted_input_never_reads_a_body_row_with_csv(self, monkeypatch):
        # csv reads the header alone: were it asked for a body row, reading would fail
        class BodyRowRead(Exception):
            pass

        real_reader = csv.reader

        def header_only(lines, *args, **kwargs):
            yield next(real_reader(lines, *args, **kwargs))
            raise BodyRowRead

        plan = [(s, g) for s in (300, 900, 2000) for g in (0, 40)]
        text = write_records(synthesize_trace(plan, reference_coefficients(), noise=0.05, seed=2, runs=200))
        want = _read_state(text)
        monkeypatch.setattr(traces.csv, "reader", header_only)
        for trace in (text, REFERENCE_TEXT, text.replace("\n", "\r\n")):
            table, issues = traces.read_runs(trace)
            assert len(table) > 0 and not issues
        assert _read_state(text) == want
        with pytest.raises(BodyRowRead):
            traces.read_runs(_through_csv(text))


# --- the line-json reader's two paths: one pattern per block, or a JSON decode per line

# Text values json.dumps writes with no escape, whatever its ensure_ascii
_JSON_PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e, blacklist_characters='"\\'), max_size=5)
_NEVER = re.compile(r"(?!)")

# A value's text in place of a drawn field's (in a field of the kind given, if any)
_JSON_VALUE_CASES = {
    "-0": ("-0", "real"), "-0.0": ("-0.0", "real"), "1e400": ("1e400", "real"),
    "400 zeros": ("1" + "0" * 400, "real"), "2**63": (str(2**63), "count"), "1.0 in a count": ("1.0", "count"),
    "true": ("true", None), "null": ("null", None), "NaN": ("NaN", None), '"x"': ('"x"', None),
    "escaped quote": ('"\\""', None), "raw non-ASCII": ('"é"', None),
    "spaces": ('" p "', None), "raw U+2028": ('"a\u2028b"', None),
}


def _json_lines(table, change=None, row=0, field=0):
    """`table` as line-json lines, built from each value's JSON text, with
    one line changed: a `_JSON_VALUE_CASES` case or a layout change."""
    lines = []
    for i, values in enumerate(zip(*columns(table))):
        values = list(values)
        values[1] = "full" if values[1] else "prefill_only"
        # texts as they are: _unquoted_tables draws no lone surrogate, which UTF-8 cannot encode
        pairs = [[json.dumps(name), json.dumps(value, ensure_ascii=False)]
                 for name, value in zip(_ORACLE_FIELDS, values)]
        separators = (", ", ": ")
        if i == row and change in _JSON_VALUE_CASES:
            token, kind = _JSON_VALUE_CASES[change]
            fields = [k for k, f in enumerate(traces._FIELD_KINDS) if kind in (None, f)]
            pairs[fields[field % len(fields)]][1] = token
        elif i == row and change == "compact separators":
            separators = (",", ":")
        elif i == row and change == "reordered keys":
            pairs.reverse()
        elif i == row and change == "missing optional key":
            del pairs[-1 - field % 3]
        elif i == row and change == "duplicate key":
            pairs.append([pairs[field % len(pairs)][0], "2"])
        line = "{" + separators[0].join(map(separators[1].join, pairs)) + "}"
        lines.append(line + "\r" if i == row and change == "trailing CR" else line)
    return lines


class TestLineJsonPaths:
    """A block of line-json lines each in the written layout reads through
    one pattern; every other block through a JSON decode per line. Both
    give the same runs and issues."""

    @pytest.mark.parametrize("change", [None, *_JSON_VALUE_CASES, "compact separators", "reordered keys",
                                        "missing optional key", "duplicate key", "trailing CR"])
    @pytest.mark.parametrize("block_rows", [1, 2, traces._BLOCK_ROWS])
    @settings(max_examples=10, deadline=None)
    @given(table=_unquoted_tables(), row=st.integers(0, 8), field=st.integers(0, 10))
    def test_each_change_reads_alike_on_both_paths(self, change, block_rows, table, row, field):
        text = "\n".join(_json_lines(table, change, row % len(table), field)) + "\n"
        if change is None:
            assert text == write_records(table, "line-json")
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            state = _read_state(text, fmt="line-json")
            with mock.patch.object(traces, "_JSON_LINE", _NEVER):
                assert state == _read_state(text, fmt="line-json")

    @pytest.mark.parametrize("case", ["-0", "400 zeros", "1.0 in a count", "escaped quote"])
    def test_values_whose_text_converts_otherwise_read_through_json(self, case):
        text = "".join(line + "\n" for line in _json_lines(traces.RunTable.from_records([record()] * 3), case, 1))
        with mock.patch.object(traces.json, "loads", wraps=traces.json.loads) as decode:
            state = _read_state(text, fmt="line-json")
        assert decode.call_count == 3
        with mock.patch.object(traces, "_JSON_LINE", _NEVER):
            assert state == _read_state(text, fmt="line-json")

    @staticmethod
    def _reads_without_decoding(text):
        want = _read_state(text, fmt="line-json")
        with mock.patch.object(traces.json, "loads", side_effect=AssertionError("a line was decoded")):
            assert _read_state(text, fmt="line-json") == want
            assert _read_state(text.replace("\n", "\r\n"), fmt="line-json") == want

    @settings(max_examples=100, deadline=None)
    @given(_unquoted_tables(_JSON_PLAIN), st.sampled_from([1, 2, traces._BLOCK_ROWS]))
    def test_written_tables_never_decode_a_line(self, table, block_rows):
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            self._reads_without_decoding(write_records(table, "line-json"))

    @pytest.mark.parametrize("block_rows", [1, 2, traces._BLOCK_ROWS])
    def test_written_traces_never_decode_a_line(self, block_rows):
        plan = [(s, g) for s in (300, 900, 2000) for g in (0, 40)]
        synthesized = synthesize_trace(plan, reference_coefficients(), noise=0.05, seed=2, runs=200)
        with mock.patch.object(traces, "_BLOCK_ROWS", block_rows):
            for runs in (synthesized, parse_records(REFERENCE_TEXT)[0]):
                self._reads_without_decoding(write_records(runs, "line-json"))

    def test_non_ascii_texts_are_written_as_they_are(self):
        runs = parse_records(REFERENCE_TEXT)[0]
        n = len(runs)
        text = write_records(replace(runs, model_id=["caf\xe9"] * n, precision=["\u2028\U0001f600"] * n), "line-json")
        assert '"model_id": "caf\xe9", "precision": "\u2028\U0001f600"' in text
        self._reads_without_decoding(text)

    def test_a_lone_surrogate_is_written_escaped(self):
        # only a "\ud800" escape read from line-json gives a str holding one
        runs = parse_records(_json_run(prompt_id="\ud800") + _json_run(prompt_id="caf\xe9"), "line-json")[0]
        assert runs.prompt_id == ["\ud800", "caf\xe9"]
        text = write_records(runs, "line-json")
        assert text.encode("utf-8").decode("utf-8") == text
        assert ['"prompt_id": "\\ud800"' in line for line in text.splitlines()] == [True, False]
        assert parse_records(text, "line-json") == (runs, [])

    def test_lines_end_at_newline_only(self):
        good = _json_run()
        run = json.dumps(json.loads(good) | {"prompt_id": "caf\u2028e"}, ensure_ascii=False) + "\n"
        assert "\u2028" in run
        records, issues = parse_records(run + "{\x0c}\n" + good, "line-json")
        assert records.prompt_id == ["caf\u2028e", "p"]
        assert [i.line for i in issues] == [2]
        crlf = good.replace(", ", ",\r ").replace("\n", "\r\n")  # a CR is JSON whitespace, and CR LF ends a line
        records, issues = parse_records(crlf + good + good.replace("\n", "\x0c\n"), "line-json")
        assert len(records) == 2 and [i.line for i in issues] == [3]


class TestByteOrderMark:
    """One leading U+FEFF, as Excel's "CSV UTF-8" writes, is no part of the trace."""

    @pytest.mark.parametrize("fmt", ["delimited", "line-json"])
    def test_text_and_path_read_as_without_it(self, tmp_path, fmt):
        text = write_records(parse_records(REFERENCE_TEXT)[0], fmt)
        want = parse_records(text, fmt)
        path = tmp_path / "trace"
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_records("\ufeff" + text, fmt) == want
        assert parse_records(path, fmt) == want

    def test_only_one_is_dropped(self):
        records, issues = parse_records("\ufeff\ufeff" + _json_run(), "line-json")
        assert not records and [i.line for i in issues] == [1]
        with pytest.raises(UnknownFormat, match="missing required columns"):
            parse_records("\ufeff\ufeff" + HEADER + "\n")
        with pytest.raises(EmptyInput):
            parse_records("\ufeff", "line-json")

    def test_writer_writes_none(self):
        for fmt in ("delimited", "line-json"):
            assert not write_records(as_table([record()]), fmt).startswith("\ufeff")


def _json_run(**values):
    run = {"prompt_id": "p", "run_kind": "full", "input_tokens": 10, "output_tokens": 2, "latency_s": 1.0,
           "gpu_wh": 0.1, "cpu_wh": 0.0, "ram_wh": 0.0}
    return json.dumps({**run, **values}) + "\n"


class TestNumbers:
    @pytest.mark.parametrize("field,value,message", [
        ("input_tokens", 2.5, "input_tokens must be a whole number, got 2.5"),
        ("output_tokens", 3.9, "output_tokens must be a whole number, got 3.9"),
        ("batch", 1.7, "batch must be a whole number, got 1.7"),
        ("input_tokens", True, "input_tokens must be a number, got True"),
        ("batch", False, "batch must be a number, got False"),
        ("latency_s", True, "latency_s must be a number, got True"),
        ("ram_wh", False, "ram_wh must be a number, got False"),
        ("input_tokens", 1e20, "input_tokens must be below 2**63"),
        ("output_tokens", 2**63, "output_tokens must be below 2**63"),
        ("batch", 2**64, "batch must be below 2**63"),
    ])
    def test_line_json_truncates_no_number(self, field, value, message):
        # a value read as another number is a parse issue, never a truncated count
        assert parse_records(_json_run(**{field: value}), "line-json") == (as_table([]), [ParseIssue(1, message)])

    @pytest.mark.parametrize("value", [7, 7.0, "7", " 7 "])
    def test_a_count_is_an_integer_a_whole_float_or_text_int_reads(self, value):
        records, issues = parse_records(_json_run(input_tokens=value, batch=value), "line-json")
        assert not issues and (records.input_tokens.tolist(), records.batch.tolist()) == ([7], [7])
        assert records.input_tokens.dtype == np.int64

    @pytest.mark.parametrize("cell,message", [
        ("2.5", "input_tokens: invalid literal for int() with base 10: '2.5'"),
        (str(2**63), "input_tokens must be below 2**63"),
    ])
    def test_delimited_counts_are_integers_below_2_63(self, cell, message):
        text = HEADER + f"\np,full,{cell},2,1.0,0.1,0,0,m,fp32,1\np,full,{2**63 - 1},2,1.0,0.1,0,0,m,fp32,1\n"
        records, issues = parse_records(text)
        assert records.input_tokens.tolist() == [2**63 - 1]
        assert issues == [ParseIssue(2, message)]

    @pytest.mark.parametrize("position", [2, 3, 10])
    def test_record_counts_are_whole_and_below_2_63(self, position):
        fields = ["p", RunKind.FULL, 10, 2, 1.0, 0.1, 0.0, 0.0, "m", "fp32", 1]
        name = traces._FIELDS[position]
        for good in (2**63 - 1, 5.0):
            fields[position] = good
            assert columns(as_table([tuple(fields)]))[position] == [good]
        for bad, message in ((2**63, f"{name} must be below 2\\*\\*63"),
                             (5.5, f"{name} must be a whole number, got 5.5")):
            fields[position] = bad
            with pytest.raises(ValueError, match=message):
                as_table([tuple(fields)])

    def test_plan_of_the_largest_count_round_trips(self, coeffs):
        table = synthesize_trace([(2**63 - 1, 1)], coeffs)
        for fmt in ("delimited", "line-json"):
            assert parse_records(write_records(table, fmt), fmt) == (table, [])

    @pytest.mark.parametrize("field,cell,message", [
        ("input_tokens", "x", "input_tokens: invalid literal for int() with base 10: 'x'"),
        ("batch", "true", "batch: invalid literal for int() with base 10: 'true'"),
        ("cpu_wh", "1.5.0", "cpu_wh: could not convert string to float: '1.5.0'"),
    ])
    def test_an_issue_names_the_field_that_does_not_convert(self, field, cell, message):
        good = dict(zip(traces._FIELDS, ["p", "full", "10", "2", "1.0", "0.1", "0", "0", "m", "fp32", "1"]))
        bad = {**good, field: cell}
        delimited = "\n".join([HEADER, ",".join(good.values()), ",".join(bad.values())]) + "\n"
        good_run = Run("p", RunKind.FULL, 10, 2, 1.0, 0.1, 0.0, 0.0, "m", "fp32", 1)
        assert parse_records(delimited) == (as_table([good_run]), [ParseIssue(3, message)])
        assert parse_records(_json_run(**{field: cell}), "line-json") == (as_table([]), [ParseIssue(1, message)])
        assert parse_records(_json_run(**{field: None}), "line-json")[1][0].message.startswith(f"{field}: ")

    def test_a_required_field_left_out_is_reported_missing(self):
        line = json.loads(_json_run())
        del line["input_tokens"], line["ram_wh"]
        text = _json_run() + json.dumps(line) + "\n" + json.dumps({"prompt_id": "p", "batch": 1}) + "\n"
        records, issues = parse_records(text, "line-json")
        assert len(records) == 1 and issues == [
            ParseIssue(2, "line is missing required fields ['input_tokens', 'ram_wh']"),
            ParseIssue(3, "line is missing required fields ['run_kind', 'input_tokens', 'output_tokens',"
                          " 'latency_s', 'gpu_wh', 'cpu_wh', 'ram_wh']"),
        ]
        # an optional field left out takes its default; the delimited reader names a missing column in its header
        assert parse_records(_json_run(), "line-json")[0].batch.tolist() == [1]
        header = HEADER.replace("ram_wh,", "")
        with pytest.raises(UnknownFormat, match=re.escape("header is missing required columns ['ram_wh']") + "$"):
            parse_records(header + "\np,full,10,2,1.0,0.1,0,m,fp32,1\n")


# --- the per-group loop before the numpy group-by, kept as the reference ----


def _decompose_oracle(records):
    groups = {}
    for rec in records:
        groups.setdefault((rec.prompt_id, rec.model_id, rec.precision, rec.batch), []).append(rec)

    def mean_energy(runs):
        return ComponentEnergy(
            gpu=float(np.mean([r.gpu_wh for r in runs])),
            cpu=float(np.mean([r.cpu_wh for r in runs])),
            ram=float(np.mean([r.ram_wh for r in runs])),
        )

    decompositions, missing = [], []
    for (prompt_id, model_id, precision, batch), group in groups.items():
        prefill = [r for r in group if r.run_kind is RunKind.PREFILL_ONLY]
        full = [r for r in group if r.run_kind is RunKind.FULL]
        if not prefill:
            missing.append(MissingKind(prompt_id, RunKind.PREFILL_ONLY, model_id, precision, batch))
        if not full:
            missing.append(MissingKind(prompt_id, RunKind.FULL, model_id, precision, batch))
        if not prefill or not full:
            continue
        prefill_wh = mean_energy(prefill)
        full_wh = mean_energy(full)
        decode_wh = ComponentEnergy(full_wh.gpu - prefill_wh.gpu, full_wh.cpu - prefill_wh.cpu,
                                    full_wh.ram - prefill_wh.ram)
        prefill_lat = float(np.mean([r.latency_s for r in prefill]))
        full_lat = float(np.mean([r.latency_s for r in full]))
        flags = (NEGATIVE_DECODE,) if min(decode_wh) < 0 else ()
        if len({r.input_tokens for r in group}) > 1:
            flags += (MIXED_INPUT_TOKENS,)
        decompositions.append(PromptDecomposition(
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
            model_id=model_id,
            precision=precision,
            batch=batch,
        ))
    return decompositions, missing


def _assert_same_decomposition(records):
    got, want = decompose(as_table(records)), _decompose_oracle(records)
    assert got == want
    assert repr(got) == repr(want)  # repr tells -0.0 from 0.0 and shows every bit


_run = st.tuples(
    st.sampled_from(["p0", "p1", "p2"]),
    st.sampled_from(["m0", "m1"]),
    st.sampled_from(["fp32", "bf16"]),
    st.sampled_from([1, 2]),
    st.sampled_from([RunKind.PREFILL_ONLY, RunKind.FULL]),
    st.sampled_from([10, 500, 501]),
    st.integers(1, 300),
    st.floats(min_value=1e-6, max_value=1e4),
    st.lists(st.floats(min_value=0, max_value=10.0), min_size=3, max_size=3),
)


class TestDecomposeOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_run, max_size=60))
    def test_matches_the_per_group_loop(self, runs):
        records = [
            Run(pid, kind, s, 1 if kind is RunKind.PREFILL_ONLY else g, t, *energy,
                model, precision, batch)
            for pid, model, precision, batch, kind, s, g, t, energy in runs
        ]
        _assert_same_decomposition(records)

    def test_unequal_group_sizes_across_the_summation_blocks(self):
        # np.mean sums pairwise in blocks of 8 and 128: cover sizes around both
        rng = np.random.default_rng(5)
        sizes = [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 130, 255, 256, 257, 300]
        records = []
        for i, n_pre in enumerate(sizes):
            n_full = sizes[(i * 7) % len(sizes)]
            for kind, n in ((RunKind.PREFILL_ONLY, n_pre), (RunKind.FULL, n_full)):
                for _ in range(n):
                    records.append(Run(f"p{i}", kind, 100, 1 if kind is RunKind.PREFILL_ONLY else 40,
                                       *rng.uniform(1e-3, 5.0, 4).tolist()))
        rng.shuffle(records)
        records.append(record(prompt="only_full"))
        _assert_same_decomposition(records)

    def test_synthetic_trace(self, coeffs):
        plan = [(s, g) for s in (300, 900, 2500) for g in (0, 16, 200)]
        _assert_same_decomposition(rows_of(synthesize_trace(plan, coeffs, noise=0.05, seed=1, runs=9)))

    def test_empty(self):
        assert decompose(as_table([])) == ([], [])


# Values at each edge of the run checks, as int64 and float64 columns hold them
_EDGE_COUNTS = st.sampled_from([0, 1, 2, 2**63 - 1, -1, -(2**63)])
_EDGE_REALS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.0, float("inf"), -float("inf"), float("nan")])


class TestRunTable:
    """Every reader of runs gives, on a RunTable, what a selection row by row
    gives on the table's rows, and `decompose` what the per-group loop gives."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_run, max_size=60), st.integers(0, 3))
    def test_columns_and_records_read_alike(self, runs, k):
        records = [
            Run(pid, kind, s, 1 if kind is RunKind.PREFILL_ONLY else g, t, *energy,
                model, precision, batch)
            for pid, model, precision, batch, kind, s, g, t, energy in runs
        ]
        table = traces.RunTable.from_records(records)
        assert repr(rows_of(table)) == repr(records)
        decomps = decompose(table)
        assert repr(decomps) == repr(_decompose_oracle(records))
        prefill = [r for r in records if r.run_kind is RunKind.PREFILL_ONLY]
        decode = traces.decode_fit_rows(decomps[0])
        for component in ("gpu", "cpu", "ram", "total"):
            energy = [r.gpu_wh + r.cpu_wh + r.ram_wh if component == "total" else getattr(r, f"{component}_wh")
                      for r in prefill]
            want = FitSamples(s=[r.input_tokens for r in prefill] + [d.input_tokens for d in decode],
                              g=[0] * len(prefill) + [d.output_tokens for d in decode],
                              t=[r.latency_s for r in prefill] + [d.decode_latency_s for d in decode],
                              energy_wh=energy + [getattr(d.decode_wh, component) for d in decode])
            got = to_fit_samples(table, decomps[0], component)
            assert [repr(c.tolist()) for c in (got.s, got.g, got.t, got.energy_wh)] == \
                [repr(c.tolist()) for c in (want.s, want.g, want.t, want.energy_wh)]
        for phase in ("prefill", "full"):
            picked = [r for r in records if r.full is (phase == "full")]
            want = repr([[r.gpu_wh for r in picked], [r.cpu_wh for r in picked], [r.ram_wh for r in picked]]) \
                if picked else (EmptySelection, f"no items match phase {phase!r}")
            assert _outcome(phase_energies, table, phase) == want
        assert _outcome(phase_energies, table, "decode") == \
            (EmptySelection, "decode statistics require decompositions, not raw records")
        seen, kept = {}, []
        for r in records:  # each group's runs of each kind after its first k
            key = (r.prompt_id, r.model_id, r.precision, r.batch, r.run_kind)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > k:
                kept.append(r)
        assert repr(rows_of(drop_warmup(table, k))) == repr(kept)

    def test_columns_are_the_record_fields_in_order(self):
        assert [f.name for f in fields(traces.RunTable)] == \
            ["full" if name == "run_kind" else name for name in traces._FIELDS]

    @settings(max_examples=400, deadline=None)
    @given(full=st.booleans(), s=_EDGE_COUNTS, g=st.one_of(st.sampled_from([1, 2]), _EDGE_COUNTS),
           t=_EDGE_REALS, gpu=_EDGE_REALS, cpu=_EDGE_REALS, ram=_EDGE_REALS, batch=_EDGE_COUNTS)
    def test_faults_mark_a_run_exactly_when_its_record_is_refused(self, full, s, g, t, gpu, cpu, ram, batch):
        cells = ("p", RunKind.FULL if full else RunKind.PREFILL_ONLY, s, g, t, gpu, cpu, ram, "m", "fp32", batch)
        try:
            as_table([cells])
            refused = False
        except ValueError:
            refused = True
        table = traces._table([Run(*cells)])  # built unchecked
        assert traces._faults(table).any(axis=0).tolist() == [refused]

    def test_tables_compare_by_value(self):
        runs = [record("a", gpu=0.25), record("b", RunKind.PREFILL_ONLY, s=7, t=0.5)]
        table = as_table(runs)
        assert table == as_table(runs) and not table != as_table(runs)
        # one value changed in a column of each kind: text, the run kind, a count, a real
        for name, value in (("model_id", "n"), ("full", True), ("input_tokens", 8), ("latency_s", 0.75)):
            column = getattr(table, name).copy()
            column[1] = value
            other = replace(table, **{name: column})
            assert table != other and not table == other
        assert table != table.take(np.array([0])) and as_table([]) != table
        # -0.0 equals 0.0, as the values of two rows compare
        assert as_table([record(cpu=-0.0)]) == as_table([record(cpu=0.0)])
        for other in (runs, None, columns(table)):
            assert (table == other) is False and (table != other) is True

    def test_empty(self):
        table = traces.RunTable.from_records([])
        assert len(table) == 0 and columns(table) == [[]] * len(traces._FIELDS)
        assert decompose(table) == ([], []) and len(drop_warmup(table, 1)) == 0
        assert to_fit_samples(table, []).s.size == 0


def _outcome(fn, *args):
    try:
        return repr(fn(*args).tolist())  # repr shows every bit
    except InferwattError as exc:
        return type(exc), str(exc)


class TestDecomposeGrouping:
    def test_two_models_under_one_id_give_two_decompositions(self):
        records = []
        for model, s in (("small", 10), ("large", 500)):
            records += [
                Run("p", RunKind.PREFILL_ONLY, s, 1, 0.5, 0.1, 0.0, 0.0, model),
                Run("p", RunKind.FULL, s, 20, 2.0, 0.3, 0.0, 0.0, model),
            ]
        decomps, missing = decompose(as_table(records))
        assert not missing
        assert [(d.model_id, d.input_tokens, d.flags) for d in decomps] == [
            ("small", 10, ()), ("large", 500, ()),
        ]

    def test_precision_and_batch_split_groups(self):
        records = [
            Run("p", kind, 10, 1 if kind is RunKind.PREFILL_ONLY else 5, 1.0, 0.1, 0.0, 0.0,
                "m", precision, batch)
            for precision, batch in (("fp32", 1), ("bf16", 1), ("fp32", 4))
            for kind in RunKind
        ]
        decomps, _ = decompose(as_table(records))
        assert [(d.precision, d.batch) for d in decomps] == [("fp32", 1), ("bf16", 1), ("fp32", 4)]

    def test_disagreeing_input_tokens_flagged(self):
        records = [record(kind=RunKind.PREFILL_ONLY, s=100), record(s=120)]
        decomps, _ = decompose(as_table(records))
        assert decomps[0].flags == (MIXED_INPUT_TOKENS,)
        assert decomps[0].input_tokens == 120

    def test_missing_kind_reported_per_group(self):
        records = [
            Run("p", RunKind.FULL, 10, 5, 1.0, 0.1, 0.0, 0.0, "a"),
            Run("p", RunKind.PREFILL_ONLY, 10, 1, 1.0, 0.1, 0.0, 0.0, "b"),
        ]
        decomps, missing = decompose(as_table(records))
        assert not decomps
        assert missing == [MissingKind("p", RunKind.PREFILL_ONLY, "a"), MissingKind("p", RunKind.FULL, "b")]


def test_reference_fixture_matches_its_generator():
    # the generator script, loaded without running it: its runs must
    # serialize to the bundled fixture byte for byte
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_reference_fixture.py"
    spec = importlib.util.spec_from_file_location("make_reference_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert write_records(module.build_runs()) == REFERENCE_TEXT


@pytest.mark.parametrize("source", ["bundled", "synthesized"])
def test_the_benchmarks_table_contract(source, tmp_path):
    # What the trace-fit benchmark's check of each trace part relies on of the
    # table `parse_records` reads, step by step: a file and its text read
    # alike, to every run; the table writes back the file's text and reads
    # back equal; the formats' tables are equal; and it decomposes as the
    # table it was written from.
    assert parse_records is traces.read_runs
    if source == "bundled":
        table = traces.read_runs(REFERENCE_TEXT)[0]
    else:
        plan = [(s, g) for s in (128, 900, 4000) for g in (0, 16, 82)]
        table = synthesize_trace(plan, reference_coefficients(), noise=0.05, seed=11, runs=3)
    parsed = {}
    for fmt in ("delimited", "line-json"):
        path = tmp_path / f"trace.{fmt}"
        path.write_text(write_records(table, fmt), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        records, issues = parse_records(path, fmt)
        assert not issues and records == parse_records(text, fmt)[0]
        assert len(records) == len(table)
        assert write_records(records, fmt) == text
        again, issues = parse_records(write_records(records, fmt), fmt)
        assert again == records and not issues
        parsed[fmt] = records
    assert parsed["delimited"] == parsed["line-json"]
    assert decompose(parsed["delimited"]) == decompose(table)
    if source == "bundled":
        assert write_records(parsed["delimited"]) == REFERENCE_TEXT
