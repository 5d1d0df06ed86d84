import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferwatt.bundled import reference_trace_text
from inferwatt.errors import (
    BadEdges,
    EmptyInput,
    EmptySelection,
    InferwattError,
    UnknownFormat,
)
from inferwatt.traces import (
    NEGATIVE_DECODE,
    ComponentEnergy,
    RunKind,
    RunRecord,
    aggregate,
    decompose,
    drop_warmup,
    histogram,
    parse_records,
    synthesize_trace,
    to_fit_samples,
    write_records,
)

HEADER = "prompt_id,run_kind,input_tokens,output_tokens,latency_s,gpu_wh,cpu_wh,ram_wh,model_id,precision,batch"


def record(prompt="p0", kind=RunKind.FULL, s=100, g=20, t=1.0,
           gpu=0.3, cpu=0.02, ram=0.01):
    if kind is RunKind.PREFILL_ONLY:
        g = 1
    return RunRecord(prompt, kind, s, g, t, gpu, cpu, ram, "m", "fp32", 1)


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
        assert records[0].run_kind is RunKind.FULL
        assert records[0].latency_s == 1.5

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
        assert records[0].run_kind is RunKind.PREFILL_ONLY

    def test_order_preserved(self):
        rows = [f"p{i},full,100,20,1.5,0.3,0.02,0.01,m,fp32,1" for i in range(5)]
        records, _ = parse_records("\n".join([HEADER] + rows))
        assert [r.prompt_id for r in records] == [f"p{i}" for i in range(5)]


class TestRoundTrip:
    def test_reference_trace_round_trips(self):
        text = reference_trace_text()
        records, issues = parse_records(text)
        assert not issues
        assert write_records(records) == text
        again, _ = parse_records(write_records(records))
        assert again == records

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from([RunKind.PREFILL_ONLY, RunKind.FULL]),
            st.integers(min_value=1, max_value=10000),
            st.integers(min_value=1, max_value=300),
            st.floats(min_value=1e-6, max_value=1e4, allow_nan=False),
            st.floats(min_value=0, max_value=10.0, allow_nan=False),
        ),
        min_size=1, max_size=10,
    ))
    def test_random_records_round_trip_both_formats(self, rows):
        records = [
            RunRecord(f"p{i}", kind, s, 1 if kind is RunKind.PREFILL_ONLY else g,
                      t, e, e / 3, e / 7)
            for i, (kind, s, g, t, e) in enumerate(rows)
        ]
        for fmt in ("delimited", "line-json"):
            parsed, issues = parse_records(write_records(records, fmt), fmt)
            assert not issues
            assert parsed == records


class TestDropWarmup:
    def test_drops_first_k_per_prompt_and_kind(self):
        records = [record(prompt="a", t=float(i + 1)) for i in range(4)]
        records += [record(prompt="a", kind=RunKind.PREFILL_ONLY, t=9.0)]
        kept = drop_warmup(records, 2)
        assert [r.latency_s for r in kept if r.run_kind is RunKind.FULL] == [3.0, 4.0]
        assert len([r for r in kept if r.run_kind is RunKind.PREFILL_ONLY]) == 0


class TestDecompose:
    def test_direct_subtraction(self):
        records = [
            record(kind=RunKind.PREFILL_ONLY, gpu=0.10, cpu=0.0, ram=0.0, t=0.5),
            record(kind=RunKind.FULL, gpu=0.30, cpu=0.0, ram=0.0, t=2.0),
        ]
        decomps, missing = decompose(records)
        assert not missing
        assert decomps[0].decode_wh.gpu == pytest.approx(0.20)
        assert decomps[0].decode_latency_s == pytest.approx(1.5)

    def test_identical_runs_give_zero_decode(self):
        records = [
            record(kind=RunKind.PREFILL_ONLY, gpu=0.25, cpu=0.03, ram=0.01),
            record(kind=RunKind.FULL, gpu=0.25, cpu=0.03, ram=0.01),
        ]
        decomps, _ = decompose(records)
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
                records.append(RunRecord(prompt, RunKind.PREFILL_ONLY, 100, 1, 0.5,
                                         *prefill))
                records.append(RunRecord(prompt, RunKind.FULL, 100, 40, 2.0,
                                         prefill.gpu + decode.gpu,
                                         prefill.cpu + decode.cpu,
                                         prefill.ram + decode.ram))
        decomps, missing = decompose(records)
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
        decomps, missing = decompose(records)
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
        decomps, _ = decompose(records)
        assert decomps[0].decode_wh.gpu == pytest.approx(-0.10)
        assert NEGATIVE_DECODE in decomps[0].flags


class TestAggregate:
    def test_single_record_stats(self):
        stats = aggregate([record(gpu=0.4)], phase="full")
        gpu = stats.components["gpu"]
        assert gpu.mean == 0.4 and gpu.std == 0.0 and gpu.count == 1
        assert gpu.min == gpu.max == 0.4

    def test_reference_fixture_hits_published_means_exactly(self):
        records, issues = parse_records(reference_trace_text())
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
        assert aggregate(records).components["gpu"].mean == pytest.approx(
            aggregate(shuffled).components["gpu"].mean, rel=1e-12
        )

    def test_population_std(self):
        records = [record(prompt="a", gpu=0.1), record(prompt="b", gpu=0.3)]
        # population std of {0.1, 0.3} is 0.1 (sample std would be 0.1414)
        assert aggregate(records).components["gpu"].std == pytest.approx(0.1)

    def test_total_is_sum_of_component_means(self):
        records = [record(gpu=0.4, cpu=0.03, ram=0.02), record(gpu=0.2, cpu=0.01, ram=0.04)]
        stats = aggregate(records)
        assert stats.total_mean == pytest.approx(
            sum(stats.components[c].mean for c in ("gpu", "cpu", "ram"))
        )

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            aggregate([record()], phase="prefill")
        with pytest.raises(EmptySelection):
            aggregate([], phase="full")

    def test_decode_phase_needs_decompositions(self):
        with pytest.raises(EmptySelection):
            aggregate([record()], phase="decode")
        records = [record(kind=RunKind.PREFILL_ONLY, gpu=0.1), record(gpu=0.5)]
        decomps, _ = decompose(records)
        stats = aggregate(decomps, phase="decode")
        assert stats.components["gpu"].mean == pytest.approx(0.4)


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

    def test_empty_values(self):
        with pytest.raises(EmptyInput):
            histogram([], bins=3)


class TestToFitSamples:
    def test_record_mapping(self):
        records = [
            record(kind=RunKind.PREFILL_ONLY, s=200, t=0.4),
            record(kind=RunKind.FULL, s=200, g=50, t=2.0),
        ]
        samples = to_fit_samples(records)
        assert len(samples) == 2
        assert (samples[0].s, samples[0].g, samples[0].t) == (200, 0, 0.4)
        assert (samples[1].s, samples[1].g, samples[1].t) == (200, 50, 2.0)
        assert samples[1].energy_wh == pytest.approx(0.3 + 0.02 + 0.01)

    def test_component_selector(self):
        samples = to_fit_samples([record(gpu=0.5, cpu=0.04, ram=0.01)], component="gpu")
        assert samples[0].energy_wh == 0.5

    def test_empty_input_empty_output(self):
        assert to_fit_samples([]) == []

    def test_decompositions_yield_prefill_and_decode_samples(self):
        records = [
            record(kind=RunKind.PREFILL_ONLY, s=300, t=0.5, gpu=0.1, cpu=0.0, ram=0.0),
            record(kind=RunKind.FULL, s=300, g=64, t=2.5, gpu=0.6, cpu=0.0, ram=0.0),
        ]
        decomps, _ = decompose(records)
        samples = to_fit_samples(decomps, component="gpu")
        prefill = [s for s in samples if s.g == 0]
        decode = [s for s in samples if s.g > 0]
        assert prefill[0].t == pytest.approx(0.5) and prefill[0].energy_wh == pytest.approx(0.1)
        assert decode[0].g == 64
        assert decode[0].t == pytest.approx(2.0)
        assert decode[0].energy_wh == pytest.approx(0.5)


class TestSynthesizeTrace:
    def test_noiseless_decompose_recovers_polynomials(self, coeffs):
        from inferwatt.phase_model import (
            eval_decode_energy,
            eval_decode_latency,
        )
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


class TestRecordValidation:
    def test_prefill_only_single_output_token(self):
        with pytest.raises(ValueError):
            RunRecord("p", RunKind.PREFILL_ONLY, 10, 5, 1.0, 0.1, 0.0, 0.0)

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ValueError):
            RunRecord("p", RunKind.FULL, 10, 5, 0.0, 0.1, 0.0, 0.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            RunRecord("p", RunKind.FULL, 10, 5, 1.0, -0.1, 0.0, 0.0)

    @pytest.mark.parametrize("latency", [float("inf"), float("nan")])
    def test_non_finite_latency_rejected(self, latency):
        with pytest.raises(ValueError):
            RunRecord("p", RunKind.FULL, 10, 5, latency, 0.1, 0.0, 0.0)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_energy_rejected(self, position, value):
        energies = [0.1, 0.01, 0.01]
        energies[position] = value
        with pytest.raises(ValueError):
            RunRecord("p", RunKind.FULL, 10, 5, 1.0, *energies)

    def test_non_finite_cell_is_a_parse_issue(self):
        text = HEADER + "\np,full,10,5,1.0,nan,0.0,0.0,m,fp32,1\np,full,10,5,1.0,0.1,0.0,0.0,m,fp32,1\n"
        records, issues = parse_records(text)
        assert len(records) == 1 and [i.line for i in issues] == [2]
