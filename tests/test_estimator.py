import itertools

import pytest

from inferwatt.bundled import qwen_family, reference_trace_text
from inferwatt.estimator import (
    AnalyticSource,
    FittedSource,
    WorkloadEntry,
    WorkloadSpec,
    compare_models,
    estimate_interaction,
    estimate_workload,
    fleet_extrapolate,
    led_equivalent_minutes,
)
from inferwatt.traces import aggregate, parse_records


class TestEstimateInteraction:
    def test_fitted_breakdown_at_reference_point(self, coeffs):
        breakdown = estimate_interaction(FittedSource(coeffs), 1000, 100)
        assert breakdown.prefill_wh == pytest.approx(6.55e-2, abs=1e-12)
        assert breakdown.decode_wh == pytest.approx(0.23699, abs=1e-12)
        assert breakdown.total_wh == pytest.approx(0.30249, abs=1e-12)
        assert not breakdown.warnings

    def test_total_is_exactly_additive(self, coeffs, llama8b, hw):
        for source in (FittedSource(coeffs), AnalyticSource(llama8b, hw)):
            b = estimate_interaction(source, 512, 64)
            assert b.total_wh == b.prefill_wh + b.decode_wh

    def test_out_of_range_warning_propagates_with_totals(self, coeffs):
        breakdown = estimate_interaction(FittedSource(coeffs), 1, 1)
        assert breakdown.warnings
        assert breakdown.total_wh == breakdown.prefill_wh + breakdown.decode_wh

    def test_provenance_recorded(self, coeffs, llama8b, hw):
        assert "fitted" in estimate_interaction(FittedSource(coeffs), 100, 10).provenance
        assert "roofline" in estimate_interaction(AnalyticSource(llama8b, hw), 100, 10).provenance

    def test_analytic_and_fitted_sources_track_each_other(self, coeffs, llama8b, hw):
        # Cross-source agreement over the working grid. The worst corner
        # (s=4000, g=256) sits at ~30.3% because the fitted context slope d
        # is ~10x the power-implied value of theta (the consistency report
        # flags exactly this pair); everywhere else is well inside 30%.
        ana, fit = AnalyticSource(llama8b, hw), FittedSource(coeffs)
        devs = {}
        for s, g in itertools.product([500, 1000, 2000, 4000], [16, 64, 128, 256]):
            a = estimate_interaction(ana, s, g).total_wh
            f = estimate_interaction(fit, s, g).total_wh
            devs[(s, g)] = abs(a - f) / f
        assert max(devs.values()) < 0.31
        assert devs[(4000, 256)] == max(devs.values())
        assert all(d < 0.30 for point, d in devs.items() if point != (4000, 256))
        assert sum(devs.values()) / len(devs) < 0.20


class TestEstimateWorkload:
    def test_single_entry_equals_interaction(self, coeffs):
        source = FittedSource(coeffs)
        mean, per_entry = estimate_workload(source, WorkloadSpec.single(800, 50))
        direct = estimate_interaction(source, 800, 50)
        assert mean.total_wh == pytest.approx(direct.total_wh)
        assert len(per_entry) == 1

    def test_two_equal_weights_average(self, coeffs):
        source = FittedSource(coeffs)
        workload = WorkloadSpec((WorkloadEntry(500, 20), WorkloadEntry(1500, 60)))
        mean, _ = estimate_workload(source, workload)
        a = estimate_interaction(source, 500, 20)
        b = estimate_interaction(source, 1500, 60)
        assert mean.prefill_wh == pytest.approx((a.prefill_wh + b.prefill_wh) / 2)
        assert mean.decode_wh == pytest.approx((a.decode_wh + b.decode_wh) / 2)

    def test_weights_respected(self, coeffs):
        source = FittedSource(coeffs)
        workload = WorkloadSpec((WorkloadEntry(500, 20, weight=3.0), WorkloadEntry(1500, 60, weight=1.0)))
        mean, _ = estimate_workload(source, workload)
        a = estimate_interaction(source, 500, 20)
        b = estimate_interaction(source, 1500, 60)
        assert mean.total_wh == pytest.approx((3 * a.total_wh + b.total_wh) / 4)

    def test_parametric_workload_matches_fixture_scale(self, coeffs):
        # a parametric workload shaped like the bundled reference trace
        # reproduces its measured mean interaction energy to ~10%
        records, _ = parse_records(reference_trace_text())
        measured = aggregate(records, phase="full").total_mean
        workload = WorkloadSpec.parametric(900, 50, 82, 6, count=500, seed=11)
        mean, _ = estimate_workload(FittedSource(coeffs), workload)
        assert abs(mean.total_wh - measured) / measured < 0.10

    def test_parametric_deterministic(self):
        a = WorkloadSpec.parametric(900, 50, 82, 6, count=50, seed=5)
        b = WorkloadSpec.parametric(900, 50, 82, 6, count=50, seed=5)
        assert a == b


class TestLedEquivalent:
    def test_reference_interaction(self):
        assert led_equivalent_minutes(0.245) == pytest.approx(2.94, abs=1e-12)

    def test_zero(self):
        assert led_equivalent_minutes(0.0) == 0.0

    def test_unit_identity(self):
        assert led_equivalent_minutes(5.0, led_watts=5.0) == pytest.approx(60.0)

    def test_linear(self):
        assert led_equivalent_minutes(0.490) == pytest.approx(2 * led_equivalent_minutes(0.245))

    @pytest.mark.parametrize("wh", [1e308, float("inf")])
    def test_overflow_is_loud(self, wh):
        with pytest.raises(OverflowError):
            led_equivalent_minutes(wh)


class TestFleetExtrapolate:
    def test_reference_scale(self):
        kwh_day, mwh_year = fleet_extrapolate(0.245, 1e9)
        assert kwh_day == pytest.approx(245000.0)
        assert mwh_year == pytest.approx(245000.0 * 365.25 / 1000)

    def test_zero_interactions(self):
        assert fleet_extrapolate(0.245, 0) == (0.0, 0.0)

    def test_unit_case(self):
        assert fleet_extrapolate(1.0, 1000)[0] == pytest.approx(1.0)

    def test_absurd_inputs_overflow_loudly(self):
        with pytest.raises(OverflowError):
            fleet_extrapolate(1e308, 1e9)

    def test_linear_in_energy(self):
        one = fleet_extrapolate(0.1, 1e6)
        two = fleet_extrapolate(0.2, 1e6)
        assert two[0] == pytest.approx(2 * one[0])
        assert two[1] == pytest.approx(2 * one[1])


class TestCompareModels:
    def test_single_spec_single_row(self, llama8b, hw):
        comparison = compare_models([llama8b], hw, WorkloadSpec.single(900, 82))
        assert len(comparison.rows) == 1
        assert comparison.rows[0].n_params == llama8b.n_params

    def test_family_energy_strictly_increasing(self, hw):
        comparison = compare_models(qwen_family(), hw, WorkloadSpec.single(900, 82))
        totals = [r.mean_total_wh for r in comparison.rows]
        assert all(b > a for a, b in zip(totals, totals[1:]))
        params = [r.n_params for r in comparison.rows]
        assert params == sorted(params)

    def test_output_length_band_narrower_than_size_spread(self, hw):
        # varying g from 64 to 256 at fixed size moves energy less than
        # going from the smallest to the largest family member at fixed g
        family = qwen_family()
        comparison = compare_models(family, hw, WorkloadSpec.single(900, 82),
                                    contour_g=(64, 128, 256))
        by_model = {}
        for p in comparison.grid:
            by_model.setdefault(p.name, []).append(p.decode_wh)
        mid = family[2].name
        g_band = max(by_model[mid]) - min(by_model[mid])
        at_g64 = {p.name: p.decode_wh for p in comparison.grid if p.g == 64}
        size_spread = max(at_g64.values()) - min(at_g64.values())
        assert g_band < size_spread

    def test_grid_covers_all_models_and_lengths(self, hw):
        comparison = compare_models(qwen_family(), hw, WorkloadSpec.single(900, 82),
                                    contour_g=(16, 64))
        assert len(comparison.grid) == len(qwen_family()) * 2


class TestWorkloadValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(())

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            WorkloadEntry(0, 10)
        with pytest.raises(ValueError):
            WorkloadEntry(10, 10, weight=0.0)
        with pytest.raises(ValueError):
            WorkloadEntry(10, 10, weight=float("inf"))

    def test_fitted_source_needs_energy_families(self, coeffs):
        from inferwatt.errors import InferwattError
        from inferwatt.phase_model import CoefficientSet
        with pytest.raises(InferwattError):
            FittedSource(CoefficientSet(prefill_latency=coeffs.prefill_latency))
