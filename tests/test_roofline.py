import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from inferwatt.errors import ConfigError
from inferwatt.kvconfig import parse_kv
from inferwatt.roofline import (
    Boundedness,
    HardwareProfile,
    OpCost,
    boundedness,
    effective_ceilings,
    op_latency,
    profile_from_kv,
    profile_to_kv,
    roofline_seconds,
)
from inferwatt.transformer_costs import ClassLatency


def make_hw(f_max=1.0e12, b_max=1.0e12, mu_comp=0.675, mu_mem=0.443):
    return HardwareProfile(f_max=f_max, b_max=b_max, mu_comp=mu_comp, mu_mem=mu_mem,
                           p_prefill=684.0, p_decode=293.0)


class TestEffectiveCeilings:
    def test_compute_ceiling_derated(self):
        f_eff, _ = effective_ceilings(make_hw(f_max=1.0e12, mu_comp=0.675))
        assert f_eff == pytest.approx(6.75e11)

    def test_memory_ceiling_derated(self):
        _, b_eff = effective_ceilings(make_hw(b_max=1.0e12, mu_mem=0.443))
        assert b_eff == pytest.approx(4.43e11)

    def test_identity_factors_leave_ceilings_unchanged(self):
        hw = make_hw(mu_comp=1.0, mu_mem=1.0)
        assert effective_ceilings(hw) == (hw.f_max, hw.b_max)


class TestOpLatency:
    def test_compute_dominates(self):
        hw = make_hw()
        f_eff, _ = effective_ceilings(hw)
        assert op_latency(OpCost(flops=f_eff, bytes=0), hw) == pytest.approx(1.0)

    def test_memory_dominates(self):
        hw = make_hw()
        _, b_eff = effective_ceilings(hw)
        assert op_latency(OpCost(flops=0, bytes=b_eff), hw) == pytest.approx(1.0)

    def test_memory_bound_branch_wins_the_max(self):
        hw = make_hw()
        f_eff, b_eff = effective_ceilings(hw)
        assert op_latency(OpCost(flops=f_eff, bytes=2 * b_eff), hw) == pytest.approx(2.0)


class TestBoundedness:
    def test_compute_bound(self):
        hw = make_hw()
        f_eff, b_eff = effective_ceilings(hw)
        assert boundedness(OpCost(2 * f_eff, b_eff), hw) is Boundedness.COMPUTE_BOUND

    def test_memory_bound(self):
        hw = make_hw()
        f_eff, b_eff = effective_ceilings(hw)
        assert boundedness(OpCost(f_eff, 2 * b_eff), hw) is Boundedness.MEMORY_BOUND

    def test_balanced_on_exact_tie(self):
        hw = make_hw(f_max=1e12, b_max=1e12, mu_comp=0.5, mu_mem=0.5)
        assert boundedness(OpCost(1e9, 1e9), hw) is Boundedness.BALANCED


def phase_total(ops, hw):
    """A phase's latency as the model sums it: per-class roofline latencies
    added with no compute/memory overlap."""
    flops, nbytes = (np.array([getattr(op, field) for op in ops]) for field in ("flops", "bytes"))
    return ClassLatency(flops, nbytes, np.array([op_latency(op, hw) for op in ops])).total_seconds


class TestTotalLatency:
    def test_two_unit_ops(self):
        hw = make_hw()
        f_eff, _ = effective_ceilings(hw)
        op = OpCost(flops=f_eff, bytes=0)
        assert phase_total([op, op], hw) == pytest.approx(2.0)

    def test_permutation_invariant(self):
        hw = make_hw()
        ops = [OpCost(1e9, 2e9), OpCost(5e8, 1e7), OpCost(0, 3e9)]
        assert phase_total(ops, hw) == pytest.approx(phase_total(ops[::-1], hw))


positive = st.floats(min_value=1e3, max_value=1e15, allow_nan=False)


@given(flops=positive, nbytes=positive)
def test_latency_is_the_larger_single_resource_time(flops, nbytes):
    hw = make_hw()
    f_eff, b_eff = effective_ceilings(hw)
    t = op_latency(OpCost(flops, nbytes), hw)
    assert t == max(flops / f_eff, nbytes / b_eff)
    assert t >= max(flops, nbytes) / max(f_eff, b_eff)


@given(st.lists(st.tuples(positive, positive), min_size=1, max_size=8))
def test_array_latency_is_op_latency_elementwise(pairs):
    hw = make_hw()
    flops, nbytes = np.array(pairs).T
    assert roofline_seconds(flops, nbytes, hw).tolist() == [op_latency(OpCost(f, b), hw) for f, b in pairs]


@given(flops=positive, nbytes=positive, extra=positive)
def test_monotone_in_both_resources(flops, nbytes, extra):
    hw = make_hw()
    base = op_latency(OpCost(flops, nbytes), hw)
    assert op_latency(OpCost(flops + extra, nbytes), hw) >= base
    assert op_latency(OpCost(flops, nbytes + extra), hw) >= base


@given(flops=positive, nbytes=positive, k=st.integers(min_value=-20, max_value=20))
def test_joint_scaling_is_exactly_linear(flops, nbytes, k):
    # powers of two keep the float arithmetic exact
    hw = make_hw()
    scale = math.ldexp(1.0, k)
    assert op_latency(OpCost(flops * scale, nbytes * scale), hw) == \
        scale * op_latency(OpCost(flops, nbytes), hw)


@given(st.lists(st.tuples(positive, positive), min_size=1, max_size=8))
def test_no_overlap_total_bounds_any_schedule(pairs):
    hw = make_hw()
    ops = [OpCost(f, b) for f, b in pairs]
    assert phase_total(ops, hw) >= max(op_latency(o, hw) for o in ops)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(f_max=0.0), dict(b_max=-1.0),
        dict(mu_comp=0.0), dict(mu_comp=1.5), dict(mu_mem=-0.1),
        dict(f_max=math.inf), dict(b_max=math.inf), dict(f_max=math.nan),
    ])
    def test_bad_profile_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_hw(**kwargs)

    def test_bad_powers_rejected(self):
        with pytest.raises(ValueError):
            HardwareProfile(f_max=1e12, b_max=1e12, p_prefill=0.0, p_decode=100.0)

    @pytest.mark.parametrize("powers", [(math.inf, 100.0), (100.0, math.inf), (math.nan, 100.0)])
    def test_nonfinite_powers_rejected(self, powers):
        with pytest.raises(ValueError):
            HardwareProfile(f_max=1e12, b_max=1e12, p_prefill=powers[0], p_decode=powers[1])

    def test_opcost_needs_work_or_traffic(self):
        with pytest.raises(ValueError):
            OpCost(flops=0, bytes=0)
        with pytest.raises(ValueError):
            OpCost(flops=-1, bytes=10)


class TestProfileConfig:
    def test_round_trip(self):
        hw = make_hw()
        kv = parse_kv("\n".join(f"{k} = {v}" for k, v in profile_to_kv(hw)))
        assert profile_from_kv(kv) == hw

    def test_efficiency_factors_default_when_omitted(self):
        kv = parse_kv("f_max = 1e12\nb_max = 1e12\np_prefill = 100\np_decode = 50\n")
        hw = profile_from_kv(kv)
        assert hw.mu_comp == 0.675 and hw.mu_mem == 0.443

    def test_unknown_key_rejected(self):
        kv = parse_kv("f_max = 1e12\nb_max = 1e12\np_prefill = 1\np_decode = 1\nbogus = 3\n")
        with pytest.raises(ConfigError):
            profile_from_kv(kv)

    def test_bundled_profile_loads(self, hw):
        assert hw.f_max == 6.7e13 and hw.b_max == 3.35e12
        assert hw.p_prefill == 684.0 and hw.p_decode == 293.0
