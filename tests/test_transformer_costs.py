import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferwatt import transformer_costs
from inferwatt.bundled import bundled_model, qwen_family
from inferwatt.errors import ConfigError
from inferwatt.kvconfig import parse_kv
from inferwatt.estimator import WorkloadSpec, compare_models
from inferwatt.roofline import HardwareProfile, OpCost, effective_ceilings, op_latency, roofline_seconds
from inferwatt.transformer_costs import (
    LABELS,
    ClassLatency,
    ModelSpec,
    _compute_bound_steps,
    _term_table,
    class_latencies,
    decode_step_costs,
    model_from_kv,
    predict_decode_latency,
    predict_prefill_latency,
)


# Private oracle copies of the byte counts the decode step charges
def weight_bytes(model: ModelSpec) -> float:
    """Total parameter footprint in bytes."""
    return model.n_params * model.bytes_per_param


def kv_cache_bytes(model: ModelSpec, tokens: int) -> float:
    """Bytes of cached K and V tensors covering `tokens` positions."""
    return 2.0 * tokens * model.n_layers * model.kv_dim * model.bytes_per_param


def tiny_model(**overrides):
    kwargs = dict(n_layers=4, hidden=256, n_heads=4, head_dim=64, ffn_dim=1024, vocab=1000)
    kwargs.update(overrides)
    return ModelSpec(**kwargs)


def by_label(costs):
    return {c.label: c for c in costs}


def prefill_rows(model, s, hw):
    """Per-class prefill costs as OpCosts, from the rows of `class_latencies`."""
    prefill = class_latencies(model, hw, s, 1)[0]
    return [OpCost(f, b, label) for label, f, b in zip(LABELS, prefill.flops.tolist(), prefill.bytes.tolist())]


def _decode_latency_oracle(model, hw, s, g):
    """The per-token loop: sums per-step rooflines over steps t = 1..g at
    context s + t - 1. The closed form in predict_decode_latency must agree."""
    flops, traffic, seconds = (np.zeros(len(LABELS)) for _ in range(3))
    for step in range(1, g + 1):
        costs = decode_step_costs(model, s + step - 1)
        assert [cost.label for cost in costs] == list(LABELS)
        for i, cost in enumerate(costs):
            flops[i] += cost.flops
            traffic[i] += cost.bytes
            seconds[i] += op_latency(cost, hw)
    return ClassLatency(flops, traffic, seconds)


# The class costs written out expression by expression, as they were before
# the term table, and `class_latencies` evaluated from them with its own
# copies of the closed form's series and crossover helpers, as they were
# before the decode sums shared an index sum: the oracles the table and the
# closed form are checked against, bitwise.
_Dims = namedtuple("_Dims", "n h kv heads ffn vocab bpp mats width embed qkv_bytes out_bytes ffn_bytes head")


def _dims(model):
    h, kv, ffn, bpp, mats = model.hidden, model.kv_dim, model.ffn_dim, model.bytes_per_param, model.ffn_matrices
    head = model.vocab * h * bpp
    return _Dims(model.n_layers, h, kv, model.n_heads, ffn, model.vocab, bpp, mats, h + 2 * kv,
                 0.0 if model.tied_embeddings else head, (h * h + 2 * h * kv) * bpp, h * h * bpp,
                 mats * h * ffn * bpp, head)


@np.errstate(all="ignore")
def _class_costs(model, tokens, span):
    """FLOPs and bytes of the classes in LABELS for a pass over `tokens`
    positions attending over `span` positions, as stacks with one row per class."""
    n, h, kv, heads, ffn, vocab, bpp, mats, width, embed, qkv_bytes, out_bytes, ffn_bytes, head = _dims(model)
    t = np.asarray(tokens, dtype=float)
    span = np.asarray(span, dtype=float)
    th = t * h
    flops = (
        0.0 * t,
        n * (2.0 * t * h * width + transformer_costs.NORM_FLOPS_PER_ELEMENT * th),
        n * (4.0 * t * span * h + transformer_costs.SOFTMAX_FLOPS_PER_SCORE * t * span * heads),
        n * 2.0 * t * h * h,
        n * (mats * 2.0 * t * h * ffn + transformer_costs.NORM_FLOPS_PER_ELEMENT * th),
        2.0 * t * h * vocab,
    )
    nbytes = (
        embed + th * bpp,
        n * (qkv_bytes + th * bpp + t * width * bpp),
        n * (th + 2 * span * kv) * bpp + n * t * h * bpp,
        n * (out_bytes + 2 * th * bpp),
        n * (ffn_bytes + ((mats - 1) * th + t * ffn) * bpp + ((mats - 1) * t * ffn + th) * bpp),
        head + th * bpp + t * vocab * bpp,
    )
    return np.stack(flops), np.stack(nbytes)


def _oracle_table(model):
    """The term table's rows a, b, c, e, k, read off the oracle at (tokens, span) = (0 or 1, 0 or 1)."""
    flops, nbytes = _class_costs(model, [0, 1, 0, 1], [0, 0, 1, 1])
    return np.stack([flops[:, 1], flops[:, 3] - flops[:, 1],
                     nbytes[:, 0], nbytes[:, 1] - nbytes[:, 0], nbytes[:, 2] - nbytes[:, 0]])


def _series_oracle(v0, v1, lo, hi):
    """Sum of v0 + v1*j over the integers j in [lo, hi), elementwise, with
    the index sum formed in float64."""
    n = hi - lo
    return n * v0 + v1 * (np.multiply(lo + hi - 1, n, dtype=float) / 2)


def _compute_bound_steps_oracle(d0, d1, g):
    """Elementwise, the steps j in [lo, hi) of 0..g-1 where d0 + d1*j > 0."""
    flat = d1 == 0
    cross = np.minimum(np.maximum(-d0 / np.where(flat, 1.0, d1), -1.0), g)
    rising = d1 > 0
    first = np.minimum(g, np.floor(cross).astype(np.int64) + 1)
    lo = np.where(flat, np.where(d0 > 0, 0, g), np.where(rising, first, 0))
    hi = np.where(flat | rising, g, np.maximum(0, np.ceil(cross).astype(np.int64)))
    return lo, hi


@np.errstate(all="ignore")
def _class_latencies_oracle(model, hw, s, g):
    """`class_latencies` of one model from the oracle's costs: the prefill and
    the decode steps at contexts s and s + 1, the slopes their differences."""
    s, g = np.asarray(s), np.asarray(g)
    one = np.ones_like(s)
    flops, nbytes = _class_costs(model, np.stack([s, one, one]), np.stack([s, s, s + 1]))
    prefill = ClassLatency(flops[:, 0], nbytes[:, 0], roofline_seconds(flops[:, 0], nbytes[:, 0], hw))
    f_eff, b_eff = effective_ceilings(hw)
    f0, b0 = flops[:, 1], nbytes[:, 1]
    df, db = flops[:, 2] - f0, nbytes[:, 2] - b0
    c0, c1 = f0 / f_eff, df / f_eff
    m0, m1 = b0 / b_eff, db / b_eff
    lo, hi = _compute_bound_steps_oracle(c0 - m0, c1 - m1, g)
    series = _series_oracle
    seconds = series(m0, m1, 0, lo) + series(c0, c1, lo, hi) + series(m0, m1, hi, g)
    return prefill, ClassLatency(series(f0, df, 0, g), series(b0, db, 0, g), seconds)


def _assert_bitwise(got, want):
    for phase_got, phase_want in zip(got, want):
        for field, x, y in zip(ClassLatency._fields, phase_got, phase_want):
            assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


class TestModelSpec:
    def test_llama_8b_parameter_count(self, llama8b):
        # embed + 32 * (qkv + out + gated ffn) + head, norms omitted
        expect = (
            128256 * 4096
            + 32 * (4096 * 4096 + 2 * 4096 * 1024 + 4096 * 4096 + 3 * 4096 * 14336)
            + 128256 * 4096
        )
        assert llama8b.n_params == expect == 8029995008

    def test_head_geometry_enforced(self):
        with pytest.raises(ValueError):
            tiny_model(n_heads=3)

    def test_kv_heads_must_divide(self):
        with pytest.raises(ValueError):
            tiny_model(kv_heads=3)
        assert tiny_model(kv_heads=2).kv_dim == 128

    def test_dimensions_must_be_positive_integers(self):
        with pytest.raises(ValueError):
            tiny_model(vocab=0)
        with pytest.raises(ValueError):
            tiny_model(hidden=256.0, n_heads=4)

    @pytest.mark.parametrize("bpp", [0.0, -1.0, float("inf"), float("nan")])
    def test_bytes_per_param_must_be_positive_and_finite(self, bpp):
        with pytest.raises(ValueError):
            tiny_model(bytes_per_param=bpp)

    def test_all_bool_dimensions_rejected(self):
        # True == 1 passes every arithmetic check, and would count 8 parameters
        with pytest.raises(ValueError, match=r"^n_layers must be a positive integer, got True$"):
            ModelSpec(n_layers=True, hidden=True, n_heads=True, head_dim=True, ffn_dim=True, vocab=True,
                      kv_heads=True)

    @pytest.mark.parametrize("key,message", [
        *((key, f"{key} must be a positive integer, got True")
          for key in ("n_layers", "hidden", "n_heads", "head_dim", "ffn_dim", "vocab")),
        ("kv_heads", "kv_heads must be in [1, n_heads]"),
        ("bytes_per_param", "bytes_per_param must be positive and finite"),
    ])
    def test_bool_field_rejected(self, key, message):
        # each field True on a model where 1 is otherwise valid for it
        dims = dict(n_layers=1, hidden=1, n_heads=1, head_dim=1, ffn_dim=1, vocab=1, kv_heads=1)
        ModelSpec(**dims, bytes_per_param=1)
        with pytest.raises(ValueError) as error:
            ModelSpec(**{**dims, "bytes_per_param": 1, key: True})
        assert str(error.value) == message

    def test_tied_embeddings_counted_once(self):
        untied = tiny_model()
        tied = tiny_model(tied_embeddings=True)
        assert untied.n_params - tied.n_params == untied.vocab * untied.hidden

    def test_bundled_family_sizes_match_names(self):
        # each spec's parameter count should round to its nameplate size
        sizes = {"qwen25-0.5b-fp32": 0.5e9, "qwen25-1.5b-fp32": 1.5e9,
                 "qwen25-3b-fp32": 3e9, "qwen25-7b-fp32": 7e9, "qwen25-14b-fp32": 14e9}
        for spec in qwen_family():
            assert spec.n_params == pytest.approx(sizes[spec.name], rel=0.15)

    def test_config_round_trip(self):
        kv = parse_kv(
            "n_layers = 4\nhidden = 256\nn_heads = 4\nhead_dim = 64\n"
            "ffn_dim = 1024\nvocab = 1000\nkv_heads = 2\ngated_ffn = true\n"
        )
        spec = model_from_kv(kv)
        assert spec.kv_heads == 2 and spec.gated_ffn

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError):
            model_from_kv(parse_kv("n_layers = 4\nbogus = 1\n"))


class TestPrefillCosts:
    def test_matmul_counting_rule(self, hw):
        # attn_out_proj is a bare (s x h) @ (h x h) matmul per layer:
        # 2*m*n*k with no folded constants
        m = tiny_model()
        s = 17
        cost = by_label(prefill_rows(m, s, hw))["attn_out_proj"]
        assert cost.flops == m.n_layers * 2 * s * m.hidden * m.hidden

    def test_per_token_flops_close_to_twice_param_count(self, llama8b, hw):
        # brute-force class sum at s=1 vs the 2*n_params rule of thumb
        # (the embedding contributes parameters but no multiply-adds)
        flops = sum(c.flops for c in prefill_rows(llama8b, 1, hw))
        assert flops == pytest.approx(2 * llama8b.n_params, rel=0.10)

    def test_doubling_hidden_quadruples_projection_flops(self, llama8b, hw):
        wide = ModelSpec(n_layers=32, hidden=8192, n_heads=64, head_dim=128,
                         kv_heads=16, ffn_dim=28672, vocab=128256, gated_ffn=True)
        s = 64
        for label in ("qkv_proj", "attn_out_proj", "ffn"):
            a = by_label(prefill_rows(llama8b, s, hw))[label].flops
            b = by_label(prefill_rows(wide, s, hw))[label].flops
            # the folded norm constants are linear in h, hence the loose digit
            assert b / a == pytest.approx(4.0, rel=1e-3)

    def test_flops_linear_in_s_except_attention(self, llama8b, hw):
        s_grid = np.array([128, 256, 512, 1024, 2048], dtype=float)
        per_class = {}
        for s in s_grid:
            for c in prefill_rows(llama8b, int(s), hw):
                per_class.setdefault(c.label, []).append(c.flops)
        for label, flops in per_class.items():
            y = np.array(flops)
            if label == "embed":
                continue
            if label == "attn":
                # pure quadratic: zero residual against s^2 alone
                coef = np.vstack([s_grid**2]).T
                beta, *_ = np.linalg.lstsq(coef, y, rcond=None)
                assert np.allclose(coef @ beta, y, rtol=1e-12)
            else:
                coef = np.vstack([s_grid, np.ones_like(s_grid)]).T
                beta, *_ = np.linalg.lstsq(coef, y, rcond=None)
                assert np.allclose(coef @ beta, y, rtol=1e-12)
                assert beta[1] == pytest.approx(0.0, abs=1e-3)


class TestDecodeStepCosts:
    def test_kv_cache_for_single_token_context(self):
        m = tiny_model()  # kv_heads defaults to n_heads, so kv_dim == hidden
        assert kv_cache_bytes(m, 1) == 2 * m.n_layers * m.hidden * m.bytes_per_param

    def test_kv_cache_respects_grouped_heads(self):
        m = tiny_model(kv_heads=2)
        assert kv_cache_bytes(m, 10) == 2 * 10 * m.n_layers * 2 * 64 * m.bytes_per_param

    def test_weight_read_is_parameter_footprint(self, llama8b):
        assert weight_bytes(llama8b) == llama8b.n_params * 4
        assert weight_bytes(llama8b) == pytest.approx(3.2e10, rel=5e-3)

    def test_step_bytes_contain_full_weight_read(self, llama8b):
        total = sum(c.bytes for c in decode_step_costs(llama8b, 1000))
        assert total > weight_bytes(llama8b)
        # everything beyond weights is KV cache plus context-free activations
        overhead = total - weight_bytes(llama8b) - kv_cache_bytes(llama8b, 1000)
        assert 0 < overhead < 0.01 * weight_bytes(llama8b)

    def test_cache_term_linear_in_context(self, llama8b):
        b1 = sum(c.bytes for c in decode_step_costs(llama8b, 1000))
        b2 = sum(c.bytes for c in decode_step_costs(llama8b, 2000))
        assert b2 - b1 == kv_cache_bytes(llama8b, 1000)

    def test_weight_and_activation_bytes_context_free(self, llama8b):
        # subtracting the cache leaves the same bytes at any context length
        for ctx in (1, 500, 5000):
            residue = sum(c.bytes for c in decode_step_costs(llama8b, ctx)) - kv_cache_bytes(llama8b, ctx)
            if ctx == 1:
                base = residue
            assert residue == pytest.approx(base, rel=1e-12)

    def test_rejects_zero_context(self):
        with pytest.raises(ValueError):
            decode_step_costs(tiny_model(), 0)


class TestBoundednessOnReferenceHardware:
    # compute time FLOPs/f_eff against memory time bytes/b_eff, per class
    @pytest.mark.parametrize("s", [100, 1000, 4000])
    def test_prefill_matmul_classes_compute_bound(self, llama8b, hw, s):
        f_eff, b_eff = effective_ceilings(hw)
        for cost in prefill_rows(llama8b, s, hw):
            if cost.flops > 0:
                assert cost.flops / f_eff > cost.bytes / b_eff, cost.label

    @pytest.mark.parametrize("ctx", [1, 100, 1000, 8000])
    def test_decode_classes_all_memory_bound(self, llama8b, hw, ctx):
        f_eff, b_eff = effective_ceilings(hw)
        for cost in decode_step_costs(llama8b, ctx):
            assert cost.flops / f_eff < cost.bytes / b_eff, cost.label


class TestPredictPrefill:
    def test_total_is_roofline_sum_over_classes(self, llama8b, hw):
        s = 777
        breakdown = predict_prefill_latency(llama8b, hw, s)
        assert breakdown.total_seconds == pytest.approx(
            sum(op_latency(c, hw) for c in prefill_rows(llama8b, s, hw)), rel=1e-12
        )
        assert breakdown.total_seconds == pytest.approx(sum(breakdown.seconds.tolist()), rel=1e-12)

    def test_rejects_empty_prompt(self, hw):
        with pytest.raises(ValueError):
            predict_prefill_latency(tiny_model(), hw, 0)

    def test_per_token_slope_near_reference_alpha(self, llama8b, hw, coeffs):
        t_lo = predict_prefill_latency(llama8b, hw, 900).total_seconds
        t_hi = predict_prefill_latency(llama8b, hw, 1100).total_seconds
        slope = (t_hi - t_lo) / 200
        assert abs(slope / coeffs.prefill_latency.alpha - 1) < 0.25

    def test_nearly_linear_in_the_linear_regime(self, llama8b, hw):
        t1 = predict_prefill_latency(llama8b, hw, 1000).total_seconds
        t2 = predict_prefill_latency(llama8b, hw, 2000).total_seconds
        assert t2 < 2.2 * t1

    def test_dominant_class_is_a_matmul(self, llama8b, hw):
        assert predict_prefill_latency(llama8b, hw, 2000).dominant_class in ("ffn", "qkv_proj")


class TestPredictDecode:
    def test_single_step_matches_step_costs(self, llama8b, hw):
        one = predict_decode_latency(llama8b, hw, 1000, 1)
        assert one.total_seconds == pytest.approx(
            sum(op_latency(c, hw) for c in decode_step_costs(llama8b, 1000)), rel=1e-12
        )

    def test_per_token_cost_near_reference_eta(self, llama8b, hw, coeffs):
        per_token = predict_decode_latency(llama8b, hw, 1000, 100).total_seconds / 100
        assert abs(per_token / coeffs.decode_latency.eta - 1) < 0.25

    def test_strictly_increasing_in_g(self, llama8b, hw):
        totals = [predict_decode_latency(llama8b, hw, 500, g).total_seconds for g in (1, 2, 8, 32)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_convex_in_g_from_growing_context(self, llama8b, hw):
        t = {g: predict_decode_latency(llama8b, hw, 1000, g).total_seconds for g in (100, 200, 300)}
        assert t[300] - t[200] > t[200] - t[100]

    def test_step_latency_nondecreasing_in_context(self, llama8b, hw):
        steps = [sum(op_latency(c, hw) for c in decode_step_costs(llama8b, ctx))
                 for ctx in (1, 10, 100, 1000, 10000)]
        assert all(b >= a for a, b in zip(steps, steps[1:]))

    def test_latency_lies_in_the_polynomial_family(self, llama8b, hw):
        # fitting {g, s*g, g^2, 1} reproduces the analytic totals to
        # floating-point precision: the model really is that polynomial
        s = 1000
        g_grid = np.arange(8, 257, 8, dtype=float)
        y = np.array([predict_decode_latency(llama8b, hw, s, int(g)).total_seconds for g in g_grid])
        basis = np.column_stack([g_grid, s * g_grid, g_grid**2, np.ones_like(g_grid)])
        beta, *_ = np.linalg.lstsq(basis, y, rcond=None)
        residual = np.max(np.abs(y - basis @ beta))
        assert residual < 1e-3 * np.max(y) * 0.001  # 0.1% of 0.1% headroom


def _assert_matches_oracle(model, hw, s, g):
    closed = predict_decode_latency(model, hw, s, g)
    oracle = _decode_latency_oracle(model, hw, s, g)
    for field in ("seconds", "flops", "bytes"):
        for label, got, want in zip(LABELS, getattr(closed, field).tolist(), getattr(oracle, field).tolist()):
            assert got == pytest.approx(want, rel=1e-12, abs=0), (field, label)
    assert closed.dominant_class == oracle.dominant_class


@st.composite
def small_models(draw):
    head_dim = draw(st.sampled_from([8, 16, 32, 64]))
    n_heads = draw(st.integers(1, 8))
    kv_heads = draw(st.sampled_from([d for d in range(1, n_heads + 1) if n_heads % d == 0]))
    return ModelSpec(
        n_layers=draw(st.integers(1, 4)),
        hidden=n_heads * head_dim,
        n_heads=n_heads,
        head_dim=head_dim,
        ffn_dim=draw(st.integers(1, 1024)),
        vocab=draw(st.integers(1, 4000)),
        bytes_per_param=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
        kv_heads=kv_heads,
        gated_ffn=draw(st.booleans()),
        tied_embeddings=draw(st.booleans()),
    )


def _attn_intensity(model, ctx):
    cost = by_label(decode_step_costs(model, ctx))["attn"]
    return cost.flops / cost.bytes


class TestClosedFormDecode:
    @settings(max_examples=40, deadline=None)
    @given(model=small_models(), s=st.integers(1, 2000), g=st.integers(2, 5000),
           where=st.floats(0.0, 1.0), mu=st.sampled_from([(1.0, 1.0), (0.675, 0.443)]))
    def test_matches_oracle_across_a_crossover(self, model, s, g, where, mu):
        # the attention class's FLOPs per byte grow with the context, so a
        # device balance between its first- and last-step intensity makes
        # that class switch from memory- to compute-bound during generation
        lo, hi = _attn_intensity(model, s), _attn_intensity(model, s + g - 1)
        balance = lo + where * (hi - lo)
        b_max = 1e12
        hw = HardwareProfile(f_max=balance * b_max * mu[1] / mu[0], b_max=b_max,
                             mu_comp=mu[0], mu_mem=mu[1])
        _assert_matches_oracle(model, hw, s, g)

    @pytest.mark.parametrize("s,g", [(1, 1), (900, 82), (1000, 4096), (10, 20000)])
    def test_matches_oracle_on_reference_hardware(self, llama8b, hw, s, g):
        _assert_matches_oracle(llama8b, hw, s, g)

    def test_step_evaluations_independent_of_g(self, llama8b, hw, monkeypatch):
        # one term table covers the prefill and every decode step, whatever g is
        calls = []
        real = transformer_costs._term_table

        def counting(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(transformer_costs, "_term_table", counting)
        for g in (1, 100, 10000):
            calls.clear()
            predict_decode_latency(llama8b, hw, 500, g)
            assert calls == [llama8b]

    @pytest.mark.parametrize("s,g", [(0, 5), (5, 0)])
    def test_rejects_empty_prompt_or_generation(self, llama8b, hw, s, g):
        with pytest.raises(ValueError):
            predict_decode_latency(llama8b, hw, s, g)

    @pytest.mark.parametrize("s,g", [(2**53, 5), (5, 2**53), (2**70, 5)])
    def test_token_counts_beyond_float_exactness_overflow(self, llama8b, hw, s, g):
        with pytest.raises(OverflowError, match="implausibly large"):
            predict_decode_latency(llama8b, hw, s, g)
        if s > 5:
            with pytest.raises(OverflowError, match="implausibly large"):
                predict_prefill_latency(llama8b, hw, s)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-20, 20), st.integers(1, 300)),
                         min_size=1, max_size=8))
    def test_compute_bound_steps_are_where_the_difference_is_positive(self, rows):
        # integer-valued differences keep the reference comparison exact;
        # each row of the arrays is split on its own. A flat row divides by
        # +0.0, as under the closed form's errstate; the bounds are whole floats.
        d0, d1, g = (np.array(column, dtype=float) for column in zip(*rows))
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = _compute_bound_steps(d0, d1, g)
        for (a, b, n), first, last in zip(rows, lo.tolist(), hi.tolist()):
            assert first.is_integer() and last.is_integer()
            assert [j for j in range(n) if a + b * j > 0] == list(range(int(first), int(last)))

    _DIFFERENCES = st.floats(allow_nan=False) | st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, -5e-324])

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(_DIFFERENCES, _DIFFERENCES, st.integers(1, 2**53 - 1)), min_size=1, max_size=8))
    def test_compute_bound_steps_match_the_oracle(self, rows):
        # any finite or infinite differences whose crossing is a number, and
        # lengths up to 2**53: the same integers as the nested np.where
        rows = [(a, b + 0.0, n) for a, b, n in rows if not (math.isinf(a) and math.isinf(b))]  # b of 0 is +0.0
        if not rows:
            return
        d0, d1, g = (np.array(column) for column in zip(*rows))
        with np.errstate(all="ignore"):
            lo, hi = _compute_bound_steps(d0, d1, g.astype(float))
            want = _compute_bound_steps_oracle(d0, d1, g)
        assert (lo.tolist(), hi.tolist()) == tuple(bound.tolist() for bound in want)


class TestOnePointIsAColumn:
    @settings(max_examples=60, deadline=None)
    @given(model=small_models(), points=st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
                                                 min_size=1, max_size=6),
           f_max=st.floats(1e9, 1e16), data=st.data())
    def test_predict_is_column_j_of_class_latencies(self, model, points, f_max, data):
        hw = HardwareProfile(f_max=f_max, b_max=1e12)
        s, g = (np.array(column) for column in zip(*points))
        columns = class_latencies(model, hw, s, g)
        j = data.draw(st.integers(0, len(points) - 1), label="j")
        one = (predict_prefill_latency(model, hw, int(s[j])),
               predict_decode_latency(model, hw, int(s[j]), int(g[j])))
        for got, want in zip(one, columns):
            for field in ("flops", "bytes", "seconds"):
                assert getattr(got, field).tolist() == getattr(want, field)[:, j].tolist(), field
            assert got.total_seconds == want.total_seconds[j]
            assert got.dominant_class == want.dominant_class[j]
            # as the per-class tuple defined them: the classes' seconds added in
            # order, and the first class with the most seconds
            seconds = got.seconds.tolist()
            assert got.total_seconds == sum(seconds)
            assert got.dominant_class == max(zip(LABELS, seconds), key=lambda pair: pair[1])[0]


class TestTermTable:
    # below 2**53 every count is an exact integer, whichever order forms it
    _S = np.array([1, 2, 17, 900, 4096, 32768, 131072, 2_000_000])
    _G = np.array([1, 2, 82, 4096, 100_000])

    def test_bundled_models_reproduce_the_oracle(self, llama8b):
        for model in qwen_family() + [llama8b]:
            assert _term_table(model).tobytes() == _oracle_table(model).tobytes(), model.name

    @settings(max_examples=100, deadline=None)
    @given(model=small_models())
    def test_models_reproduce_the_oracle(self, model):
        # small_models draws power-of-two byte widths: every count is exact
        assert _term_table(model).tobytes() == _oracle_table(model).tobytes()

    def test_class_latencies_match_the_oracle_on_a_grid(self, llama8b, hw):
        s, g = (column.ravel() for column in np.meshgrid(self._S, self._G))
        models = qwen_family() + [llama8b]
        for model in models:
            _assert_bitwise(class_latencies(model, hw, s, g), _class_latencies_oracle(model, hw, s, g))
            for s_j, g_j in ((1, 1), (900, 82)):
                _assert_bitwise(class_latencies(model, hw, s_j, g_j), _class_latencies_oracle(model, hw, s_j, g_j))
        # a stack's columns are each model's in turn
        stacked = class_latencies(models, hw, s, g)
        for i, model in enumerate(models):
            columns = [ClassLatency(*(x[:, i * s.size:(i + 1) * s.size] for x in phase)) for phase in stacked]
            _assert_bitwise(columns, _class_latencies_oracle(model, hw, s, g))

    @settings(max_examples=60, deadline=None)
    @given(model=small_models(), points=st.lists(st.tuples(st.integers(1, 10**5), st.integers(1, 10**5)),
                                                 min_size=1, max_size=6),
           f_max=st.floats(1e9, 1e16))
    def test_class_latencies_match_the_oracle(self, model, points, f_max):
        hw = HardwareProfile(f_max=f_max, b_max=1e12)
        s, g = (np.array(column) for column in zip(*points))
        _assert_bitwise(class_latencies(model, hw, s, g), _class_latencies_oracle(model, hw, s, g))

    @pytest.mark.parametrize("where", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_class_latencies_match_the_oracle_near_2_to_the_53(self, llama8b, where):
        # generations of nearly 2**53 steps whose attention class crosses from
        # memory- to compute-bound at `where` of the way: the step bounds and
        # index sums pass 2**53, where float64 rounds them (the oracle's
        # slopes, differences of its costs, are exact at these prompts)
        s = np.repeat([1, 900, 4096], 8)
        g = 2**53 - 1 - np.tile(np.arange(8), 3) * 7919
        lo, hi = _attn_intensity(llama8b, 1), _attn_intensity(llama8b, 2**53 - 1)
        hw = HardwareProfile(f_max=(lo + where * (hi - lo)) * 1e12, b_max=1e12, mu_comp=1.0, mu_mem=1.0)
        _assert_bitwise(class_latencies(llama8b, hw, s, g), _class_latencies_oracle(llama8b, hw, s, g))

    def test_decode_step_is_the_table_at_one_token(self, llama8b):
        for ctx in (1, 900, 10**6):
            flops, nbytes = _class_costs(llama8b, 1, ctx)
            costs = decode_step_costs(llama8b, ctx)
            assert [c.flops for c in costs] == flops.tolist() and [c.bytes for c in costs] == nbytes.tolist()


def decode_grid(specs, hw, s, g):
    """compare_models' decode-energy grid at one (s, g) point."""
    return compare_models(specs, hw, WorkloadSpec.single(s, g), contour_g=(g,)).grid


class TestSizeScaling:
    def test_single_model_single_row(self, llama8b, hw):
        rows = decode_grid([llama8b], hw, 128, 16)
        assert len(rows) == 1 and rows[0].n_params == llama8b.n_params

    def test_rows_ordered_by_parameter_count(self, hw):
        fam = qwen_family()
        rows = decode_grid(fam[::-1], hw, 128, 16)
        params = [r.n_params for r in rows]
        assert params == sorted(params)

    def test_decode_energy_scales_quadratically_with_width(self, hw):
        hs = [2048, 4096, 8192]
        family = [
            ModelSpec(n_layers=32, hidden=h, n_heads=h // 128, head_dim=128,
                      ffn_dim=4 * h, vocab=16000, name=f"h{h}")
            for h in hs
        ]
        rows = decode_grid(family, hw, 128, 64)
        slope = np.polyfit(np.log(hs), np.log([r.decode_wh for r in rows]), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_doubling_depth_doubles_decode_latency(self, hw):
        # weights and cache both scale with depth; a minimal vocabulary keeps
        # the depth-independent embedding/head traffic at the 1e-6 level
        shallow = ModelSpec(n_layers=32, hidden=4096, n_heads=32, head_dim=128,
                            ffn_dim=16384, vocab=1)
        deep = ModelSpec(n_layers=64, hidden=4096, n_heads=32, head_dim=128,
                         ffn_dim=16384, vocab=1)
        ratio = predict_decode_latency(deep, hw, 128, 16).total_seconds \
            / predict_decode_latency(shallow, hw, 128, 16).total_seconds
        assert ratio == pytest.approx(2.0, abs=1e-5)


@settings(max_examples=25, deadline=None)
@given(s=st.integers(min_value=1, max_value=2048))
def test_prefill_costs_positive_and_labeled(hw, s):
    costs = prefill_rows(tiny_model(), s, hw)
    assert [c.label for c in costs] == ["embed", "qkv_proj", "attn", "attn_out_proj", "ffn", "lm_head"]
    assert all(c.bytes > 0 for c in costs)
    assert all(c.flops >= 0 for c in costs)
