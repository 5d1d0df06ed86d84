"""FLOP and byte accounting for transformer prefill and decode.

Counting rules
--------------
* A matmul of shape (m x k) @ (k x n) counts 2*m*n*k FLOPs (multiply-add).
* Softmax and normalization work is folded into small per-class constants:
  4 FLOPs per attention score for softmax, 8 FLOPs per hidden element for
  the two per-block norms (split between the qkv and ffn classes). These are
  sub-percent corrections; biases and activation functions are omitted.
* Byte traffic assumes every operation streams its weights from device
  memory once and moves each activation tensor once per direction, with no
  cache-residency credit. Attention uses a fused (FlashAttention-style)
  count: full score/value FLOPs but no materialized score matrix traffic.
* The embedding class is charged its full table as streamed weight bytes so
  that per-step weight traffic sums exactly to the parameter footprint
  n_params * bytes_per_param; with tied embeddings the shared table is
  charged once, on the lm_head class.

Prefill processes s tokens through every class at once; a decode step
processes one token against a cached context of length ctx, rereading all
weights plus 2 * ctx * kv_dim * bytes_per_param of KV cache per layer.

Every class's decode-step FLOPs and bytes are affine in ctx, so the decode
phase is summed in closed form: per class, compute and memory time cross at
most once, and the g per-step roofline maxima are arithmetic series on either
side of that step. Its cost is independent of g; the per-token loop it
replaces is kept in the tests as the oracle the closed form is checked against.

Every class's count is a fixed polynomial in the t positions a pass
processes and the `span` positions their queries attend over: a*t + b*t*span
FLOPs and c + e*t + k*span bytes. `_term_table` states the counting rule
once, as a model's term table: the five coefficient vectors a, b, c, e and
k, one entry per class of LABELS. Every consumer reads it. On a device, a
table fixes the derated ceilings and each class's growth per decode step in
compute and memory seconds; `_device_table` forms them with the table, and
`_closed_form` evaluates the result for many (s, g). `class_latencies`
forms one table per model per call, of one model or of a list of them (the
tables stacked, each model's columns bitwise what it gives alone); an
`estimator.AnalyticSource` forms its model's once, when it is made. Both
phases' per-class FLOPs, bytes and seconds come back as (6, n) stacks:
prefill (t = span = s) is each class's roofline maximum, and decode is the
closed form above, whose first step costs a + b*s FLOPs and c + e + k*s
bytes and each later step b FLOPs and k bytes more. The decode FLOP and byte
sums share one index sum over the g steps; the crossover step's bounds are
formed from masks of the per-class growth, one row per class.
`predict_prefill_latency` and `predict_decode_latency` are the n = 1 case of
`class_latencies`, the `ClassLatency` of one (s, g); `decode_step_costs`
evaluates the table at t = 1 and span = ctx, as OpCosts. A count that
overflows reads as inf, or NaN where no step multiplies it, in its seconds;
the estimator refuses it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kvconfig
from .roofline import HardwareProfile, OpCost, effective_ceilings

SOFTMAX_FLOPS_PER_SCORE = 4
NORM_FLOPS_PER_ELEMENT = 8


@dataclass(frozen=True)
class ModelSpec:
    """Transformer architecture dimensions.

    kv_heads < n_heads models grouped-query attention; gated_ffn adds the
    third feed-forward matrix; tied_embeddings shares the embedding table
    with the output head (counted once in n_params).
    """

    n_layers: int
    hidden: int
    n_heads: int
    head_dim: int
    ffn_dim: int
    vocab: int
    bytes_per_param: float = 4.0
    kv_heads: int | None = None
    gated_ffn: bool = False
    tied_embeddings: bool = False
    name: str = ""

    def __post_init__(self):
        # a bool is an int, but no dimension, head count or byte width
        for key in ("n_layers", "hidden", "n_heads", "head_dim", "ffn_dim", "vocab"):
            value = getattr(self, key)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= 1):
                raise ValueError(f"{key} must be a positive integer, got {value!r}")
        if self.n_heads * self.head_dim != self.hidden:
            raise ValueError("n_heads * head_dim must equal hidden")
        kv = self.kv_heads
        if kv is not None:
            if isinstance(kv, bool) or not (isinstance(kv, int) and 1 <= kv <= self.n_heads):
                raise ValueError("kv_heads must be in [1, n_heads]")
            if self.n_heads % kv != 0:
                raise ValueError("kv_heads must divide n_heads")
        if isinstance(self.bytes_per_param, bool) or not 0 < self.bytes_per_param < float("inf"):  # NaN fails too
            raise ValueError("bytes_per_param must be positive and finite")

    @property
    def kv_dim(self) -> int:
        """Width of the K (or V) projection output."""
        return (self.kv_heads if self.kv_heads is not None else self.n_heads) * self.head_dim

    @property
    def ffn_matrices(self) -> int:
        return 3 if self.gated_ffn else 2

    @property
    def n_params(self) -> int:
        """Matmul parameter count (norm weights and biases omitted)."""
        h, kv = self.hidden, self.kv_dim
        per_layer = h * h + 2 * h * kv + h * h + self.ffn_matrices * h * self.ffn_dim
        head = 0 if self.tied_embeddings else self.vocab * h
        return self.vocab * h + self.n_layers * per_layer + head


LABELS = ("embed", "qkv_proj", "attn", "attn_out_proj", "ffn", "lm_head")


def _term_table(model: ModelSpec) -> np.ndarray:
    """The counting rule of the classes in LABELS, as a (5, 6) table with
    rows a, b, c, e, k and one column per class: a pass over t positions
    whose queries attend over `span` positions costs a*t + b*t*span FLOPs and
    moves c + e*t + k*span bytes. A prefill has span = t = s, a decode step
    t = 1 and span = the cached context. Formed in float64 from the model's
    dimensions, so its entries are exact integers below 2**53 and an overflow
    reads as inf; a dimension beyond float64 raises OverflowError."""
    n, h, kv, heads, ffn, vocab = (float(d) for d in (model.n_layers, model.hidden, model.kv_dim,
                                                      model.n_heads, model.ffn_dim, model.vocab))
    bpp, mats = float(model.bytes_per_param), float(model.ffn_matrices)
    width = h + 2 * kv  # the q, k and v outputs
    norm = NORM_FLOPS_PER_ELEMENT * h
    head = vocab * h * bpp
    return np.array((
        # a, per position: the matmuls and norms (embed, qkv_proj, attn, attn_out_proj, ffn, lm_head)
        (0.0, n * (2 * h * width + norm), 0.0, n * 2 * h * h, n * (mats * 2 * h * ffn + norm), 2 * h * vocab),
        # b, per attention score: the q.k and p.v matmuls and the softmax
        (0.0, 0.0, n * (4 * h + SOFTMAX_FLOPS_PER_SCORE * heads), 0.0, 0.0, 0.0),
        # c, per pass: the weights
        (0.0 if model.tied_embeddings else head, n * h * width * bpp, 0.0, n * h * h * bpp,
         n * mats * h * ffn * bpp, head),
        # e, per position: activations read and written (fused attention reads q, writes its output)
        (h * bpp, n * (h + width) * bpp, 2 * n * h * bpp, 2 * n * h * bpp, n * mats * (h + ffn) * bpp,
         (h + vocab) * bpp),
        # k, per attended position: its cached k and v
        (0.0, 0.0, 2 * n * kv * bpp, 0.0, 0.0, 0.0),
    ))


def decode_step_costs(model: ModelSpec, context_len: int) -> list[OpCost]:
    """Per-class costs of generating one token against `context_len` cached
    positions. Weight traffic sums to exactly n_params * bytes_per_param."""
    if context_len < 1:
        raise ValueError("context_len must be >= 1")
    a, b, c, e, k = _term_table(model)
    flops, nbytes = a + b * context_len, c + e + k * context_len
    return [OpCost(f, nb, label) for label, f, nb in zip(LABELS, flops.tolist(), nbytes.tolist())]


class ClassLatency(NamedTuple):
    """Roofline latency of one phase by class. Each field is a stack with one
    row per class of LABELS and one column per (s, g), a vector for one
    (s, g): FLOPs, bytes and seconds summed over the phase, inf or NaN where
    a count overflowed. `total_seconds` and `dominant_class` (the first class
    with the most seconds) are per column."""

    flops: np.ndarray
    bytes: np.ndarray
    seconds: np.ndarray

    @property
    def total_seconds(self):
        return self.seconds.sum(axis=0)

    @property
    def dominant_class(self):
        return np.asarray(LABELS)[self.seconds.argmax(axis=0)]


# A term table on one device, with what the two fix: the table's rows a, b, c
# and k, the sums c + e and e + k (as the closed form adds them), the derated
# ceilings f_eff and b_eff, and each class's growth per decode step in compute
# seconds c1, memory seconds m1 and their difference d1. Each array has the
# table's shape past its first axis, so it broadcasts against the (s, g) columns.
_DeviceTable = namedtuple("_DeviceTable", "a b c k ce ek f_eff b_eff c1 m1 d1")


@np.errstate(all="ignore")  # an overflowed count reads as inf or NaN, which the estimator refuses
def _device_table(table: np.ndarray, hw: HardwareProfile) -> _DeviceTable:
    """`table` (rows a, b, c, e, k) on `hw`."""
    a, b, c, e, k = table
    f_eff, b_eff = effective_ceilings(hw)
    c1, m1 = b / f_eff, k / b_eff
    return _DeviceTable(a, b, c, k, c + e, e + k, f_eff, b_eff, c1, m1, c1 - m1)


@np.errstate(all="ignore")  # an overflowed count reads as inf or NaN, which the estimator refuses
def _closed_form(dev: _DeviceTable, s, g) -> tuple[ClassLatency, ClassLatency]:
    """Both phases' `ClassLatency` at each (s, g), from a device table whose
    columns broadcast against s and g."""
    s, g = np.asarray(s), np.asarray(g)
    if not (s.max() < 2**53 and g.max() < 2**53):
        raise OverflowError("token counts of 2**53 or more are implausibly large")
    # whole numbers below 2**53 are exact in float64, and so are the step bounds
    s, g = s.astype(float), g.astype(float)
    # decode's first step costs f0 FLOPs and b0 bytes, each later one b FLOPs and k bytes more
    f0, b0 = dev.a + dev.b * s, dev.ce + dev.k * s
    flops, nbytes = f0 * s, dev.c + dev.ek * s
    prefill = ClassLatency(flops, nbytes, np.maximum(flops / dev.f_eff, nbytes / dev.b_eff))
    c0, m0 = f0 / dev.f_eff, b0 / dev.b_eff
    lo, hi = _compute_bound_steps(c0 - m0, dev.d1, g)
    # the FLOP and byte sums over [0, g) share one index sum; the memory-bound
    # prefix [0, lo) is `_series` from 0
    index_sum = (g - 1) * g / 2
    seconds = (lo * m0 + dev.m1 * ((lo - 1) * lo / 2)
               + _series(c0, dev.c1, lo, hi) + _series(m0, dev.m1, hi, g))
    return prefill, ClassLatency(g * f0 + dev.b * index_sum, g * b0 + dev.k * index_sum, seconds)


def class_latencies(model: ModelSpec | list[ModelSpec], hw: HardwareProfile, s, g) -> tuple[ClassLatency, ClassLatency]:
    """Per-class roofline latency of prefilling an s-token prompt and of
    generating g tokens after it, at each (s, g): numbers or arrays of
    lengths >= 1 (not checked here), for a ModelSpec or a list of them (s and
    g 1-D, every model's columns in turn). Each model's term table is formed
    once per call and covers both phases; `AnalyticSource` forms its model's
    once, when it is made, and evaluates it through the same closed form.

    Prefill is each class's roofline maximum. Decode step j = 0..g-1 runs at
    context s + j; each class's step FLOPs and bytes are affine in j, so the
    sum of step maxima is three arithmetic series split at the crossover
    step, and the FLOP and byte sums are series over all g steps. Token
    counts of 2**53 or more raise OverflowError: below that they are exact
    in float64.
    """
    if isinstance(model, ModelSpec):
        table = _term_table(model).reshape((5, len(LABELS)) + (1,) * np.ndim(s))
    else:
        s, g = np.asarray(s), np.asarray(g)
        table = np.repeat(np.stack([_term_table(m) for m in model], axis=-1), s.size, axis=-1)
        s, g = np.tile(s, len(model)), np.tile(g, len(model))
    return _closed_form(_device_table(table, hw), s, g)


def _series(v0, v1, lo, hi):
    """Sum of v0 + v1*j over the integers j in [lo, hi), elementwise, for
    bounds that are whole floats below 2**53. The index sum is rounded as
    forming it from the exact integers lo + hi - 1 and hi - lo would round it."""
    n = hi - lo
    return n * v0 + v1 * ((lo + (hi - 1)) * n / 2)


def _compute_bound_steps(d0, d1, g):
    """Elementwise, the steps j in [lo, hi) of 0..g-1 where d0 + d1*j > 0 (a
    prefix or a suffix), as whole floats, for a float g. The masks have d1's
    shape, one row per class for a device table's slopes. A d1 of 0 must be
    +0.0, as the difference of two equal slopes is: then a flat row's crossing
    -d0/d1 is -inf for d0 > 0 (every step), +inf for d0 < 0 and NaN for a d0
    of 0 or NaN (no step), and `fmin` reads NaN as g. Call it under
    np.errstate: a flat row divides by zero."""
    upper = d1 >= 0  # the steps run to g, from the crossover on
    # clamping to [-1, g] keeps the same integers on each side of the crossover
    cross = np.fmax(np.fmin(-d0 / d1, g), -1.0)
    lo = np.where(upper, np.minimum(g, np.floor(cross) + 1), 0.0)
    hi = np.where(upper, g, np.maximum(np.ceil(cross), 0.0))
    return lo, hi


def predict_prefill_latency(model: ModelSpec, hw: HardwareProfile, s: int) -> ClassLatency:
    """Roofline prefill latency for an s-token prompt, by class: the
    one-prompt case of `class_latencies`."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return class_latencies(model, hw, s, 1)[0]


@np.errstate(over="ignore")  # a total that overflows reads as inf
def predict_decode_latency(model: ModelSpec, hw: HardwareProfile, s: int, g: int) -> ClassLatency:
    """Roofline latency of generating g tokens after an s-token prompt, by
    class: the one-interaction case of `class_latencies`. A total that is not
    finite raises OverflowError."""
    if s < 1 or g < 1:
        raise ValueError("need s >= 1 and g >= 1")
    _, decode = class_latencies(model, hw, s, g)
    if not np.isfinite(decode.total_seconds):
        raise OverflowError("decode latency is not finite; the model is implausibly large")
    return decode


# kv_heads defaults to n_heads when a model spec file omits it.

def model_from_kv(kv: dict) -> ModelSpec:
    return kvconfig.read_fields(ModelSpec, kv, "model spec")


def load_model(path) -> ModelSpec:
    return model_from_kv(kvconfig.read_kv_file(path))
