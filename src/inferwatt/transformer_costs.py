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

Class costs are array-valued. `_class_costs` is the one definition of the six
classes' FLOPs and bytes, for a number or an array of token counts, as
stacks with one row per class (LABELS order) and one column per count. It
reads a model's dimensions as numbers, or as columns for a stack of models.
`class_latencies` evaluates it once for many (s, g), of one model or of a
list of them (each model's columns bitwise what it gives alone), and returns
both phases' per-class FLOPs, bytes and seconds as (6, n) stacks; prefill is
each class's roofline maximum and decode is the closed form above, applied
elementwise.
`predict_prefill_latency` and `predict_decode_latency` are its n = 1 case,
the `ClassLatency` of one (s, g); `decode_step_costs` wraps one decode
step's column of `_class_costs` as OpCosts.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kvconfig
from .roofline import HardwareProfile, OpCost, effective_ceilings, roofline_seconds

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


# What `_class_costs` reads of a model, each integer sum or product formed exactly in
# Python and rounded once: Python numbers for one model, float64 columns for a stack.
_Dims = namedtuple("_Dims", "n h kv heads ffn vocab bpp mats width embed qkv_bytes out_bytes ffn_bytes head")


def _dims(model: ModelSpec) -> _Dims:
    h, kv, ffn, bpp, mats = model.hidden, model.kv_dim, model.ffn_dim, model.bytes_per_param, model.ffn_matrices
    head = model.vocab * h * bpp
    return _Dims(model.n_layers, h, kv, model.n_heads, ffn, model.vocab, bpp, mats, h + 2 * kv,
                 0.0 if model.tied_embeddings else head, (h * h + 2 * h * kv) * bpp, h * h * bpp,
                 mats * h * ffn * bpp, head)


@np.errstate(all="ignore")  # overflow gives inf, as Python floats do
def _class_costs(dims: _Dims, tokens, span) -> tuple[np.ndarray, np.ndarray]:
    """FLOPs and bytes of the classes in LABELS for one pass over `tokens`
    positions whose queries attend over `span` positions, as two stacks with
    one row per class: a prefill has span = tokens, a decode step tokens = 1
    and span = the cached context. `tokens` and `span` are numbers or arrays
    of one shape, which the stacks take after their first axis; the fields
    of `dims` are numbers or columns that broadcast with them. Counts are
    formed in float64, so they are exact integers below 2**53.
    """
    n, h, kv, heads, ffn, vocab, bpp, mats, width, embed, qkv_bytes, out_bytes, ffn_bytes, head = dims
    t = np.asarray(tokens, dtype=float)
    span = np.asarray(span, dtype=float)
    th = t * h

    flops = (
        0.0 * t,  # embed
        n * (2.0 * t * h * width + NORM_FLOPS_PER_ELEMENT * th),  # qkv_proj
        n * (4.0 * t * span * h + SOFTMAX_FLOPS_PER_SCORE * t * span * heads),  # attn
        n * 2.0 * t * h * h,  # attn_out_proj
        n * (mats * 2.0 * t * h * ffn + NORM_FLOPS_PER_ELEMENT * th),  # ffn
        2.0 * t * h * vocab,  # lm_head
    )
    nbytes = (
        embed + th * bpp,
        n * (qkv_bytes + th * bpp + t * width * bpp),
        # fused attention: reads q and the k, v of the span, writes the output
        n * (th + 2 * span * kv) * bpp + n * t * h * bpp,
        n * (out_bytes + 2 * th * bpp),
        n * (ffn_bytes + ((mats - 1) * th + t * ffn) * bpp  # weights, matmul input reads
             + ((mats - 1) * t * ffn + th) * bpp),  # matmul output writes
        head + th * bpp + t * vocab * bpp,
    )
    return np.stack(flops), np.stack(nbytes)


def _op_costs(flops: np.ndarray, nbytes: np.ndarray) -> list[OpCost]:
    return [OpCost(f, b, label) for label, f, b in zip(LABELS, flops.tolist(), nbytes.tolist())]


def decode_step_costs(model: ModelSpec, context_len: int) -> list[OpCost]:
    """Per-class costs of generating one token against `context_len` cached
    positions. Weight traffic sums to exactly n_params * bytes_per_param."""
    if context_len < 1:
        raise ValueError("context_len must be >= 1")
    return _op_costs(*_class_costs(_dims(model), 1, context_len))


class ClassLatency(NamedTuple):
    """Roofline latency of one phase by class. Each field is a stack with one
    row per class of LABELS and one column per (s, g), a vector for one
    (s, g): FLOPs, bytes and seconds summed over the phase; for decode also
    `nonfinite`, which marks the classes whose per-step cost is not finite.
    `total_seconds` and `dominant_class` (the first class with the most
    seconds) are per column."""

    flops: np.ndarray
    bytes: np.ndarray
    seconds: np.ndarray
    nonfinite: np.ndarray | None = None

    @property
    def total_seconds(self):
        return self.seconds.sum(axis=0)

    @property
    def dominant_class(self):
        return np.asarray(LABELS)[self.seconds.argmax(axis=0)]


@np.errstate(all="ignore")  # `nonfinite` marks an overflowed step cost
def class_latencies(model: ModelSpec | list[ModelSpec], hw: HardwareProfile, s, g) -> tuple[ClassLatency, ClassLatency]:
    """Per-class roofline latency of prefilling an s-token prompt and of
    generating g tokens after it, at each (s, g): numbers or arrays of
    lengths >= 1 (not checked here), for a ModelSpec or a list of them (s and
    g 1-D, every model's columns in turn). One evaluation of the class costs
    covers both phases and every model.

    Prefill is each class's roofline maximum. Decode step j = 0..g-1 runs at
    context s + j; each class's step FLOPs and bytes are affine in j (steps
    at s and s + 1 give base and slope), so the sum of step maxima is three
    arithmetic series split at the crossover step. Token counts of 2**53
    or more raise OverflowError: below that they are exact in float64.
    """
    s, g = np.asarray(s), np.asarray(g)
    if not (s.max() < 2**53 and g.max() < 2**53):
        raise OverflowError("token counts of 2**53 or more are implausibly large")
    if isinstance(model, ModelSpec):
        dims = _dims(model)
    else:
        dims = _Dims(*np.repeat(np.array([_dims(m) for m in model], dtype=float).T, s.size, axis=1))
        s, g = np.tile(s, len(model)), np.tile(g, len(model))
    one = np.ones_like(s)
    flops, nbytes = _class_costs(dims, np.stack([s, one, one]), np.stack([s, s, s + 1]))
    prefill = ClassLatency(flops[:, 0], nbytes[:, 0], roofline_seconds(flops[:, 0], nbytes[:, 0], hw))
    f_eff, b_eff = effective_ceilings(hw)

    f0, b0 = flops[:, 1], nbytes[:, 1]
    df, db = flops[:, 2] - f0, nbytes[:, 2] - b0
    c0, c1 = f0 / f_eff, df / f_eff
    m0, m1 = b0 / b_eff, db / b_eff
    lo, hi = _compute_bound_steps(c0 - m0, c1 - m1, g)
    seconds = _series(m0, m1, 0, lo) + _series(c0, c1, lo, hi) + _series(m0, m1, hi, g)
    decode = ClassLatency(_series(f0, df, 0, g), _series(b0, db, 0, g), seconds,
                          ~np.isfinite(c0 + c1 + m0 + m1))
    return prefill, decode


def step_overflow(nonfinite: np.ndarray) -> OverflowError:
    """The error for one (s, g) whose decode step cost is not finite, given
    its column of `ClassLatency.nonfinite`; it names the first such class."""
    label = LABELS[int(np.argmax(nonfinite))]
    return OverflowError(f"{label} step cost is not finite; the model is implausibly large")


def _series(v0, v1, lo, hi):
    """Sum of v0 + v1*j over the integers j in [lo, hi), elementwise. The
    index sum is formed in float64: exact below 2**53, and above it rounded
    once, as converting the exact integer would round it."""
    n = hi - lo
    return n * v0 + v1 * (np.multiply(lo + hi - 1, n, dtype=float) / 2)


def _compute_bound_steps(d0, d1, g):
    """Elementwise, the steps j in [lo, hi) of 0..g-1 where d0 + d1*j > 0:
    a prefix or a suffix."""
    flat = d1 == 0
    # clamping to [-1, g] keeps the same integers on each side of the crossover
    cross = np.minimum(np.maximum(-d0 / np.where(flat, 1.0, d1), -1.0), g)
    rising = d1 > 0
    first = np.minimum(g, np.floor(cross).astype(np.int64) + 1)
    lo = np.where(flat, np.where(d0 > 0, 0, g), np.where(rising, first, 0))
    hi = np.where(flat | rising, g, np.maximum(0, np.ceil(cross).astype(np.int64)))
    return lo, hi


def predict_prefill_latency(model: ModelSpec, hw: HardwareProfile, s: int) -> ClassLatency:
    """Roofline prefill latency for an s-token prompt, by class: the
    one-prompt case of `class_latencies`."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return class_latencies(model, hw, s, 1)[0]


def predict_decode_latency(model: ModelSpec, hw: HardwareProfile, s: int, g: int) -> ClassLatency:
    """Roofline latency of generating g tokens after an s-token prompt, by
    class: the one-interaction case of `class_latencies`."""
    if s < 1 or g < 1:
        raise ValueError("need s >= 1 and g >= 1")
    _, decode = class_latencies(model, hw, s, g)
    if decode.nonfinite.any():
        raise step_overflow(decode.nonfinite)
    return decode


# kv_heads defaults to n_heads when a model spec file omits it.

def model_from_kv(kv: dict) -> ModelSpec:
    return kvconfig.read_fields(ModelSpec, kv, "model spec")


def load_model(path) -> ModelSpec:
    return model_from_kv(kvconfig.read_kv_file(path))
