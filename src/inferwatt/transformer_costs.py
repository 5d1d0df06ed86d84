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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from . import kvconfig
from .roofline import HardwareProfile, OpCost, effective_ceilings, op_latency

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
        dims = {
            "n_layers": self.n_layers,
            "hidden": self.hidden,
            "n_heads": self.n_heads,
            "head_dim": self.head_dim,
            "ffn_dim": self.ffn_dim,
            "vocab": self.vocab,
        }
        for key, value in dims.items():
            if not (isinstance(value, int) and value >= 1):
                raise ValueError(f"{key} must be a positive integer, got {value!r}")
        if self.n_heads * self.head_dim != self.hidden:
            raise ValueError("n_heads * head_dim must equal hidden")
        if self.kv_heads is not None:
            if not (isinstance(self.kv_heads, int) and 1 <= self.kv_heads <= self.n_heads):
                raise ValueError("kv_heads must be in [1, n_heads]")
            if self.n_heads % self.kv_heads != 0:
                raise ValueError("kv_heads must divide n_heads")
        if not 0 < self.bytes_per_param < float("inf"):  # NaN fails too
            raise ValueError("bytes_per_param must be positive and finite")

    @property
    def effective_kv_heads(self) -> int:
        return self.kv_heads if self.kv_heads is not None else self.n_heads

    @property
    def kv_dim(self) -> int:
        """Width of the K (or V) projection output."""
        return self.effective_kv_heads * self.head_dim

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


def weight_bytes(model: ModelSpec) -> float:
    """Total parameter footprint in bytes."""
    return model.n_params * model.bytes_per_param


def kv_cache_bytes(model: ModelSpec, tokens: int) -> float:
    """Bytes of cached K and V tensors covering `tokens` positions."""
    return 2.0 * tokens * model.n_layers * model.kv_dim * model.bytes_per_param


def _class_costs(model: ModelSpec, tokens: int, ctx: int | None) -> list[OpCost]:
    """Per-class costs for one pass over `tokens` positions.

    ctx = None means prefill (attention spans the tokens themselves);
    otherwise a decode step attending over a cached context of ctx tokens.
    """
    n = model.n_layers
    h = model.hidden
    kv = model.kv_dim
    ffn = model.ffn_dim
    bpp = model.bytes_per_param
    mats = model.ffn_matrices
    t = tokens

    embed_table = 0.0 if model.tied_embeddings else model.vocab * h * bpp
    span = t if ctx is None else ctx  # positions each query attends over

    if ctx is None:
        attn_flops = n * (4.0 * t * span * h + SOFTMAX_FLOPS_PER_SCORE * t * span * model.n_heads)
        attn_read = n * t * (h + 2 * kv) * bpp  # fused attention: q, k, v only
    else:
        attn_flops = n * (4.0 * span * h + SOFTMAX_FLOPS_PER_SCORE * span * model.n_heads)
        attn_read = n * (t * h + 2 * span * kv) * bpp  # q plus the KV cache

    return [
        OpCost(
            flops=0.0,
            bytes=embed_table + t * h * bpp,
            label="embed",
        ),
        OpCost(
            flops=n * (2.0 * t * h * (h + 2 * kv) + NORM_FLOPS_PER_ELEMENT * t * h),
            bytes=n * ((h * h + 2 * h * kv) * bpp + t * h * bpp + t * (h + 2 * kv) * bpp),
            label="qkv_proj",
        ),
        OpCost(
            flops=attn_flops,
            bytes=attn_read + n * t * h * bpp,
            label="attn",
        ),
        OpCost(
            flops=n * 2.0 * t * h * h,
            bytes=n * (h * h * bpp + 2 * t * h * bpp),
            label="attn_out_proj",
        ),
        OpCost(
            flops=n * (mats * 2.0 * t * h * ffn + NORM_FLOPS_PER_ELEMENT * t * h),
            bytes=n
            * (
                mats * h * ffn * bpp
                + ((mats - 1) * t * h + t * ffn) * bpp  # matmul input reads
                + ((mats - 1) * t * ffn + t * h) * bpp  # matmul output writes
            ),
            label="ffn",
        ),
        OpCost(
            flops=2.0 * t * h * model.vocab,
            bytes=model.vocab * h * bpp + t * h * bpp + t * model.vocab * bpp,
            label="lm_head",
        ),
    ]


def prefill_costs(model: ModelSpec, s: int) -> list[OpCost]:
    """Per-class costs of encoding an s-token prompt, aggregated over layers."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return _class_costs(model, s, ctx=None)


def decode_step_costs(model: ModelSpec, context_len: int) -> list[OpCost]:
    """Per-class costs of generating one token against `context_len` cached
    positions. Weight traffic sums to exactly n_params * bytes_per_param."""
    if context_len < 1:
        raise ValueError("context_len must be >= 1")
    return _class_costs(model, 1, ctx=context_len)


@dataclass(frozen=True)
class ClassCost:
    label: str
    cost: OpCost
    seconds: float


@dataclass(frozen=True)
class PhaseCostBreakdown:
    """Roofline latency of one phase, split by operation class."""

    classes: tuple[ClassCost, ...]
    total_seconds: float = field(init=False, default=0.0)
    dominant_class: str = field(init=False, default="")

    def __post_init__(self):
        total = sum(c.seconds for c in self.classes)
        dominant = max(self.classes, key=lambda c: c.seconds).label
        object.__setattr__(self, "total_seconds", total)
        object.__setattr__(self, "dominant_class", dominant)


def predict_prefill_latency(model: ModelSpec, hw: HardwareProfile, s: int) -> PhaseCostBreakdown:
    """Roofline prefill latency for an s-token prompt."""
    classes = tuple(
        ClassCost(c.label, c, op_latency(c, hw)) for c in prefill_costs(model, s)
    )
    return PhaseCostBreakdown(classes)


def predict_decode_latency(
    model: ModelSpec, hw: HardwareProfile, s: int, g: int
) -> PhaseCostBreakdown:
    """Roofline latency of generating g tokens after an s-token prompt.

    Step j = 0..g-1 runs at context s + j; each class's step FLOPs and bytes
    are affine in j (two step evaluations give base and slope), so the sum of
    step maxima is three arithmetic series split at the crossover step.
    """
    if s < 1 or g < 1:
        raise ValueError("need s >= 1 and g >= 1")
    f_eff, b_eff = effective_ceilings(hw)
    classes = []
    for first, second in zip(decode_step_costs(model, s), decode_step_costs(model, s + 1)):
        df, db = second.flops - first.flops, second.bytes - first.bytes
        c0, c1 = first.flops / f_eff, df / f_eff
        m0, m1 = first.bytes / b_eff, db / b_eff
        if not math.isfinite(c0 + c1 + m0 + m1):
            raise OverflowError(f"{first.label} step cost is not finite; the model is implausibly large")
        lo, hi = _compute_bound_steps(c0 - m0, c1 - m1, g)
        seconds = _series(m0, m1, 0, lo) + _series(c0, c1, lo, hi) + _series(m0, m1, hi, g)
        total = OpCost(_series(first.flops, df, 0, g), _series(first.bytes, db, 0, g), first.label)
        classes.append(ClassCost(first.label, total, seconds))
    return PhaseCostBreakdown(tuple(classes))


def _series(v0: float, v1: float, lo: int, hi: int) -> float:
    """Sum of v0 + v1*j over the integers j in [lo, hi)."""
    n = hi - lo
    return n * v0 + v1 * ((lo + hi - 1) * n // 2)


def _compute_bound_steps(d0: float, d1: float, g: int) -> tuple[int, int]:
    """Steps j in [lo, hi) of 0..g-1 where d0 + d1*j > 0: a prefix or a suffix."""
    if d1 == 0:
        return (0, g) if d0 > 0 else (g, g)
    # clamping to [-1, g] keeps the same integers on each side of the crossover
    cross = min(max(-d0 / d1, -1.0), float(g))
    if d1 > 0:
        return min(g, math.floor(cross) + 1), g
    return 0, max(0, math.ceil(cross))


# Model spec files use the field names verbatim; kv_heads defaults to
# n_heads when omitted.

_MODEL_KEYS = {
    "name",
    "n_layers",
    "hidden",
    "n_heads",
    "head_dim",
    "ffn_dim",
    "vocab",
    "bytes_per_param",
    "kv_heads",
    "gated_ffn",
    "tied_embeddings",
}


def model_from_kv(kv: dict) -> ModelSpec:
    unknown = set(kv) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model spec keys: {sorted(unknown)}")
    try:
        return ModelSpec(
            n_layers=kvconfig.get_int(kv, "n_layers"),
            hidden=kvconfig.get_int(kv, "hidden"),
            n_heads=kvconfig.get_int(kv, "n_heads"),
            head_dim=kvconfig.get_int(kv, "head_dim"),
            ffn_dim=kvconfig.get_int(kv, "ffn_dim"),
            vocab=kvconfig.get_int(kv, "vocab"),
            bytes_per_param=kvconfig.get_float(kv, "bytes_per_param", 4.0),
            kv_heads=kvconfig.get_int(kv, "kv_heads") if "kv_heads" in kv else None,
            gated_ffn=kvconfig.get_bool(kv, "gated_ffn", False),
            tied_embeddings=kvconfig.get_bool(kv, "tied_embeddings", False),
            name=kv.get("name", ""),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_model(path) -> ModelSpec:
    return model_from_kv(kvconfig.read_kv_file(path))
