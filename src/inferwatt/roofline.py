"""Per-operation roofline latency model with empirical efficiency ceilings.

Each kernel-level operation is characterized by its floating-point work and
its device-memory traffic. Its latency lower bound is

    t = max(flops / f_eff, bytes / b_eff)

where the effective ceilings are the peak hardware numbers derated by
calibrated efficiency factors:

    f_eff = mu_comp * f_max        b_eff = mu_mem * b_max

The factors absorb occupancy, alignment, and overlap losses. Totals assume
no compute/memory overlap, so a sum over operations upper-bounds any
overlapped schedule of the same work. Kernel launch overhead is not modeled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np

from . import kvconfig

# Calibrated efficiency factors for FP32 transformer inference on an
# H100 SXM; used when a profile file omits mu_comp / mu_mem.
DEFAULT_MU_COMP = 0.675
DEFAULT_MU_MEM = 0.443
SECONDS_PER_HOUR = 3600.0
_INF = float("inf")


class Phase(enum.Enum):
    """Inference phase, used to select the matching mean power draw."""

    PREFILL = "prefill"
    DECODE = "decode"


class Boundedness(enum.Enum):
    COMPUTE_BOUND = "compute_bound"
    MEMORY_BOUND = "memory_bound"
    BALANCED = "balanced"


@dataclass(frozen=True)
class HardwareProfile:
    """Compute/bandwidth ceilings, efficiency factors, and per-phase mean power.

    f_max is peak arithmetic throughput in FLOP/s, b_max peak memory bandwidth
    in bytes/s; p_prefill and p_decode are mean device power draws in watts
    observed during each phase.
    """

    f_max: float
    b_max: float
    mu_comp: float = DEFAULT_MU_COMP
    mu_mem: float = DEFAULT_MU_MEM
    p_prefill: float = field(default=1.0, metadata={"required": True})
    p_decode: float = field(default=1.0, metadata={"required": True})
    name: str = ""

    def __post_init__(self):
        # each field on its own, in field order; NaN fails every chained comparison
        for name in ("f_max", "b_max", "mu_comp", "mu_mem", "p_prefill", "p_decode"):
            value = getattr(self, name)
            if name.startswith("mu_"):
                if not 0 < value <= 1:
                    raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
            elif not 0 < value < _INF:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def power(self, phase: Phase) -> float:
        return self.p_prefill if phase is Phase.PREFILL else self.p_decode


def energy_from_power(phase: Phase, t, hw: HardwareProfile):
    """Convert a phase latency (seconds, a number or an array) to Wh using
    the phase's mean power draw."""
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    return t * hw.power(phase) / SECONDS_PER_HOUR


@dataclass(frozen=True)
class OpCost:
    """FLOP count and byte traffic of one kernel-level operation (or an
    aggregate of homogeneous ones)."""

    flops: float
    bytes: float
    label: str = ""

    def __post_init__(self):
        if self.flops < 0 or self.bytes < 0:
            raise ValueError("flops and bytes must be nonnegative")
        if self.flops == 0 and self.bytes == 0:
            raise ValueError("operation must move data or do work")


def effective_ceilings(hw: HardwareProfile) -> tuple[float, float]:
    """Derated (f_eff, b_eff) ceilings actually attainable on this device."""
    return hw.mu_comp * hw.f_max, hw.mu_mem * hw.b_max


def roofline_seconds(flops, nbytes, hw: HardwareProfile):
    """Roofline latency, max of compute and memory time, of work given as
    numbers or as arrays of FLOPs and bytes (elementwise)."""
    f_eff, b_eff = effective_ceilings(hw)
    return np.maximum(np.divide(flops, f_eff), np.divide(nbytes, b_eff))


def op_latency(cost: OpCost, hw: HardwareProfile) -> float:
    """Roofline latency of one operation."""
    return float(roofline_seconds(cost.flops, cost.bytes, hw))


def boundedness(cost: OpCost, hw: HardwareProfile) -> Boundedness:
    """Classify which resource limits the operation.

    Uses exact comparison of the two resource times; ties are Balanced.
    """
    f_eff, b_eff = effective_ceilings(hw)
    compute_time = cost.flops / f_eff
    memory_time = cost.bytes / b_eff
    if compute_time > memory_time:
        return Boundedness.COMPUTE_BOUND
    if compute_time < memory_time:
        return Boundedness.MEMORY_BOUND
    return Boundedness.BALANCED


# A profile file must state the phase powers, which the class defaults.

def profile_from_kv(kv: dict) -> HardwareProfile:
    return kvconfig.read_fields(HardwareProfile, kv, "hardware profile")


def load_profile(path) -> HardwareProfile:
    return profile_from_kv(kvconfig.read_kv_file(path))


def profile_to_kv(hw: HardwareProfile) -> list[tuple[str, str]]:
    return [(f.name, str(getattr(hw, f.name))) for f in fields(hw)]
