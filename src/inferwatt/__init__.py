"""Latency and energy cost modeling for transformer LLM inference.

Predicts per-interaction latency and energy three ways, each computed
independently of the others (comparing the three is not yet done):

* a roofline model over counted transformer operations (`roofline`,
  `transformer_costs`),
* closed-form prefill/decode polynomials with least-squares fitting from
  measurement samples (`phase_model`, `numerics`),
* trace-file decomposition into prefill and decode phases with aggregate
  statistics (`traces`),

plus workload/fleet estimation (`estimator`) and a reporting CLI (`cli`).
"""

from .roofline import (
    HardwareProfile,
    OpCost,
    Phase,
    effective_ceilings,
    energy_from_power,
    op_latency,
)
from .transformer_costs import (
    ClassLatency,
    ModelSpec,
    decode_step_costs,
    predict_decode_latency,
    predict_prefill_latency,
)
from .numerics import DesignMatrix, FitResult, ols_fit
from .phase_model import (
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
    fit_decode_energy,
    fit_decode_latency,
    fit_prefill_energy,
    fit_prefill_latency,
)
from .traces import (
    EnergyStats,
    PromptDecomposition,
    RunKind,
    RunTable,
    aggregate,
    decompose,
    histogram,
    parse_records,
    to_fit_samples,
    write_records,
)
from .estimator import (
    AnalyticSource,
    EnergyBreakdown,
    FittedSource,
    WorkloadSpec,
    compare_models,
    estimate_interaction,
    estimate_workload,
    fleet_extrapolate,
    led_equivalent_minutes,
)
from . import bundled

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
