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

`import inferwatt` imports none of these modules. Each public name loads
from its module on first use (PEP 562), so a caller pays only for the
modules it reaches.
"""

from importlib import import_module as _import_module

# Every submodule the package exports, with the names it exports from it.
_EXPORTS = {
    "bundled": "",
    "errors": "",
    "estimator": "AnalyticSource EnergyBreakdown FittedSource WorkloadSpec compare_models"
                 " estimate_interaction estimate_workload fleet_extrapolate led_equivalent_minutes",
    "kvconfig": "",
    "numerics": "DesignMatrix FitResult ols_fit",
    "phase_model": "CoefficientSet DecodeEnergyCoeffs DecodeLatencyCoeffs FitSamples PrefillEnergyCoeffs"
                   " PrefillLatencyCoeffs eval_decode_energy eval_decode_latency eval_prefill_energy"
                   " eval_prefill_latency fit_decode_energy fit_decode_latency fit_prefill_energy"
                   " fit_prefill_latency",
    "roofline": "HardwareProfile OpCost Phase effective_ceilings energy_from_power op_latency",
    "traces": "EnergyStats PromptDecomposition RunKind RunTable aggregate decompose histogram parse_records"
              " to_fit_samples write_records",
    "transformer_costs": "ClassLatency ModelSpec decode_step_costs predict_decode_latency predict_prefill_latency",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name not yet read: import its module and store the value here,
    so that later reads are plain attribute reads. Code that rebinds module
    attributes from outside (the benchmark's tracer) finds a stored name like
    any other, so read every name it rebinds before it does: a name first
    read while it is in place would store its replacement."""
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
