"""Access to the bundled reference data files.

The package ships, as plain text files under `inferwatt/data/`:

* an H100 SXM FP32 hardware profile (vendor ceilings, calibrated efficiency
  factors, measured per-phase powers),
* model specs for a LLaMA-3.1-8B-class architecture and the Qwen-2.5 family
  (0.5B to 14B), dimensions externally sourced from public model cards,
* the reference coefficient set for all four cost polynomials, and
* a small reference trace whose full-run component means are constructed to
  land exactly on the published per-interaction energy figures.

The profile, the coefficient set and each model are loaded once per process
and shared: what they load is frozen.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from .phase_model import CoefficientSet, load_coefficients
from .roofline import HardwareProfile, load_profile
from .transformer_costs import ModelSpec, load_model

REFERENCE_PROFILE = "h100_sxm_80gb_fp32.hw"
REFERENCE_COEFFS = "llama31_8b_h100_fp32.coeffs"
REFERENCE_TRACE = "reference_trace.csv"

MODEL_FILES = {
    "llama31-8b": "llama31_8b_fp32.model",
    "qwen25-0.5b": "qwen25_0p5b_fp32.model",
    "qwen25-1.5b": "qwen25_1p5b_fp32.model",
    "qwen25-3b": "qwen25_3b_fp32.model",
    "qwen25-7b": "qwen25_7b_fp32.model",
    "qwen25-14b": "qwen25_14b_fp32.model",
}

QWEN_FAMILY = ("qwen25-0.5b", "qwen25-1.5b", "qwen25-3b", "qwen25-7b", "qwen25-14b")


def data_path(filename: str):
    return resources.files("inferwatt.data").joinpath(filename)


@cache
def reference_profile() -> HardwareProfile:
    return load_profile(data_path(REFERENCE_PROFILE))


@cache
def reference_coefficients() -> CoefficientSet:
    return load_coefficients(data_path(REFERENCE_COEFFS))


def reference_trace_text() -> str:
    return data_path(REFERENCE_TRACE).read_text(encoding="utf-8")


@cache
def bundled_model(key: str) -> ModelSpec:
    if key not in MODEL_FILES:
        raise KeyError(f"no bundled model {key!r}; choose from {sorted(MODEL_FILES)}")
    return load_model(data_path(MODEL_FILES[key]))


def qwen_family() -> list[ModelSpec]:
    return [bundled_model(key) for key in QWEN_FAMILY]
