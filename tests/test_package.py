"""The package namespace and the entry point, each in a fresh interpreter:
what `import inferwatt` loads is decided on the first import only."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from inferwatt.cli import cli_dispatch

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = [
    "AnalyticSource", "ClassLatency", "CoefficientSet", "DecodeEnergyCoeffs", "DecodeLatencyCoeffs",
    "DesignMatrix", "EnergyBreakdown", "EnergyStats", "FitResult", "FitSamples", "FittedSource",
    "HardwareProfile", "ModelSpec", "OpCost", "Phase", "PrefillEnergyCoeffs", "PrefillLatencyCoeffs",
    "PromptDecomposition", "RunKind", "RunTable", "WorkloadSpec", "aggregate", "bundled", "compare_models",
    "decode_step_costs", "decompose", "effective_ceilings", "energy_from_power", "errors",
    "estimate_interaction", "estimate_workload", "estimator", "eval_decode_energy", "eval_decode_latency",
    "eval_prefill_energy", "eval_prefill_latency", "fit_decode_energy", "fit_decode_latency",
    "fit_prefill_energy", "fit_prefill_latency", "fleet_extrapolate", "histogram", "kvconfig",
    "led_equivalent_minutes", "numerics", "ols_fit", "op_latency", "parse_records", "phase_model",
    "predict_decode_latency", "predict_prefill_latency", "roofline", "to_fit_samples", "traces",
    "transformer_costs", "write_records",
]
SUBMODULES = ["bundled", "errors", "estimator", "kvconfig", "numerics", "phase_model", "roofline", "traces",
              "transformer_costs"]


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def fresh(code: str):
    """The JSON value `code` prints as its last line, run in a fresh interpreter."""
    proc = run_python("-c", "import json, sys\n" + code)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('inferwatt.'))))"


def test_import_loads_no_submodule():
    assert fresh("import inferwatt\n" + LOADED) == []


@pytest.mark.parametrize("loader", ["reference_coefficients()", "reference_profile()",
                                    "bundled_model('llama31-8b')", "qwen_family()"])
def test_bundled_loaders_leave_traces_and_estimator_unloaded(loader):
    loaded = fresh(f"import inferwatt\nfrom inferwatt import bundled\nbundled.{loader}\n" + LOADED)
    assert "inferwatt.bundled" in loaded
    assert "inferwatt.traces" not in loaded and "inferwatt.estimator" not in loaded


def test_each_name_is_its_home_modules_object():
    all_names, homes = fresh("""
import importlib, types
import inferwatt
assert inferwatt.__version__ == "0.1.0"
homes = {}
for name in inferwatt.__all__:
    value = getattr(inferwatt, name)
    assert vars(inferwatt)[name] is value, name  # stored on first read
    if isinstance(value, types.ModuleType):
        assert importlib.import_module("inferwatt." + name) is value, name
        homes[name] = value.__name__
    else:
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        homes[name] = value.__module__
print(json.dumps([inferwatt.__all__, homes]))
""")
    assert all_names == PUBLIC
    assert {name: home for name, home in homes.items() if name in SUBMODULES} == \
        {name: f"inferwatt.{name}" for name in SUBMODULES}
    assert {home.removeprefix("inferwatt.") for home in homes.values()} <= set(SUBMODULES)


def test_star_import_binds_exactly_all():
    names = fresh("""
before = set(globals())
from inferwatt import *
import inferwatt
print(json.dumps([sorted(set(globals()) - before - {"before", "inferwatt"}), inferwatt.__all__]))
""")
    assert names[0] == names[1] == PUBLIC


def test_dir_lists_every_public_name_before_it_loads():
    public = fresh("import inferwatt\nnames = [n for n in dir(inferwatt) if not n.startswith('_')]\n"
                   + "print(json.dumps([names, sorted(m for m in sys.modules if m.startswith('inferwatt.'))]))")
    assert public == [PUBLIC, []]


def test_an_unknown_name_raises_attribute_error():
    assert fresh("""
import inferwatt
try:
    inferwatt.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""") == "module 'inferwatt' has no attribute 'no_such_name'"
    proc = run_python("-c", "from inferwatt import no_such_name")
    assert proc.returncode == 1 and b"ImportError: cannot import name 'no_such_name'" in proc.stderr


def test_module_entry_point_prints_what_cli_dispatch_prints():
    argv = ["predict", "-s", "900", "-g", "82", "--format", "json"]
    out = io.StringIO()
    assert cli_dispatch(argv, out=out) == 0
    proc = run_python("-m", "inferwatt", *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == out.getvalue().encode("utf-8")
