"""One set-up of a benchmark workload in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <workload>

Imports inferwatt from <src dir>, loads the bundled files the workload
uses, and prints one JSON object with the seconds spent importing and
loading. The runner times the whole process from outside as `setup_s`.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import inferwatt  # noqa: E402
from inferwatt import bundled  # noqa: E402

t1 = time.perf_counter()
if not os.path.abspath(inferwatt.__file__).startswith(os.path.abspath(sys.argv[1]) + os.sep):
    sys.exit(f"inferwatt was imported from {inferwatt.__file__}, not from {sys.argv[1]}")
workload = sys.argv[2]
if workload == "chat-analytic":
    bundled.reference_profile()
    bundled.bundled_model("llama31-8b")
    bundled.qwen_family()
elif workload in ("fleet-fitted", "trace-fit"):
    bundled.reference_coefficients()
else:
    sys.exit(f"unknown workload {workload!r}")
t2 = time.perf_counter()
print('{"import_s": %r, "load_s": %r}' % (t1 - t0, t2 - t1))
