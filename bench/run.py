"""Benchmark for inferwatt: one workload per call, end to end or per layer.

Usage (from the repository root):

    python3 bench/run.py --workload chat-analytic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

The package is imported from `src/` next to this directory and nowhere else;
without it the run exits 2 and prints no result. One run:

1. makes the workload's inputs from `--seed`,
2. runs one warm-up round and keeps a digest of its outputs,
3. runs whole rounds for `--seconds` seconds; every round must reproduce
   the warm-up round's outputs exactly,
4. reads the process's peak memory, then runs one more round and checks
   its outputs in full (so the checks' own memory stays out of
   `peak_rss_mb`),
5. times seven fresh interpreters that import inferwatt and load the
   bundled files the workload uses, spread over the run (`setup_s` is
   their median).

With `--trace 0` it reports the end-to-end metrics, built from the
fastest time of each kind of call over the timed rounds. With `--trace 1` it alternates
untraced and traced rounds and reports the per-layer metrics of the traced
rounds, per round, with the tracing overhead against the untraced rounds.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Earlier lines give the inputs, the environment and the
per-workload detail metrics; the same goes to `bench/out/results/`.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process and the set-up interpreters it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (this script's directory is on sys.path)
from tracer import PER_LAYER, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("chat-analytic", "fleet-fitted", "trace-fit")
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("report_s", "s"),
    ("round_s", "s"),
)
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import inferwatt from this checkout's src/, or exit 2."""
    if not (SRC / "inferwatt" / "__init__.py").is_file():
        fail(f"{SRC / 'inferwatt'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    iw = importlib.import_module("inferwatt")
    if not Path(iw.__file__).resolve().is_relative_to(SRC):
        fail(f"inferwatt was imported from {iw.__file__}, not from {SRC}")
    importlib.import_module("inferwatt.cli")
    return iw


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def setup_once(workload: str) -> tuple[float, float]:
    """Wall seconds of one fresh set-up, and the import seconds inside it."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout)["import_s"]


class Round:
    """Outputs, per-operation seconds and failures of one round.

    Any exception from an operation counts it as failed; the runner decides
    which failures are expected."""

    def __init__(self, workload, tracer=None):
        self.results, self.seconds, self.failed = {}, {}, []
        if tracer is not None:
            tracer.install()
        clock = time.perf_counter
        try:
            t_round = clock()
            for name, op in workload.ops():
                t0 = clock()
                try:
                    self.results[name] = op(self.results)
                except Exception as exc:  # noqa: BLE001 - counted, then judged by the runner
                    self.failed.append((name, exc))
                self.seconds[name] = clock() - t0
            self.seconds["round"] = clock() - t_round
        finally:
            if tracer is not None:
                tracer.uninstall()


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: workloads.Sizes,
                 setup_repeats: int, workdir: Path) -> tuple[dict, list[str], dict]:
    """One benchmark run; returns (result object, report lines, raw samples)."""
    setups = [setup_once(name)]
    iw = import_package()
    wl = workloads.WORKLOADS[name](iw, sizes, seed, workdir)
    problems: dict[str, int] = {}  # message -> rounds it occurred in

    def problem(message: str) -> None:
        problems[message] = problems.get(message, 0) + 1

    def account(rnd: Round, reference):
        """Records unexpected failures as problems; returns the round's digest."""
        for op, exc in rnd.failed:
            if not (op in wl.expected_failures and isinstance(exc, workloads.OpFailed)):
                problem(f"operation {op} failed: {type(exc).__name__}: {exc}")
        try:
            digest = wl.digest(rnd.results)
        except Exception as exc:  # noqa: BLE001 - outputs missing after a failure
            problem(f"digest failed: {type(exc).__name__}: {exc}")
            return None
        if reference is not None and digest != reference:
            problem("a round's outputs differ from the warm-up round's")
        return digest

    gc.collect()
    warm = Round(wl)
    reference = account(warm, None)
    warm.results = None
    rounds = [warm]

    # Set-ups are spread evenly over the timed rounds, so that their median
    # sees the same host load as the rounds do.
    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < setup_repeats and elapsed >= seconds * len(setups) / setup_repeats:
            setups.append(setup_once(name))
        gc.collect()
        use_tracer = tracer is not None and len(traced) < len(plain)
        rnd = Round(wl, tracer if use_tracer else None)
        account(rnd, reference)
        rnd.results = None  # keep one round's outputs alive at a time
        (traced if use_tracer else plain).append(rnd)
        rounds.append(rnd)
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            break
    # Peak memory of the program's rounds, read before any check runs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final = Round(wl)
    account(final, reference)
    rounds.append(final)
    try:
        wl.check(final.results)
    except Exception as exc:  # noqa: BLE001 - any check error makes the run incorrect
        problem(f"check failed: {type(exc).__name__}: {exc}")
    final.results = None
    lines = [f"input {k} {v}" for k, v in wl.inputs().items()]
    while len(setups) < setup_repeats:
        setups.append(setup_once(name))
    walls, imports = (list(v) for v in zip(*setups))

    attempted = sum(len(r.seconds) - 1 for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    if trace:
        metrics = tracer.per_round(len(traced))
        metrics["import.s"] = statistics.median(imports)
        overhead = statistics.median(r.seconds["round"] for r in traced) / statistics.median(
            r.seconds["round"] for r in plain
        )
        metrics["tracing.overhead_pct"] = 100.0 * (overhead - 1.0)
        units = {n: u for u, n in PER_LAYER}
        lines.append(f"rounds untraced={len(plain)} traced={len(traced)}")
    else:
        # Each call is represented by the fastest time of its kind (the same
        # call, or calls doing the same work) over the timed rounds: the calls
        # are short (mostly 3-250 ms) and repeated, while the host's load slows
        # whole stretches of a run (see README.md).
        best: dict[str, float] = {}
        for r in plain:
            for op, sec in r.seconds.items():
                if op != "round":
                    best[wl.kind(op)] = min(best.get(wl.kind(op), sec), sec)
        op_s = {op: best[wl.kind(op)] for op in plain[0].seconds if op != "round"}
        derived = wl.metrics(op_s)
        metrics = {
            "setup_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "items_per_s": derived["items_per_s"],
            "report_s": derived["report_s"],
            "round_s": sum(op_s.values()),
        }
        units = dict(END_TO_END)
        for key, (value, unit) in derived["detail"].items():
            lines.append(f"detail {key} {value!r} {unit}")
        lines.append(f"rounds timed={len(plain)} setups={len(walls)}")
    for message, count in problems.items():
        lines.append(f"problem {message}" + (f" ({count} times)" if count > 1 else ""))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    samples = {
        "setup_wall_s": walls,
        "setup_import_s": imports,
        "untraced_rounds_s": [r.seconds for r in plain],
        "traced_rounds_s": [r.seconds for r in traced],
    }
    return result, lines, samples


def _write_results(name: str, seed: int, trace: bool, record: dict) -> None:
    path = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")


def smoke() -> int:
    """Every workload on tiny inputs, untraced and traced, with all checks;
    no timing gates. Returns 0 when every check passes."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            t0 = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=_outdir()) as tmp:
                result, lines, _ = run_workload(name, 1, 0.0, trace, workloads.SMOKE, 1, Path(tmp))
            want = {n for _, n in PER_LAYER} if trace else {n for n, _ in END_TO_END}
            missing = want - set(result["metrics"])
            good = result["correct"] and not missing and result["attempted"] > 0
            for ln in lines:
                if ln.startswith("problem"):
                    print(f"{name}: {ln}")
            if missing:
                print(f"{name}: metrics missing: {sorted(missing)}")
            print(f"smoke {name} trace={int(trace)} {'ok' if good else 'FAILED'} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"in {time.perf_counter() - t0:.2f} s")
            ok = ok and good
    return 0 if ok else 1


def _outdir() -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT


def run_all(args) -> int:
    """Each workload in its own process; prints their outputs in turn."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        print(f"== {name}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, all checks, no timing")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("give --workload or --smoke")
    if args.workload == "all":
        return run_all(args)
    import_package()
    env = environment()
    workdir = Path(tempfile.mkdtemp(dir=_outdir(), prefix="work-"))
    try:
        result, lines, samples = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace), workloads.FULL, SETUP_REPEATS, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines.insert(0, "env " + json.dumps(env))
    _write_results(args.workload, args.seed, bool(args.trace),
                   {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                    "lines": lines, "result": result, "samples": samples})
    for ln in lines:
        print(ln)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
