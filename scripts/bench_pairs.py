#!/usr/bin/env python3
"""Paired benchmark runs: a parent checkout against this one.

    python3 scripts/bench_pairs.py PARENT_CHECKOUT --workload fleet-fitted \
        --pairs 10 --seeds 921-930 --out BENCH_9.json

Pair i runs `bench/run.py --workload W --seed S_i --seconds T --trace 0`
once in each checkout, one right after the other: the parent first on odd
pairs (1, 3, ...) and this checkout first on even ones, so that a drift of
the machine over the session falls on both sides alike. The A-B range holds one seed
per pair, in order, so `--pairs` must equal its length. `--workload` may be
given more than once; the default is every workload `BENCHMARK.json` lists.
The run length T (`run_seconds`) and the end-to-end metrics with their
direction and bound are the ones `BENCHMARK.json` sets.

The output holds, per workload and metric, both sides' median and
quartiles (numpy's linear percentiles) and every run's value, the number of
pairs in which this checkout was better in the metric's direction, the
seeds and the pair count; per workload also the failed-operation share,
the `correct` flag of every run, and every run that exited non-zero (its
pair, seed, exit code and the tail of its stderr; the metric summaries
leave its pair out); and the Python, numpy and CPU the runs
reported. The script only invokes each checkout's benchmark: it edits
nothing in either checkout (the benchmark itself writes its ignored
`bench/out/`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _revision(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`: {"result": its result line, "env":
    its env line}, or {"exit": code, "stderr": tail} if it failed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        env = next((json.loads(ln[len("env "):]) for ln in lines if ln.startswith("env ")), {})
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-500:]}
    return {"result": result, "env": env}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric summary of paired runs ({"parent": result, "change": result} each)."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                     "parent": _summary(parent), "change": _summary(change),
                     "wins": wins, "pairs": len(runs)}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, required=True, help="number of pairs per workload")
    parser.add_argument("--seeds", type=_seeds, required=True, help="seed range A-B, one seed per pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = args.seeds
    if args.pairs != len(seeds):
        parser.error(f"--pairs {args.pairs} but --seeds holds {len(seeds)} seeds")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    seconds = float(spec["run_seconds"])

    workloads, env = {}, {}
    for workload in args.workload or names:
        runs, failed_runs = [], []
        for pair, seed in enumerate(seeds, start=1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            run = {}
            for side in order:
                outcome = run_bench(sides[side], workload, seed, seconds)
                if "result" in outcome:
                    run[side], env[side] = outcome["result"], outcome["env"]
                else:
                    failed_runs.append({"pair": pair, "seed": seed, "side": side, **outcome})
            print(f"{workload} pair {pair}/{len(seeds)} seed {seed}: " + ", ".join(
                f"{side} items_per_s {run[side]['metrics']['items_per_s']['value']:.6g}" if side in run
                else f"{side} failed" for side in order), file=sys.stderr)
            runs.append(run)
        done = {side: [r[side] for r in runs if side in r] for side in sides}
        paired = [r for r in runs if len(r) == len(sides)]
        workloads[workload] = {
            "metrics": compare(paired, spec["end_to_end"]) if paired else {},
            "failed_share": {side: sum(r["failed"] for r in done[side]) / sum(r["attempted"] for r in done[side])
                             if done[side] else None for side in sides},
            "correct": {side: [r["correct"] for r in done[side]] for side in sides},
            "failed_runs": failed_runs,
        }
    record = {
        "command": spec["command"],
        "revisions": {side: _revision(path) for side, path in sides.items()},
        "seconds": seconds,
        "pairs": len(seeds),
        "seeds": seeds,
        "order": "parent first on odd pairs, change first on even pairs",
        "env": env,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
