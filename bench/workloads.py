"""The benchmark's three workloads: seeded inputs, one round of operations,
and the checks on the program's outputs.

A workload object makes its inputs from the seed once; `inputs()` describes
them (after the first round, when the trace files exist). `ops()` lists the
operations of one round in order; each one calls into inferwatt through a
public function or `cli_dispatch`, and a round is a closed loop (each call
starts when the previous one returns). `check()` verifies the first round's
outputs against computations made here, apart from the program, or against
properties the method must have. `digest()` reduces a round's outputs to a
value that every later round must reproduce exactly.

Why these workloads:

* chat-analytic: the roofline layers (`transformer_costs`, `roofline`) do
  nearly all the work; the decode sum loops once per generated token, so
  output length and model size both drive the cost.
* fleet-fitted: no roofline; the per-entry overhead of `estimator` and
  `phase_model` dominates, and politeness turns (long context, reply down to
  g = 1) push the decode polynomial below zero, so the flagged path runs.
* trace-fit: `traces` (write, parse, decompose) and `numerics`/`phase_model`
  fitting do the work, in both trace formats, with no roofline.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

SECONDS_PER_HOUR = 3600.0
DAYS_PER_YEAR = 365.25
LED_WATTS = 5.0


@dataclass(frozen=True)
class Sizes:
    chat_entries: int
    chat_slice: int
    contour_g: str
    decode_grid_s: tuple[int, ...]
    decode_grid_g: tuple[int, ...]
    fleet_entries: int
    fleet_slice: int
    fleet_cli_predicts: int
    trace_parts: int
    trace_s_values: int
    trace_g_values: int
    trace_runs: int


FULL = Sizes(
    chat_entries=500,
    chat_slice=25,
    contour_g="16,64,256,1024,4096",
    decode_grid_s=(16, 300, 900, 2500),
    decode_grid_g=(1, 2, 5, 17, 64),
    fleet_entries=50_000,
    fleet_slice=2000,
    fleet_cli_predicts=40,
    trace_parts=3,
    trace_s_values=18,
    trace_g_values=25,
    trace_runs=20,
)
SMOKE = Sizes(
    chat_entries=20,
    chat_slice=5,
    contour_g="16,64,256",
    decode_grid_s=(16, 900, 2500),
    decode_grid_g=(1, 5, 17, 40),
    fleet_entries=2000,
    fleet_slice=500,
    fleet_cli_predicts=4,
    trace_parts=2,
    trace_s_values=8,
    trace_g_values=5,
    trace_runs=2,
)


class OpFailed(Exception):
    """An operation returned an error exit code or output that is not valid."""


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(actual, expected, rel: float, what: str, abs_tol: float = 0.0) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.abs(actual - expected)
    bad = err > rel * np.abs(expected) + abs_tol
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckFailed(
            f"{what}: {int(bad.sum())} value(s) off, first {actual.flat[i]!r} vs {expected.flat[i]!r}"
        )


# --- seeded inputs --------------------------------------------------------


def _strata(rng, n: int) -> np.ndarray:
    """One uniform draw inside each of n equal strata of (0, 1), shuffled.

    Stratified draws keep the sample's moments close to the distribution's,
    so per-run work varies little between seeds while the inputs differ.
    """
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.clip(u, 1e-9, 1 - 1e-9)


def strat_normal(rng, n: int, mean: float, std: float, low: int = 1) -> np.ndarray:
    inv = NormalDist(mean, std).inv_cdf
    return np.maximum(low, np.rint([inv(u) for u in _strata(rng, n)])).astype(int)


def strat_int(rng, n: int, low: int, high: int) -> np.ndarray:
    """n integers in [low, high], one per equal-width stratum."""
    return (low + np.floor(_strata(rng, n) * (high - low + 1))).astype(int)


def repeated_share(pairs) -> float:
    pairs = list(pairs)
    return 1.0 - len(set(pairs)) / len(pairs)


# --- independent readers of the bundled files ------------------------------


def read_kv(path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def n_params(kv: dict) -> int:
    h, n = int(kv["hidden"]), int(kv["n_layers"])
    kv_dim = int(kv.get("kv_heads", kv["n_heads"])) * int(kv["head_dim"])
    mats = 3 if kv.get("gated_ffn", "false").lower() == "true" else 2
    per_layer = 2 * h * h + 2 * h * kv_dim + mats * h * int(kv["ffn_dim"])
    head = 0 if kv.get("tied_embeddings", "false").lower() == "true" else int(kv["vocab"]) * h
    return int(kv["vocab"]) * h + n * per_layer + head


class Cli:
    """Calls `cli_dispatch` in-process with captured stdout and stderr."""

    def __init__(self, iw):
        self.cli = iw.cli

    def __call__(self, argv: list[str]) -> tuple[str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.cli_dispatch(argv, out)
        if code != 0:
            raise OpFailed(f"inferwatt {argv[0]} exited {code}: {err.getvalue().strip()[:200]}")
        return out.getvalue(), err.getvalue()


def _strict_json(text: str):
    def reject(name):
        raise OpFailed(f"output is not valid JSON: bare {name}")

    return json.loads(text, parse_constant=reject)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# --- sliced estimate_workload ------------------------------------------------


def slice_workload(iw, s, g, w, size: int) -> list:
    """Consecutive WorkloadSpecs of `size` entries each."""
    entry = iw.estimator.WorkloadEntry
    entries = [entry(int(a), int(b), float(c)) for a, b, c in zip(s, g, w)]
    return [iw.WorkloadSpec(tuple(entries[i:i + size])) for i in range(0, len(entries), size)]


def estimate_ops(iw, source, slices) -> list:
    return [
        (f"estimate.{i:03d}", lambda done, part=part: iw.estimate_workload(source, part))
        for i, part in enumerate(slices)
    ]


def estimate_seconds(t: dict) -> float:
    return sum(v for k, v in t.items() if k.startswith("estimate."))


def slice_results(results) -> tuple[list, list]:
    """The slices' mean breakdowns, and every (entry, breakdown) in order."""
    parts = [v for k, v in results.items() if k.startswith("estimate.")]
    return [mean for mean, _ in parts], [pair for _, table in parts for pair in table]


def check_slices(results, s, g, w, size: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Order, exact totals and each slice's weighted mean; returns the
    per-entry prefill and decode Wh and the per-entry breakdowns."""
    means, per_entry = slice_results(results)
    _require(len(per_entry) == len(s), "estimate_workload lost entries")
    _require(all(e.s == a and e.g == b for (e, _), a, b in zip(per_entry, s, g)),
             "per-entry table is not in workload order")
    _require(all(b.total_wh == b.prefill_wh + b.decode_wh for _, b in per_entry)
             and all(m.total_wh == m.prefill_wh + m.decode_wh for m in means),
             "a breakdown's total is not exactly prefill + decode")
    pre = np.array([b.prefill_wh for _, b in per_entry])
    dec = np.array([b.decode_wh for _, b in per_entry])
    for i, mean in enumerate(means):
        part = slice(i * size, (i + 1) * size)
        _close(mean.prefill_wh, np.average(pre[part], weights=w[part]), 1e-12,
               f"slice {i}: weighted mean prefill")
        _close(mean.decode_wh, np.average(dec[part], weights=w[part]), 1e-12,
               f"slice {i}: weighted mean decode")
    return pre, dec, [b for _, b in per_entry]


# --- chat-analytic ----------------------------------------------------------


def decode_polynomial(iw, spec, hw, s_grid, g_grid) -> tuple[np.ndarray, float]:
    """Fit eta*g + theta*s*g + phi*g^2 + rho to the analytic decode latency
    over a grid with numpy; returns (eta, theta, phi, rho) and the relative
    residual."""
    s, g = (a.ravel().astype(float) for a in np.meshgrid(s_grid, g_grid))
    y = np.array(
        [iw.predict_decode_latency(spec, hw, int(a), int(b)).total_seconds for a, b in zip(s, g)]
    )
    x = np.column_stack([g, s * g, g * g, np.ones_like(g)])
    scale = np.abs(x).max(axis=0)
    beta = np.linalg.lstsq(x / scale, y, rcond=None)[0] / scale
    return beta, float(np.linalg.norm(x @ beta - y) / np.linalg.norm(y))


class ChatAnalytic:
    name = "chat-analytic"
    expected_failures: frozenset = frozenset()

    def __init__(self, iw, sizes: Sizes, seed: int, workdir: Path):
        self.iw, self.sizes, self.run_cli = iw, sizes, Cli(iw)
        rng = np.random.default_rng(seed)
        n = sizes.chat_entries
        self.s = strat_normal(rng, n, 900, 200)
        self.g = strat_normal(rng, n, 82, 30)
        self.w = rng.uniform(0.5, 2.0, n)
        self.slices = slice_workload(iw, self.s, self.g, self.w, sizes.chat_slice)
        self.hw = iw.bundled.reference_profile()
        self.model = iw.bundled.bundled_model("llama31-8b")
        self.source = iw.AnalyticSource(self.model, self.hw)
        self.sweep_s, self.sweep_g = int(round(self.s.mean())), int(round(self.g.mean()))
        self.grid_path = workdir / "contour.csv"
        self.compare_argv = [
            "compare", "--family", "qwen25", "-s", str(self.sweep_s), "-g", str(self.sweep_g),
            "--contour-g", sizes.contour_g, "--grid-out", str(self.grid_path), "--format", "json",
        ]

    def inputs(self) -> dict:
        return {
            "entries": len(self.s),
            "mean_s": float(self.s.mean()),
            "mean_g": float(self.g.mean()),
            "sum_g": int(self.g.sum()),
            "repeated_pair_share": repeated_share(zip(self.s, self.g)),
            "sweep": f"s={self.sweep_s} g={self.sweep_g} contour_g={self.sizes.contour_g}",
        }

    def _compare(self):
        stdout, _ = self.run_cli(self.compare_argv)
        return stdout, self.grid_path.read_text(encoding="utf-8")

    def ops(self):
        # The sweep runs twice per round, so that its fastest time is taken
        # over twice as many calls (see `kind`).
        return estimate_ops(self.iw, self.source, self.slices) + [
            (f"compare.{i}", lambda done: self._compare()) for i in range(2)
        ]

    @staticmethod
    def kind(op: str) -> str:
        """Operations of one kind do the same work; they share one fastest time."""
        return "compare" if op.startswith("compare.") else op

    def metrics(self, t: dict) -> dict:
        rate = len(self.s) / estimate_seconds(t)
        return {
            "items_per_s": rate,
            "report_s": t["compare.0"],
            "detail": {"interactions_per_s": (rate, "1/s"), "sweep_s": (t["compare.0"], "s")},
        }

    def digest(self, results):
        means, per_entry = slice_results(results)
        return (means, [b.total_wh for _, b in per_entry], results["compare.0"], results["compare.1"])

    def check(self, results) -> None:
        iw, sizes = self.iw, self.sizes
        data = iw.bundled.data_path
        hw_kv = read_kv(data(iw.bundled.REFERENCE_PROFILE))
        b_eff = float(hw_kv["mu_mem"]) * float(hw_kv["b_max"])
        to_wh = float(hw_kv["p_decode"]) / SECONDS_PER_HOUR

        def polynomial(key, spec):
            kv = read_kv(data(iw.bundled.MODEL_FILES[key]))
            beta, residual = decode_polynomial(iw, spec, self.hw, sizes.decode_grid_s, sizes.decode_grid_g)
            eta, theta, phi, rho = beta
            kv_dim = int(kv.get("kv_heads", kv["n_heads"])) * int(kv["head_dim"])
            bpp = float(kv.get("bytes_per_param", 4))
            theta_rule = 2 * int(kv["n_layers"]) * kv_dim * bpp / b_eff
            _require(residual <= 1e-9, f"{key}: decode polynomial residual {residual:.3g} > 1e-9")
            _close(theta, theta_rule, 1e-9, f"{key}: theta vs 2*n_layers*kv_dim*bpp/b_eff")
            _close(phi, theta / 2, 1e-9, f"{key}: phi vs theta/2")
            _require(abs(rho) <= 1e-9 * eta * max(sizes.decode_grid_g), f"{key}: rho {rho!r} is not ~0")
            _require(eta >= n_params(kv) * bpp / b_eff, f"{key}: eta below one weight stream")
            return kv, beta

        def decode_wh(beta, s, g):
            return to_wh * (beta[0] * g + beta[1] * s * g + beta[2] * g * g + beta[3])

        # Per-entry values and each slice's weighted mean.
        _, dec, _ = check_slices(results, self.s, self.g, self.w, sizes.chat_slice)
        _, beta = polynomial("llama31-8b", self.model)
        _close(dec, decode_wh(beta, self.s, self.g), 1e-9, "entry decode Wh vs decode polynomial")

        # The compare sweep: rows by size, energy rising with size, contour rising in g.
        _require(results["compare.1"] == results["compare.0"], "the two compare sweeps differ")
        stdout, grid_text = results["compare.0"]
        rows = _strict_json(stdout)
        keys = iw.bundled.QWEN_FAMILY
        specs = dict(zip(keys, iw.bundled.qwen_family()))
        fits = {key: polynomial(key, specs[key]) for key in keys}
        order = sorted(keys, key=lambda k: n_params(fits[k][0]))
        _require([r["name"] for r in rows] == [fits[k][0]["name"] for k in order],
                 "compare rows are not ordered by n_params")
        _require([r["n_params"] for r in rows] == [n_params(fits[k][0]) for k in order],
                 "compare n_params disagree with the model files")
        energy = [r["mean_total_wh"] for r in rows]
        _require(all(a < b for a, b in zip(energy, energy[1:])), "energy does not rise with size")
        _close([r["wh_per_token"] for r in rows], np.array(energy) / (self.sweep_s + self.sweep_g),
               1e-12, "wh_per_token")
        grid = _rows(grid_text)
        contour = [int(v) for v in sizes.contour_g.split(",")]
        _require(len(grid) == len(keys) * len(contour), "contour grid has the wrong size")
        for i, key in enumerate(order):
            part = grid[i * len(contour):(i + 1) * len(contour)]
            _require([int(p["g"]) for p in part] == contour, f"{key}: contour g values")
            wh = np.array([float(p["decode_wh"]) for p in part])
            _require(bool(np.all(np.diff(wh) > 0)), f"{key}: contour row does not rise in g")
            _close(wh, decode_wh(fits[key][1], self.sweep_s, np.array(contour, dtype=float)),
                   1e-9, f"{key}: contour decode Wh vs decode polynomial")


# --- fleet-fitted -----------------------------------------------------------

# The politeness mix (this share, s in 1500-9000, g in 1-8) is an assumption
# of this benchmark, not a figure from the paper: see README.md.
POLITE_SHARE = 0.25
INTERACTIONS_PER_DAY = 1e9


class FleetFitted:
    name = "fleet-fitted"
    expected_failures: frozenset = frozenset()

    def __init__(self, iw, sizes: Sizes, seed: int, workdir: Path):
        self.iw, self.sizes, self.run_cli = iw, sizes, Cli(iw)
        rng = np.random.default_rng(seed)
        n = sizes.fleet_entries
        n_polite = int(round(n * POLITE_SHARE))
        n_chat = n - n_polite
        s = np.concatenate([strat_normal(rng, n_chat, 900, 200), strat_int(rng, n_polite, 1500, 9000)])
        g = np.concatenate([strat_normal(rng, n_chat, 82, 30), strat_int(rng, n_polite, 1, 8)])
        polite = np.arange(n) >= n_chat
        order = rng.permutation(n)
        self.s, self.g, self.polite = s[order], g[order], polite[order]
        self.w = rng.uniform(0.5, 2.0, n)
        # The population is estimated in slices (one call of ~25 ms each), as
        # shards of a fleet would be; their means are combined by weight.
        self.slices = slice_workload(iw, self.s, self.g, self.w, sizes.fleet_slice)
        self.slice_weights = np.array([sum(e.weight for e in part.entries) for part in self.slices])
        self.source = iw.FittedSource(iw.bundled.reference_coefficients())
        half = sizes.fleet_cli_predicts // 2
        picks = list(np.flatnonzero(self.polite)[:half]) + list(np.flatnonzero(~self.polite)[:half])
        self.cli_pairs = [(int(self.s[i]), int(self.g[i])) for i in picks]

    def _coeffs(self) -> dict[str, float]:
        kv = read_kv(self.iw.bundled.data_path(self.iw.bundled.REFERENCE_COEFFS))
        return {key.split(".", 1)[1]: float(v) for key, v in kv.items()}

    def _fleet_wh(self, done) -> float:
        means, _ = slice_results(done)
        return float(self.slice_weights @ [m.total_wh for m in means] / self.slice_weights.sum())

    def inputs(self) -> dict:
        c = self._coeffs()
        flagged = c["c"] * self.g + c["d"] * self.s * self.g + c["g_intercept"] <= 0
        return {
            "entries": len(self.s),
            "slices": len(self.slices),
            "politeness_share": float(self.polite.mean()),
            "flagged_share": float(flagged.mean()),
            "repeated_pair_share": repeated_share(zip(self.s, self.g)),
            "cli_predicts": len(self.cli_pairs),
        }

    def ops(self):
        ops = estimate_ops(self.iw, self.source, self.slices)
        ops.append(("fleet", lambda done: self.iw.fleet_extrapolate(self._fleet_wh(done), INTERACTIONS_PER_DAY)))
        for i, (s, g) in enumerate(self.cli_pairs):
            argv = ["predict", "-s", str(s), "-g", str(g), "--format", "json"]
            ops.append((f"predict.{i}", lambda done, argv=argv: self.run_cli(argv)))
        ops.append(("extrapolate", lambda done: self.run_cli([
            "extrapolate", "--wh", repr(self._fleet_wh(done)),
            "--per-day", repr(INTERACTIONS_PER_DAY), "--format", "json"])))
        return ops

    @staticmethod
    def kind(op: str) -> str:
        return op  # every call differs: slices and (s, g) pairs

    def metrics(self, t: dict) -> dict:
        rate = len(self.s) / estimate_seconds(t)
        report = t["extrapolate"] + sum(v for k, v in t.items() if k.startswith("predict."))
        return {"items_per_s": rate, "report_s": report,
                "detail": {"interactions_per_s": (rate, "1/s")}}

    def digest(self, results):
        means, per_entry = slice_results(results)
        return (means, [b.total_wh for _, b in per_entry],
                [v for k, v in sorted(results.items()) if k.startswith(("predict.", "extrapolate"))])

    def check(self, results) -> None:
        c = self._coeffs()
        pre, dec, breakdowns = check_slices(results, self.s, self.g, self.w, self.sizes.fleet_slice)
        pre_ref = c["a"] * self.s + c["b"]
        dec_ref = c["c"] * self.g + c["d"] * self.s * self.g + c["g_intercept"]
        _close(pre, pre_ref, 1e-12, "entry prefill Wh vs prefill energy polynomial")
        _close(dec, dec_ref, 1e-12, "entry decode Wh vs decode energy polynomial")
        flagged = np.array([bool(b.warnings) for b in breakdowns])
        _require(bool(np.array_equal(flagged, dec_ref <= 0)),
                 f"{int(flagged.sum())} entries flagged, {int((dec_ref <= 0).sum())} evaluate <= 0")

        wh = float(np.average(pre + dec, weights=self.w))
        kwh_day, mwh_year = results["fleet"]
        _close(kwh_day, wh * INTERACTIONS_PER_DAY / 1000, 1e-12, "kWh per day")
        _close(mwh_year, kwh_day * DAYS_PER_YEAR / 1000, 1e-12, "MWh per year")

        for i, (s, g) in enumerate(self.cli_pairs):
            stdout, stderr = results[f"predict.{i}"]
            row = _strict_json(stdout)
            p_ref, d_ref = c["a"] * s + c["b"], c["c"] * g + c["d"] * s * g + c["g_intercept"]
            _close([row["prefill_wh"], row["decode_wh"]], [p_ref, d_ref], 1e-12, f"predict s={s} g={g}")
            _require(row["total_wh"] == row["prefill_wh"] + row["decode_wh"], "predict total")
            _close(row["led_minutes"], row["total_wh"] / LED_WATTS * 60, 1e-12, "predict led_minutes")
            _require(("outside the fit's validity range" in stderr) == (d_ref <= 0),
                     f"predict s={s} g={g}: warning does not match the decode polynomial's sign")
        row = _strict_json(results["extrapolate"][0])
        _close([row["kwh_per_day"], row["mwh_per_year"]], [kwh_day, mwh_year], 1e-12, "extrapolate CLI")


# --- trace-fit --------------------------------------------------------------

NOISE = 0.05
TOLERANCE_SD = 6.0  # noisy-fit tolerance in standard deviations of the fitted value
FAMILIES = {
    "prefill_latency": ("alpha", "beta", "gamma"),
    "decode_latency": ("eta", "theta", "phi", "rho"),
    "prefill_energy": ("a", "b"),
    "decode_energy": ("c", "d", "g_intercept"),
}


def _basis(family: str, s, g) -> np.ndarray:
    s, g = np.asarray(s, dtype=float), np.asarray(g, dtype=float)
    one = np.ones_like(s * g)
    return {
        "prefill_latency": lambda: np.column_stack([s * one, s * s * one, one]),
        "decode_latency": lambda: np.column_stack([g * one, s * g, g * g * one, one]),
        "prefill_energy": lambda: np.column_stack([s * one, one]),
        "decode_energy": lambda: np.column_stack([g * one, s * g, one]),
    }[family]()


def read_coefficients(text: str) -> dict[str, np.ndarray]:
    kv = {}
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition("=")
            kv[key.strip()] = float(value)
    return {f: np.array([kv[f"{f}.{k}"] for k in names]) for f, names in FAMILIES.items()}


class TraceFit:
    name = "trace-fit"
    expected_failures = frozenset({"stats-json"})
    FORMATS = {"delimited": "csv", "line-json": "jsonl"}

    def __init__(self, iw, sizes: Sizes, seed: int, workdir: Path):
        self.iw, self.sizes, self.run_cli, self.seed, self.workdir = iw, sizes, Cli(iw), seed, workdir
        rng = np.random.default_rng(seed)
        self.s_values = np.sort(strat_int(rng, sizes.trace_s_values, 100, 4000))
        self.g_values = np.sort(strat_int(rng, sizes.trace_g_values, 16, 1024))
        self.records = 2 * sizes.trace_runs * len(self.s_values) * len(self.g_values)
        # The trace is written as `trace_parts` files, each holding every
        # trace_parts-th prompt length (so each spans the whole range), which
        # keeps each call short: 0.1-0.2 s on 6,000 records.
        self.parts = [self.s_values[k::sizes.trace_parts] for k in range(sizes.trace_parts)]
        self.paths = [{fmt: workdir / f"trace-{k}.{ext}" for fmt, ext in self.FORMATS.items()}
                      for k in range(sizes.trace_parts)]
        self.reference_trace = str(iw.bundled.data_path(iw.bundled.REFERENCE_TRACE))
        self.true = read_coefficients(
            Path(iw.bundled.data_path(iw.bundled.REFERENCE_COEFFS)).read_text(encoding="utf-8")
        )

    def _synth_argv(self, s_values, g_values, noise, runs, path, fmt):
        return ["synth", "--s-values", ",".join(map(str, s_values)),
                "--g-values", ",".join(map(str, g_values)), "--noise", repr(noise),
                "--seed", str(self.seed), "--runs", str(runs), "--out", str(path),
                "--trace-format", fmt]

    def inputs(self) -> dict:
        sizes = {fmt: sum(p[fmt].stat().st_size for p in self.paths if p[fmt].exists()) for fmt in self.FORMATS}
        return {
            "records": self.records,
            "files_per_format": len(self.parts),
            "prompts": len(self.s_values) * len(self.g_values),
            "runs_per_kind": self.sizes.trace_runs,
            "s_values": ",".join(map(str, self.s_values)),
            "g_values": ",".join(map(str, self.g_values)),
            "noise": NOISE,
            "repeated_pair_share": 0.0,  # a grid: every (s, g) point is one prompt
            **{f"bytes.{fmt}": size for fmt, size in sizes.items()},
        }

    def ops(self):
        ops = []
        for k, (s_values, paths) in enumerate(zip(self.parts, self.paths)):
            for fmt, path in paths.items():
                argv = self._synth_argv(s_values, self.g_values, NOISE, self.sizes.trace_runs, path, fmt)
                ops.append((f"synth.{fmt}.{k}", lambda done, argv=argv: self.run_cli(argv)))
            for fmt, path in paths.items():
                out = path.with_suffix(".coeffs" if fmt == "delimited" else ".jsonl.coeffs")
                argv = ["fit", "--trace", str(path), "--out", str(out), "--format", "json"]
                ops.append((f"fit.{fmt}.{k}", lambda done, argv=argv, out=out:
                            (self.run_cli(argv)[0], out.read_text(encoding="utf-8"))))
            trace = str(paths["delimited"])
            for name, argv in (
                ("decompose", ["decompose", "--trace", trace, "--format", "delimited"]),
                ("stats", ["stats", "--trace", trace, "--phase", "decode", "--format", "delimited"]),
                ("hist", ["hist", "--trace", trace, "--phase", "decode", "--format", "delimited"]),
            ):
                ops.append((f"{name}.{k}", lambda done, argv=argv: self.run_cli(argv)[0]))
        # Strict JSON on a fixed input (the bundled trace): `stats --format json`
        # prints a bare NaN in its total row, so this operation fails every time.
        argv = ["stats", "--trace", self.reference_trace, "--phase", "decode", "--format", "json"]
        ops.append(("stats-json", lambda done: _strict_json(self.run_cli(argv)[0])))
        return ops

    @staticmethod
    def kind(op: str) -> str:
        """The parts hold equally many records over the same range, so a call
        on one part shares its fastest time with the same call on the others."""
        return op if op == "stats-json" else op.rsplit(".", 1)[0]

    def metrics(self, t: dict) -> dict:
        def total(prefix):
            return sum(v for k, v in t.items() if k.startswith(prefix))

        n = self.records
        report = total("decompose.") + total("stats.") + total("hist.")
        detail = {f"write_records_per_s.{fmt}": (n / total(f"synth.{fmt}."), "1/s") for fmt in self.FORMATS}
        detail.update({f"fit_records_per_s.{fmt}": (n / total(f"fit.{fmt}."), "1/s") for fmt in self.FORMATS})
        detail["report_s"] = (report, "s")
        return {"items_per_s": 2 * n / total("fit."), "report_s": report, "detail": detail}

    def digest(self, results):
        return [v for k, v in sorted(results.items()) if k != "stats-json"]

    @staticmethod
    def _independent_decomposition(path) -> dict[str, list[float]]:
        """Per-prompt decode energy, from a delimited file read with csv."""
        groups: dict[str, dict[str, list]] = {}
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                groups.setdefault(row["prompt_id"], {}).setdefault(row["run_kind"], []).append(row)
        return {
            pid: [
                float(np.mean([float(r[f"{c}_wh"]) for r in kinds["full"]]))
                - float(np.mean([float(r[f"{c}_wh"]) for r in kinds["prefill_only"]]))
                for c in ("gpu", "cpu", "ram")
            ]
            for pid, kinds in groups.items()
        }

    def _noisy_tolerance(self, s_values, fitted: dict[str, np.ndarray]) -> None:
        """Fitted polynomials vs the generating ones at the grid points.

        Each synthesized value is value * (1 + NOISE * z). A prefill sample is
        one prefill-only run; a decode sample is mean(full) - mean(prefill)
        over `runs` runs of each kind, where a full run draws its prefill and
        decode parts independently, so its variance is
        NOISE^2 * (2 * prefill^2 + decode^2) / runs. The least-squares map P
        gives the fitted value's covariance P diag(var) P^T; the fit must land
        within TOLERANCE_SD of its standard deviation at every grid point.
        """
        runs = self.sizes.trace_runs
        s, g = (a.ravel().astype(float) for a in np.meshgrid(s_values, self.g_values))
        true = {f: _basis(f, s, g) @ c for f, c in self.true.items()}
        samples = {
            "prefill_latency": (np.repeat(s, runs), np.repeat(true["prefill_latency"], runs) ** 2),
            "prefill_energy": (np.repeat(s, runs), np.repeat(true["prefill_energy"], runs) ** 2),
            "decode_latency": (s, (2 * true["prefill_latency"] ** 2 + true["decode_latency"] ** 2) / runs),
            "decode_energy": (s, (2 * true["prefill_energy"] ** 2 + true["decode_energy"] ** 2) / runs),
        }
        for family, (s_smp, var) in samples.items():
            g_smp = g if family.startswith("decode") else np.zeros_like(s_smp)
            x = _basis(family, s_smp, g_smp)
            scale = np.abs(x).max(axis=0)
            p = np.linalg.pinv(x / scale) / scale[:, None]
            cov = (p * (NOISE ** 2 * var)) @ p.T
            x0 = _basis(family, s, g)
            sd = np.sqrt(np.einsum("ij,jk,ik->i", x0, cov, x0))
            err = np.abs(x0 @ fitted[family] - true[family])
            worst = float(np.max(err / sd))
            _require(worst <= TOLERANCE_SD,
                     f"noisy {family} fit is {worst:.2f} sd from the generating polynomial")

    def _check_part(self, k: int, results) -> None:
        iw, paths = self.iw, self.paths[k]
        want = self.records // len(self.parts)
        # Round trip in both formats, no parse issues, no missing kinds.
        parsed = {}
        for fmt, path in paths.items():
            records, issues = iw.parse_records(path, fmt)
            _require(not issues, f"{path.name}: {len(issues)} parse issues")
            _require(len(records) == want, f"{path.name}: {len(records)} records, want {want}")
            text = iw.write_records(records, fmt)
            _require(text == path.read_text(encoding="utf-8"), f"{path.name}: write(parse(file)) != file")
            again, issues = iw.parse_records(text, fmt)
            _require(again == records and not issues, f"{path.name}: parse -> write -> parse is not identity")
            parsed[fmt] = records
        _require(parsed["delimited"] == parsed["line-json"], f"part {k}: the formats hold different records")
        decomps, missing = iw.decompose(parsed["delimited"])
        _require(not missing, f"part {k}: {len(missing)} prompts miss a run kind")

        # Both formats give the same coefficients; the noisy fit is within tolerance.
        texts = {fmt: results[f"fit.{fmt}.{k}"][1] for fmt in self.FORMATS}
        body = {fmt: [ln for ln in t.splitlines() if not ln.startswith("#")] for fmt, t in texts.items()}
        _require(body["delimited"] == body["line-json"], f"part {k}: the formats give different coefficients")
        for fmt in self.FORMATS:
            rows = _strict_json(results[f"fit.{fmt}.{k}"][0])
            _require([r["family"] for r in rows] == list(FAMILIES), f"part {k} {fmt}: fitted families")
        self._noisy_tolerance(self.parts[k], read_coefficients(texts["delimited"]))

        # decompose, stats and hist against numpy on the csv-read records.
        ref = self._independent_decomposition(paths["delimited"])
        prompts = len(ref)
        rows = _rows(results[f"decompose.{k}"])
        _require(len(rows) == prompts == len(decomps), f"part {k}: decompose row count")
        for comp, col in ((0, "decode_gpu_wh"), (1, "decode_cpu_wh"), (2, "decode_ram_wh")):
            _close([float(r[col]) for r in rows], [ref[r["prompt_id"]][comp] for r in rows],
                   1e-12, f"part {k}: decompose {col}", abs_tol=1e-15)
        stats = {r["component"]: r for r in _rows(results[f"stats.{k}"])}
        means = np.mean(np.array(list(ref.values())), axis=0)
        for i, comp in enumerate(("gpu", "cpu", "ram")):
            _close(float(stats[comp]["mean_wh"]), means[i], 1e-12, f"part {k}: stats {comp} mean",
                   abs_tol=1e-15)
            _require(int(stats[comp]["count"]) == prompts, f"part {k}: stats {comp} count")
        _close(float(stats["total"]["mean_wh"]), means.sum(), 1e-12, f"part {k}: stats total mean")
        counts = [int(r["count"]) for r in _rows(results[f"hist.{k}"])]
        _require(sum(counts) == prompts, f"part {k}: histogram counts sum to {sum(counts)}, want {prompts}")

    def check(self, results) -> None:
        for k in range(len(self.parts)):
            self._check_part(k, results)
        # A noise-free copy recovers the generating coefficients.
        clean = self.workdir / "clean.csv"
        clean_coeffs = self.workdir / "clean.coeffs"
        self.run_cli(self._synth_argv(self.s_values[:4], self.g_values[:4], 0.0, 1, clean, "delimited"))
        self.run_cli(["fit", "--trace", str(clean), "--out", str(clean_coeffs)])
        recovered = read_coefficients(clean_coeffs.read_text(encoding="utf-8"))
        for family, coeffs in self.true.items():
            _close(recovered[family], coeffs, 1e-9, f"noise-free {family} coefficients")


WORKLOADS = {w.name: w for w in (ChatAnalytic, FleetFitted, TraceFit)}
