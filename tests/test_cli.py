import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from inferwatt import cli
from inferwatt.bundled import data_path, REFERENCE_TRACE
from inferwatt.cli import cli_dispatch
from inferwatt.errors import EmptySelection, InferwattError
from inferwatt.traces import (COMPONENTS, ComponentEnergy, ComponentStats, EnergyStats, RunKind, RunTable,
                              aggregate, decompose, histogram, parse_records, write_records)
from inferwatt.traces import _RunFields as Run


HEADER = "prompt_id,run_kind,input_tokens,output_tokens,latency_s,gpu_wh,cpu_wh,ram_wh,model_id,precision,batch"
GROUP_MEAN = "a run mean of prompt 'p' (model 'm', precision 'fp32', batch 1)"


def run_cli(*argv):
    out = io.StringIO()
    code = cli_dispatch(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "ref.csv"
    path.write_text(data_path(REFERENCE_TRACE).read_text(encoding="utf-8"))
    return str(path)


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    """Configuration files holding non-finite or overflowing values, and
    configuration and trace files that are not UTF-8 text."""
    root = tmp_path_factory.mktemp("bad")
    llama = data_path("llama31_8b_fp32.model").read_text(encoding="utf-8")
    hw = data_path("h100_sxm_80gb_fp32.hw").read_text(encoding="utf-8")
    coeffs = data_path("llama31_8b_h100_fp32.coeffs").read_text(encoding="utf-8")
    trace = data_path(REFERENCE_TRACE).read_text(encoding="utf-8")
    latin1 = {  # name: (file name, text written as latin-1)
        "latin1_hw": ("latin1.hw", hw.replace("name = H100-SXM-80GB-fp32", "name = caf\xe9")),
        "latin1_model": ("latin1.model", llama.replace("name = llama31-8b-fp32", "name = caf\xe9")),
        "latin1_coeffs": ("latin1.coeffs", "# caf\xe9\n" + coeffs),
        "latin1_csv": ("latin1.csv", trace + "\xff\n"),
        "latin1_jsonl": ("latin1.jsonl",
                         write_records(parse_records(trace)[0], "line-json") + '{"prompt_id": "\xff"}\n'),
    }
    files = {
        "inf_model": llama.replace("bytes_per_param = 4", "bytes_per_param = inf"),
        "huge_model": llama.replace("bytes_per_param = 4", "bytes_per_param = 1e308"),
        "large_model": llama.replace("bytes_per_param = 4", "bytes_per_param = 1e290"),
        "inf_hw": hw.replace("p_prefill = 684", "p_prefill = inf"),
        "huge_coeffs": coeffs.replace("prefill_energy.a = 6.05e-05", "prefill_energy.a = 1e308"),
        "inf_coeffs": coeffs.replace("prefill_energy.a = 6.05e-05", "prefill_energy.a = inf"),
        "nan_coeffs": coeffs.replace("prefill_energy.a = 6.05e-05", "prefill_energy.a = nan"),
        "negative_coeffs": coeffs.replace("decode_energy.g_intercept = -4.71e-03", "decode_energy.g_intercept = -1"),
    }
    paths = {"llama": str(data_path("llama31_8b_fp32.model"))}
    for name, text in files.items():
        assert text not in (llama, hw, coeffs), name  # the replacement took
        path = root / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    for name, (filename, text) in latin1.items():
        assert not text.isascii(), name  # the replacement took
        path = root / filename
        path.write_text(text, encoding="latin-1")
        paths[name] = str(path)
    return paths


class TestExitCodes:
    def test_no_arguments_prints_usage_and_exits_1(self, capsys):
        code, out = run_cli()
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        code, _ = run_cli("predict", "-s", "10", "-g", "10", "--bogus")
        assert code == 1

    def test_missing_required_flag_is_usage_error(self):
        code, _ = run_cli("predict", "-s", "10")
        assert code == 1

    def test_missing_file_is_data_error(self):
        code, _ = run_cli("stats", "--trace", "/nonexistent/file.csv")
        assert code == 2

    def test_bad_coeff_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.coeffs"
        bad.write_text("prefill_latency.alpha = not_a_number\n")
        code, _ = run_cli("predict", "-s", "10", "-g", "10", "--coeffs", str(bad))
        assert code == 2

    def test_help_exits_zero(self):
        code, _ = run_cli("--help")
        assert code == 0

    @pytest.mark.parametrize("argv,usage", [(["--help"], "usage: inferwatt [-h]"),
                                            (["compare", "--help"], "usage: inferwatt compare [-h]"),
                                            (["predict", "-h"], "usage: inferwatt predict [-h]")])
    def test_help_goes_to_out_as_every_result_does(self, argv, usage, capsys):
        code, out = run_cli(*argv)
        assert (code, capsys.readouterr()) == (0, ("", ""))
        assert out.startswith(usage) and "options:" in out
        # without `out`, as `main` runs it, the same text goes to standard output
        with pytest.raises(SystemExit) as exit_:
            with mock.patch.object(sys, "argv", ["inferwatt", *argv]):
                cli.main()
        assert exit_.value.code == 0
        assert capsys.readouterr() == (out, "")

    @pytest.mark.parametrize("argv", [
        ["predict", "-s", "900", "-g", "82", "--model", "{inf_model}"],
        ["predict", "-s", "900", "-g", "82", "--model", "{huge_model}"],
        ["predict", "-s", "900", "-g", "82", "--model", "{llama}", "--hw", "{inf_hw}"],
        ["predict", "-s", "900", "-g", "82", "--coeffs", "{huge_coeffs}"],
        ["synth", "--s-values", "900", "--g-values", "0", "--coeffs", "{huge_coeffs}"],
        ["predict", "-s", "10", "-g", "5", "--coeffs", "{inf_coeffs}"],
        ["predict", "-s", "10", "-g", "5", "--coeffs", "{nan_coeffs}"],
        ["synth", "--s-values", "10", "--g-values", "0", "--coeffs", "{inf_coeffs}"],
        ["synth", "--s-values", "10", "--g-values", "0", "--coeffs", "{nan_coeffs}"],
        ["synth", "--s-values", "200,500,900,1500", "--g-values", "0,82", "--noise", "5"],
        ["extrapolate", "--wh", "1e308", "--per-day", "0"],
    ])
    def test_nonfinite_configuration_or_estimate_is_data_error(self, argv, bad_files, capsys):
        code, out = run_cli(*(a.format(**bad_files) for a in argv))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv,path", [
        (["predict", "-s", "9", "-g", "9", "--model", "{llama}", "--hw", "{latin1_hw}"], "latin1_hw"),
        (["predict", "-s", "9", "-g", "9", "--model", "{latin1_model}"], "latin1_model"),
        (["compare", "{latin1_model}", "-s", "9", "-g", "9"], "latin1_model"),
        (["predict", "-s", "9", "-g", "9", "--coeffs", "{latin1_coeffs}"], "latin1_coeffs"),
        (["synth", "--s-values", "900", "--g-values", "0", "--coeffs", "{latin1_coeffs}"], "latin1_coeffs"),
        (["stats", "--trace", "{latin1_csv}"], None),
        (["fit", "--trace", "{latin1_csv}"], None),
        (["decompose", "--trace", "{latin1_jsonl}"], None),
        (["hist", "--trace", "{latin1_jsonl}"], None),
    ])
    def test_file_that_is_not_utf8_is_data_error(self, argv, path, bad_files, capsys):
        code, out = run_cli(*(a.format(**bad_files) for a in argv))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        want = f"error: {bad_files[path]} is not UTF-8 text: " if path else "error: trace is not UTF-8 text: "
        assert err.startswith(want + "'utf-8' codec can't decode byte 0x") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["stats"], ["stats", "--phase", "decode"], ["decompose"], ["fit"], ["hist"]])
    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_trace_with_a_byte_order_mark_reads_as_without_it(self, command, suffix, tmp_path, capsys):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        text = data_path(REFERENCE_TRACE).read_text(encoding="utf-8")
        if suffix == ".jsonl":
            text = write_records(parse_records(text)[0], "line-json")
        outputs = []
        path = tmp_path / f"trace{suffix}"  # one name: `fit` prints it
        for head in ("", "\ufeff"):
            path.write_text(head + text, encoding="utf-8")
            outputs.append((run_cli(*command, "--trace", str(path)), capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0][0] == 0

    # Workload columns are int64, and the analytic class costs are formed in
    # float64, exact below 2**53: counts past those limits are rejected,
    # although the fitted polynomials would give a finite estimate.
    @pytest.mark.parametrize("argv,limit", [
        (["predict", "-s", str(2**63), "-g", "1"], "2**63"),
        (["compare", "--family", "qwen25", "-s", "900", "-g", str(10**30)], "2**63"),
        (["predict", "-s", str(2**53), "-g", "1", "--model", "{llama}"], "2**53"),
        (["compare", "--family", "qwen25", "-s", str(2**53), "-g", "1"], "2**53"),
    ])
    def test_token_counts_past_the_int64_or_exact_float64_limit_are_data_error(self, argv, limit,
                                                                                bad_files, capsys):
        code, out = run_cli(*(a.format(**bad_files) for a in argv))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: token counts of {limit} or more are implausibly large\n"

    @pytest.mark.parametrize("argv", [
        ["predict", "-s", str(2**63 - 1), "-g", "1"],
        ["predict", "-s", str(2**53 - 1), "-g", "1", "--model", "{llama}"],
    ])
    def test_token_counts_just_below_the_limits_are_estimated(self, argv, bad_files, capsys):
        code, out = run_cli(*(a.format(**bad_files) for a in argv))
        assert code == 0 and out
        assert capsys.readouterr().err == ""


    @pytest.mark.parametrize("command", ["fit", "decompose", "stats", "hist"])
    @pytest.mark.parametrize("body,drop,warnings", [
        ("", "0", 0),  # a header and nothing else
        ("p,full,x,5,1.0,0.1,0,0,m,fp32,1\np,prefill_only,10,5,1.0,0.1,0,0,m,fp32,1\np,full\n", "0", 3),
        ("p,full,10,5,1.0,0.1,0,0,m,fp32,1\np,prefill_only,10,1,1.0,0.1,0,0,m,fp32,1\n", "1", 0),
    ])
    def test_trace_with_no_valid_run_is_data_error(self, command, body, drop, warnings, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text(HEADER + "\n" + body, encoding="utf-8")
        code, out = run_cli(command, "--trace", str(path), "--drop-first", drop)
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and out == ""
        after = f" after --drop-first {drop}" if drop != "0" else ""
        assert len(err) == warnings + 1 and all(ln.startswith("warning: line ") for ln in err[:-1])
        assert err[-1] == f"error: trace has no valid runs{after}"

    @pytest.mark.parametrize("trace,argv,what", [
        ("means", ["decompose"], GROUP_MEAN),
        ("means", ["fit"], GROUP_MEAN),
        ("means", ["stats"], "the full gpu energy mean"),
        ("means", ["stats", "--phase", "decode"], GROUP_MEAN),
        ("means", ["hist", "--phase", "decode"], GROUP_MEAN),
        ("means", ["hist"], "the mean of the values"),
        ("means", ["hist", "--edges", "0,1"], "the mean of the values"),
        ("totals", ["stats", "--phase", "prefill"], "the prefill total energy mean"),
        ("totals", ["hist", "--phase", "prefill", "--component", "total"], "a total energy (gpu + cpu + ram)"),
        ("totals", ["fit"], "a total energy (gpu + cpu + ram)"),
    ])
    def test_statistics_that_overflow_are_data_error(self, trace, argv, what, tmp_path, capsys):
        # every run is finite; the means of one prompt's runs, or its component totals, are not
        body = {"means": "p,prefill_only,10,1,1e308,1e308,0,0,m,fp32,1\n"
                         + "p,full,10,5,1e308,1e308,0,0,m,fp32,1\n" * 2,
                "totals": "p,prefill_only,10,1,1.0,1e308,1e308,0,m,fp32,1\np,full,10,5,2.0,1e308,1e308,0,m,fp32,1\n"}
        path = tmp_path / "runs.csv"
        path.write_text(HEADER + "\n" + body[trace], encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings included
            code, out = run_cli(*argv, "--trace", str(path))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {what} is not finite; inputs are implausibly large\n"

    @pytest.mark.parametrize("lengths", [("--s-values", str(2**63)), ("--g-values", f"0,{2**63}")])
    def test_synth_lengths_of_2_63_or_more_are_data_error(self, lengths, capsys):
        code, out = run_cli("synth", "--s-values", "900", "--g-values", "0", *lengths)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: plan point") and "2**63" in err and err.count("\n") == 1

    @pytest.mark.parametrize("module", ["inferwatt", "inferwatt.cli"])
    def test_python_m_runs_the_cli(self, module):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", module, "predict", "-s", "900", "-g", "82"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, run_cli("predict", "-s", "900", "-g", "82")[1], "")


class TestArgumentValidation:
    @pytest.mark.parametrize("argv", [
        ["predict", "-s", "0", "-g", "5"],
        ["stats", "--trace", "{trace}", "--rename", "abc"],
        ["hist", "--trace", "{trace}", "--edges", "a,b"],
        ["compare", "--family", "qwen25", "-s", "0", "-g", "4"],
        ["compare", "--family", "qwen25", "-s", "5", "-g", "4", "--contour-g", "0"],
        ["compare", "--family", "qwen25", "-s", "5", "-g", "4", "--contour-g", ""],
        ["hist", "--trace", "{trace}", "--bins", "0"],
        ["stats", "--trace", "{trace}", "--drop-first", "-1"],
        ["synth", "--s-values", "0", "--g-values", "50"],
        ["synth", "--s-values", "900", "--g-values", "50", "--runs", "0"],
        ["synth", "--s-values", "900", "--g-values", "50", "--noise", "-1"],
        ["extrapolate", "--wh", "-1", "--per-day", "5"],
        ["predict", "-s", "5", "-g", "5", "--led-watts", "nan"],
        ["synth", "--s-values", "900", "--g-values", "50", "--seed", "-1"],
        ["predict", "-s", "5", "-g", "5", "--led-watts", "inf"],
        ["synth", "--s-values", "900", "--g-values", "50", "--noise", "inf"],
        ["extrapolate", "--wh", "inf", "--per-day", "5"],
        ["extrapolate", "--wh", "1", "--per-day", "inf"],
    ])
    def test_bad_argument_is_a_one_line_usage_error(self, argv, trace_file, capsys):
        code, out = run_cli(*(a.replace("{trace}", trace_file) for a in argv))
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert len([ln for ln in err.splitlines() if ln.startswith("error:")]) == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("predict", "-s", "0", "-g", "5"), "argument -s: expected an integer >= 1"),
        (("predict", "-s", "5", "-g", "5", "--coeffs", "A", "--model", "B"), "argument --model: not allowed"),
        # --edges set the bins and --bins was dropped
        (("hist", "--trace", "T", "--edges", "0,1", "--bins", "3"), "argument --bins: not allowed with argument --edges"),
        (("hist", "--trace", "T", "--bins", "3", "--edges", "0,1"), "argument --edges: not allowed with argument --bins"),
        # raised by the handlers, after parsing
        (("predict", "-s", "5", "-g", "5", "--hw", "H"), "--hw sets the hardware"),
        (("compare", "-s", "5", "-g", "5"), "give model spec files"),
    ])
    def test_usage_is_the_failing_subcommands(self, argv, message, capsys):
        assert run_cli(*argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert f"\nusage: inferwatt {argv[0]} [-h]" in err

    def test_unrecognized_argument_usage_is_the_subcommands(self, capsys):
        code, _ = run_cli("predict", "-s", "5", "-g", "5", "--bogus")
        err = capsys.readouterr().err
        assert code == 1
        assert "error: unrecognized arguments: --bogus" in err
        assert "usage: inferwatt predict" in err


class TestPredict:
    def test_default_source_reference_point(self):
        code, out = run_cli("predict", "-s", "1000", "-g", "100", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_wh"] == pytest.approx(0.30249, abs=1e-9)
        assert payload["prefill_wh"] == pytest.approx(0.0655, abs=1e-9)
        assert payload["decode_wh"] == pytest.approx(0.23699, abs=1e-9)

    def test_analytic_source(self):
        model = str(data_path("llama31_8b_fp32.model"))
        code, out = run_cli("predict", "-s", "1000", "-g", "100", "--model", model,
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "roofline" in payload["source"]
        # analytic decode at this point runs ~16% under the fitted value
        assert payload["total_wh"] == pytest.approx(0.30249, rel=0.25)

    def test_deterministic_output(self):
        first = run_cli("predict", "-s", "777", "-g", "42")
        second = run_cli("predict", "-s", "777", "-g", "42")
        assert first == second

    def test_negative_total_is_reported_without_led_minutes(self, bad_files, capsys):
        code, out = run_cli("predict", "-s", "900", "-g", "82", "--coeffs", bad_files["negative_coeffs"],
                            "--format", "json")
        assert code == 0
        assert "validity range" in capsys.readouterr().err
        payload = json.loads(out)
        assert payload["total_wh"] < 0 and payload["led_minutes"] is None

    @pytest.mark.parametrize("options,message", [
        ((("--model", "llama31_8b_fp32.model"), ("--coeffs", "llama31_8b_h100_fp32.coeffs")),
         "argument --coeffs: not allowed with argument --model"),
        ((("--coeffs", "llama31_8b_h100_fp32.coeffs"), ("--model", "llama31_8b_fp32.model")),
         "argument --model: not allowed with argument --coeffs"),
        ((("--hw", "h100_sxm_80gb_fp32.hw"),), "--hw sets the hardware of the analytic source: give it with --model"),
        ((("--coeffs", "llama31_8b_h100_fp32.coeffs"), ("--hw", "h100_sxm_80gb_fp32.hw")),
         "--hw sets the hardware of the analytic source"),
    ])
    def test_an_option_the_source_ignores_is_a_usage_error(self, options, message, capsys):
        # each was taken and ignored: the analytic row or the bundled fit was printed
        argv = [arg for flag, name in options for arg in (flag, str(data_path(name)))]
        assert run_cli("predict", "-s", "900", "-g", "82", *argv) == (1, "")
        assert f"error: {message}" in capsys.readouterr().err

    def test_out_of_range_warning_on_stderr(self, capsys):
        code, out = run_cli("predict", "-s", "1", "-g", "1", "--format", "json")
        assert code == 0
        assert "validity range" in capsys.readouterr().err
        assert "total_wh" in out


class TestStats:
    def test_reference_fixture_means(self, trace_file):
        code, out = run_cli("stats", "--trace", trace_file, "--format", "json")
        assert code == 0
        rows = {r["component"]: r for r in json.loads(out)}
        assert rows["gpu"]["mean_wh"] == 0.202
        assert rows["cpu"]["mean_wh"] == 0.024
        assert rows["ram"]["mean_wh"] == 0.019
        assert rows["total"]["mean_wh"] == pytest.approx(0.245, abs=1e-15)

    def test_json_is_strict_with_null_for_the_total_row_gaps(self, trace_file):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out = run_cli("stats", "--trace", trace_file, "--phase", "decode", "--format", "json")
        assert code == 0
        rows = {r["component"]: r for r in json.loads(out, parse_constant=reject)}
        total = rows["total"]
        assert total["std_wh"] is None and total["min_wh"] is None and total["max_wh"] is None
        assert total["mean_wh"] == pytest.approx(sum(rows[c]["mean_wh"] for c in ("gpu", "cpu", "ram")))

    def test_table_and_delimited_keep_nan(self, trace_file):
        for fmt in ("table", "delimited"):
            code, out = run_cli("stats", "--trace", trace_file, "--format", fmt)
            assert code == 0 and "nan" in out.splitlines()[-1]

    def test_prefill_phase_selector(self, trace_file):
        code, out = run_cli("stats", "--trace", trace_file, "--phase", "prefill",
                            "--format", "json")
        assert code == 0
        rows = {r["component"]: r for r in json.loads(out)}
        assert rows["gpu"]["count"] == 8
        assert rows["gpu"]["mean_wh"] < 0.202


class TestDecompose:
    def test_rows_per_prompt(self, trace_file):
        code, out = run_cli("decompose", "--trace", trace_file, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 8
        assert all(r["decode_gpu_wh"] > 0 for r in rows)
        assert list(rows[0])[:2] == ["prompt_id", "model_id"]
        assert {r["model_id"] for r in rows} == {"llama31-8b-fp32"}

    def test_delimited_output_is_quoted_csv(self, tmp_path):
        path = tmp_path / "comma.csv"
        path.write_text(write_records(RunTable.from_records([
            Run("a,b", RunKind.PREFILL_ONLY, 10, 1, 0.5, 0.1, 0.0, 0.0, 'm"1', "fp32", 1),
            Run("a,b", RunKind.FULL, 10, 5, 1.0, 0.3, 0.0, 0.0, 'm"1', "fp32", 1),
        ])))
        code, out = run_cli("decompose", "--trace", str(path), "--format", "delimited")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row) == 10
        assert row[:2] == ["a,b", 'm"1']

    def test_missing_kind_warning_names_the_group(self, tmp_path, capsys):
        path = tmp_path / "two-models.csv"
        header = data_path(REFERENCE_TRACE).read_text(encoding="utf-8").splitlines()[0]
        path.write_text(header + "\np,full,10,5,1.0,0.1,0,0,a,fp32,1\np,full,10,5,1.0,0.1,0,0,b,fp32,1\n")
        code, _ = run_cli("decompose", "--trace", str(path))
        warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
        assert code == 0
        assert len(warnings) == len(set(warnings)) == 2
        assert "model 'a'" in warnings[0] and "model 'b'" in warnings[1]


class TestHist:
    def test_two_column_delimited_output(self, trace_file):
        code, out = run_cli("hist", "--trace", trace_file, "--component", "gpu",
                            "--bins", "4", "--format", "delimited")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bin_left_edge,count"
        assert len(lines) == 5
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == 8


    def test_decode_phase_warns_about_missing_kinds(self, trace_file, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        text = data_path(REFERENCE_TRACE).read_text(encoding="utf-8")
        path.write_text(text + "lonely,full,10,5,1.0,0.1,0,0,m,fp32,1\n")
        code, out = run_cli("hist", "--trace", str(path), "--phase", "decode", "--bins", "2")
        assert code == 0
        assert "warning: prompt 'lonely'" in capsys.readouterr().err


class TestExtrapolate:
    def test_reference_fleet_numbers(self):
        code, out = run_cli("extrapolate", "--wh", "0.245", "--per-day", "1e9",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kwh_per_day"] == pytest.approx(245000.0)
        assert payload["mwh_per_year"] == pytest.approx(89486.25)
        assert payload["led_minutes_per_interaction"] == pytest.approx(2.94)


class TestCompare:
    def test_bundled_family_ordered_and_increasing(self):
        code, out = run_cli("compare", "--family", "qwen25", "-s", "900", "-g", "82",
                            "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        totals = [r["mean_total_wh"] for r in rows]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_grid_out_written(self, tmp_path):
        grid = tmp_path / "grid.csv"
        code, _ = run_cli("compare", "--family", "qwen25", "-s", "900", "-g", "82",
                          "--contour-g", "16,64", "--grid-out", str(grid))
        assert code == 0
        lines = grid.read_text().strip().splitlines()
        assert lines[0] == "name,n_params,g,decode_wh"
        assert len(lines) == 1 + 5 * 2

    def test_needs_at_least_one_model(self):
        code, _ = run_cli("compare", "-s", "900", "-g", "82")
        assert code == 1

    def test_a_contour_point_that_is_not_finite_is_data_error(self, bad_files, tmp_path, capsys):
        # 1e290 bytes per parameter: a reply of 10**15 tokens overflows, as an entry and as a contour point
        grid = tmp_path / "grid.csv"
        error = "error: energy estimate inf Wh is not finite; inputs are implausibly large\n"
        code, out = run_cli("predict", "--model", bad_files["large_model"], "-s", "1", "-g", "1000000000000000")
        assert (code, out, capsys.readouterr().err) == (2, "", error)
        code, out = run_cli("compare", bad_files["large_model"], "-s", "1", "-g", "1",
                            "--contour-g", "16,1000000000000000", "--grid-out", str(grid))
        assert (code, out, capsys.readouterr().err) == (2, "", error)
        assert not grid.exists()
        code, _ = run_cli("compare", bad_files["large_model"], "-s", "1", "-g", "1", "--contour-g", "16",
                          "--grid-out", str(grid))
        assert code == 0 and grid.exists()


class TestJsonShape:
    """predict and extrapolate print one object; every other command prints
    a list, whatever its number of rows."""

    @pytest.fixture(scope="class")
    def two_prompts(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("shape") / "two.csv"
        path.write_text(write_records(RunTable.from_records([
            Run(pid, kind, s, 1 if kind is RunKind.PREFILL_ONLY else 20, 1e-3 * s + 0.1, 1e-4 * s + 0.01,
                0.0, 0.0, "m", "fp32", 1)
            for pid, s in (("a", 100), ("b", 300)) for kind in RunKind
        ])))
        return str(path)

    def test_decompose_of_one_prompt_is_a_list(self, two_prompts, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text("\n".join(Path(two_prompts).read_text().splitlines()[:3]) + "\n")  # prompt a only
        code, out = run_cli("decompose", "--trace", str(one), "--format", "json")
        assert code == 0 and [row["prompt_id"] for row in json.loads(out)] == ["a"]

    def test_compare_of_one_model_is_a_list(self, bad_files):
        code, out = run_cli("compare", bad_files["llama"], "-s", "900", "-g", "82", "--format", "json")
        assert code == 0 and [row["name"] for row in json.loads(out)] == ["llama31-8b-fp32"]

    def test_hist_of_one_bin_is_a_list(self, trace_file):
        code, out = run_cli("hist", "--trace", trace_file, "--bins", "1", "--format", "json")
        assert code == 0 and [row["count"] for row in json.loads(out)] == [8]

    def test_fit_of_one_family_is_a_list(self, two_prompts, tmp_path, capsys):
        # two prefill-only runs fit only the two-coefficient prefill energy
        code, out = run_cli("fit", "--trace", two_prompts, "--out", str(tmp_path / "c"), "--format", "json")
        assert code == 0 and [row["family"] for row in json.loads(out)] == ["prefill_energy"]


class TestSynthFitPredictPipeline:
    def test_round_trip_reproduces_generator(self, tmp_path):
        trace = tmp_path / "synth.csv"
        fitted = tmp_path / "fitted.coeffs"
        code, _ = run_cli("synth", "--s-values", "200,500,1000,2000,3000",
                          "--g-values", "0,8,32,128,256", "--out", str(trace))
        assert code == 0
        code, _ = run_cli("fit", "--trace", str(trace), "--component", "gpu",
                          "--out", str(fitted))
        assert code == 0
        code, out = run_cli("predict", "-s", "1000", "-g", "100",
                            "--coeffs", str(fitted), "--format", "json")
        assert code == 0
        reference = json.loads(run_cli("predict", "-s", "1000", "-g", "100",
                                       "--format", "json")[1])
        fitted_payload = json.loads(out)
        assert fitted_payload["total_wh"] == pytest.approx(reference["total_wh"], rel=1e-6)

    def test_synth_deterministic(self, tmp_path):
        args = ("synth", "--s-values", "200,500", "--g-values", "0,16",
                "--noise", "0.02", "--seed", "7")
        assert run_cli(*args) == run_cli(*args)

    @pytest.mark.parametrize("fmt,digest", [
        ("delimited", "56d5732fd5484ea9df6cb9127042129c4e18bab9cac9e53cc2f92f3104c12d17"),
        ("line-json", "15b157534f692a52574daba1461e096a44624be2df4447d3cee67579ef56a9fb"),
    ])
    def test_synth_bytes_are_pinned(self, tmp_path, fmt, digest):
        # a g = 0 point gives a prompt of prefill-only runs; the digests are
        # those of the per-record synthesis and writer
        args = ("synth", "--s-values", "200,900,3000", "--g-values", "0,82,1024", "--noise", "0.05",
                "--runs", "3", "--trace-format", fmt)
        code, out = run_cli(*args)
        assert code == 0 and hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        path = tmp_path / "trace"
        assert run_cli(*args, "--out", str(path)) == (0, "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_synth_and_fit_agree_on_a_jsonl_path(self, tmp_path, capsys):
        # synth writes a .jsonl --out as line-json, the format fit reads it in
        args = ("synth", "--s-values", "200,500,1000,2000", "--g-values", "0,8,32,128", "--noise", "0.05")
        fits = []
        for name in ("t.jsonl", "t.csv"):
            path = tmp_path / name
            assert run_cli(*args, "--out", str(path)) == (0, "")
            code, out = run_cli("fit", "--trace", str(path))
            assert code == 0
            fits.append((out.splitlines()[1:], capsys.readouterr().err))  # after the header naming the file
        assert fits[0] == fits[1] and len(fits[0][0]) == 12  # the four families' coefficients
        assert (tmp_path / "t.jsonl").read_text() == run_cli(*args, "--trace-format", "line-json")[1]
        assert run_cli(*args)[1] == (tmp_path / "t.csv").read_text()  # standard output stays delimited

    def test_synth_line_json_round_trip(self, tmp_path):
        trace = tmp_path / "synth.jsonl"
        code, _ = run_cli("synth", "--s-values", "300,600", "--g-values", "0,24",
                          "--trace-format", "line-json", "--out", str(trace))
        assert code == 0
        code, out = run_cli("stats", "--trace", str(trace), "--phase", "prefill",
                            "--format", "json")
        assert code == 0
        # every grid point gets a prefill-only run, g>=1 points add full runs
        assert json.loads(out)[0]["count"] == 4

    def test_fit_warns_about_each_mixed_length_decode_row(self, tmp_path, capsys):
        # prompt p's runs disagree on input_tokens (10 and 500), so its
        # decode row sits at their rounded mean; q, r and t are consistent
        def run(pid, kind, s, g):
            full = kind is RunKind.FULL
            return Run(pid, kind, s, g if full else 1, 1e-3 * s + 0.02 * g * full,
                       1e-5 * s + 1e-4 * g * full, 0.0, 0.0, "m", "fp32", 1)

        runs = [("p", RunKind.PREFILL_ONLY, 10, 20), ("p", RunKind.FULL, 10, 20), ("p", RunKind.FULL, 500, 20)]
        runs += [(pid, kind, s, g) for pid, s, g in (("q", 300, 40), ("r", 700, 80), ("t", 900, 160))
                 for kind in (RunKind.PREFILL_ONLY, RunKind.FULL)]
        path = tmp_path / "mixed.csv"
        path.write_text(write_records(RunTable.from_records([run(*r) for r in runs])))
        code, out = run_cli("fit", "--trace", str(path))
        warnings = [ln for ln in capsys.readouterr().err.splitlines() if "input lengths" in ln]
        assert code == 0 and "decode_energy.c" in out
        assert warnings == ["warning: prompt 'p' (model 'm', precision 'fp32', batch 1) mixes input "
                            "lengths; its decode row is fitted at their rounded mean s=255"]

        path.write_text(write_records(RunTable.from_records([run(*r) for r in runs if r[0] != "p"])))
        run_cli("fit", "--trace", str(path))
        assert "input lengths" not in capsys.readouterr().err

    def test_fit_warns_only_about_groups_whose_runs_it_drops(self, tmp_path, capsys):
        # a g = 0 prompt has prefill-only runs alone: fit takes them as g = 0
        # rows, while decompose has no decode to give for it
        path = tmp_path / "g0.csv"
        assert run_cli("synth", "--s-values", "100,300,900", "--g-values", "0,4,16", "--out", str(path)) == (0, "")
        assert run_cli("fit", "--trace", str(path))[0] == 0
        assert "has no" not in capsys.readouterr().err
        assert run_cli("decompose", "--trace", str(path))[0] == 0
        assert capsys.readouterr().err.count("has no full runs") == 3

        # a prompt of full runs alone has no prefill to subtract: its runs are dropped
        path.write_text(path.read_text(encoding="utf-8") + "lonely,full,10,5,1.0,0.1,0,0,m,fp32,1\n")
        assert run_cli("fit", "--trace", str(path))[0] == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines() if "has no" in ln]
        assert warnings == ["warning: prompt 'lonely' (model 'm', precision 'fp32', batch 1) has no prefill_only runs"]

    def test_fit_of_constant_prefill_latencies_has_r_squared_1(self, tmp_path):
        # every prefill-only run takes 0.1 s: the intercept matches them, to
        # a residual norm of about 1e-16, where R^2 read -2.14
        runs = []
        for k in range(21):
            s, g = 100 * (k + 1), 10 + 7 * (k % 4) + k
            runs += [Run(f"p{k}", RunKind.PREFILL_ONLY, s, 1, 0.1, 1e-5 * s, 0.0, 0.0),
                     Run(f"p{k}", RunKind.FULL, s, g, 0.1 + 0.02 * g, 1e-5 * s + 1e-4 * g, 0.0, 0.0)]
        path = tmp_path / "constant.csv"
        path.write_text(write_records(RunTable.from_records(runs)))
        code, out = run_cli("fit", "--trace", str(path), "--component", "gpu", "--out", str(tmp_path / "c"),
                            "--format", "json")
        fits = {row["family"]: row for row in json.loads(out)}
        assert code == 0 and fits["prefill_latency"]["r_squared"] == 1.0
        assert fits["prefill_latency"]["residual_norm"] < 1e-15

    def test_out_of_range_synth_grid_is_data_error(self):
        code, _ = run_cli("synth", "--s-values", "1", "--g-values", "1")
        assert code == 2


class TestTableFormat:
    def test_numeric_columns_right_aligned_4_sig_digits(self):
        code, out = run_cli("predict", "-s", "1000", "-g", "100")
        assert code == 0
        header, row = out.splitlines()
        assert "0.3025" in row  # 4 significant digits
        assert header.index("total_wh") + len("total_wh") == row.index("0.3025") + len("0.3025")


class TestBuiltOncePerProcess:
    """The parser and the bundled files are made once per process and reused."""

    @staticmethod
    def _dispatch(argv):
        out, stdout, stderr = io.StringIO(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_dispatch(argv, out=out)
        return code, out.getvalue(), stdout.getvalue(), stderr.getvalue()

    def test_the_reused_parser_answers_as_a_fresh_one(self, monkeypatch):
        calls = [
            ["predict", "-s", "900", "-g", "82", "--format", "json"],
            ["predict", "-s", "0", "-g", "82"],  # a usage error: exit 1
            ["--help"],  # exit 0, the help on `out`
            ["predict", "-s", "9", "-g", "1", "--coeffs", "x", "--model", "y"],  # excluding flags: exit 1
            ["predict", "-s", "900", "-g", "82", "--format", "json"],
        ]
        assert cli.build_parser() is cli.build_parser()
        reused = [self._dispatch(argv) for argv in calls]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a new parser per call
        fresh = [self._dispatch(argv) for argv in calls]
        assert [r[0] for r in reused] == [0, 1, 0, 1, 0]
        assert reused == fresh and reused[0] == reused[-1]

    def test_each_bundled_file_is_loaded_once(self):
        from inferwatt import bundled
        from inferwatt.phase_model import load_coefficients
        from inferwatt.roofline import load_profile
        from inferwatt.transformer_costs import load_model

        loaders = [(bundled.reference_profile, (), load_profile, bundled.REFERENCE_PROFILE),
                   (bundled.reference_coefficients, (), load_coefficients, bundled.REFERENCE_COEFFS)]
        loaders += [(bundled.bundled_model, (key,), load_model, name) for key, name in bundled.MODEL_FILES.items()]
        for cached, args, load, filename in loaders:
            first = cached(*args)
            assert cached(*args) is first
            assert first == load(data_path(filename))
        assert bundled.qwen_family() == [bundled.bundled_model(key) for key in bundled.QWEN_FAMILY]


# --- argv fuzz ------------------------------------------------------------

_HOSTILE = ["nan", "inf", "-inf", "-1", "0", "", "a,b", "1e308", "-1e308", "99999999999999999999", "1,2"]
# Values for the flags that size the work (runs, grid and histogram lengths,
# generated tokens): hostile, but never large.
_SMALL = ["nan", "inf", "-1", "0", "", "a,b", "1", "3", "1,2", "0,5", "1e3"]
_FORMATS = ["table", "json", "delimited", "xml", ""]
_TRACE_FORMATS = ["delimited", "line-json", "csv", ""]
_COMPONENTS = ["gpu", "cpu", "ram", "total", "gpuu", ""]
_PHASES = ["prefill", "full", "decode", "both", ""]


@pytest.fixture(scope="module")
def cli_flags(tmp_path_factory, bad_files):
    """Per subcommand: (flag, good values, hostile values, required) for
    every flag it has ("" for a positional). Files are real, broken or
    missing; outputs go to a temporary directory."""
    root = tmp_path_factory.mktemp("fuzz")
    two_models = root / "two-models.csv"
    two_models.write_text(write_records(RunTable.from_records([
        Run("a,b", kind, 10, 1 if kind is RunKind.PREFILL_ONLY else 5, 1.0 + i, 0.1 * i, 0.0, 0.0,
            model, "fp32", 1)
        for i, (model, kind) in enumerate((m, k) for m in "AB" for k in RunKind)
    ])))
    missing = str(root / "missing")
    trace = ([str(data_path(REFERENCE_TRACE)), str(two_models)], [missing, str(root)])
    coeffs = ([str(data_path("llama31_8b_h100_fp32.coeffs"))],
              [bad_files["huge_coeffs"], bad_files["inf_coeffs"], bad_files["nan_coeffs"],
               bad_files["negative_coeffs"], missing])
    models = ([bad_files["llama"]], [bad_files["inf_model"], bad_files["huge_model"], missing])
    hws = ([str(data_path("h100_sxm_80gb_fp32.hw"))], [bad_files["inf_hw"], missing])
    out = ([str(root / "out.txt")], [str(root)])
    fmt = ("--format", ["table", "json", "delimited"], ["xml", ""], False)
    with_trace = [
        ("--trace", *trace, True),
        ("--trace-format", ["delimited", "line-json"], ["csv", ""], False),
        ("--rename", ["x=prompt_id"], ["prompt_id=x", "=", "a,b", ""], False),
        ("--drop-first", ["1"], _HOSTILE, False),
        fmt,
    ]
    component = ("--component", ["gpu", "cpu", "ram", "total"], ["gpuu", ""], False)
    phase = ("--phase", ["prefill", "full", "decode"], ["both", ""], False)
    return {
        "predict": [("-s", ["900", "1"], _HOSTILE, True), ("-g", ["82", "1"], _SMALL, True),
                    ("--coeffs", *coeffs, False), ("--model", *models, False), ("--hw", *hws, False),
                    ("--led-watts", ["5"], _HOSTILE, False), fmt],
        "fit": with_trace + [component, ("--out", *out, False)],
        "decompose": with_trace,
        "stats": with_trace + [phase],
        "hist": with_trace + [component, phase, ("--bins", ["3"], _SMALL, False),
                              ("--edges", ["0,0.1,1"], _HOSTILE + ["1,0", "0,inf", "nan,1"], False)],
        "compare": [("-s", ["900"], _HOSTILE, True), ("-g", ["82"], _SMALL, True),
                    ("--family", ["qwen25"], ["llama"], False), ("--hw", *hws, False),
                    ("--contour-g", ["16,64"], _SMALL, False), ("--grid-out", *out, False), fmt,
                    ("", *models, False)],
        "extrapolate": [("--wh", ["0.245"], _HOSTILE, True), ("--per-day", ["1e9"], _HOSTILE, True),
                        ("--led-watts", ["5"], _HOSTILE, False), fmt],
        "synth": [("--s-values", ["900", "200,900"], _SMALL, True), ("--g-values", ["0,82"], _SMALL, True),
                  ("--coeffs", *coeffs, False), ("--noise", ["0.02"], _HOSTILE + ["5"], False),
                  ("--seed", ["7"], _HOSTILE, False), ("--runs", ["2"], _SMALL, False), ("--out", *out, False),
                  ("--trace-format", ["delimited", "line-json"], ["csv", ""], False)],
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_1_or_2(cli_flags, data):
    command = data.draw(st.sampled_from(sorted(cli_flags)), label="command")
    argv = [command]
    for flag, good, hostile, required in cli_flags[command]:
        if required or data.draw(st.booleans()):
            value = data.draw(st.sampled_from(good) | st.sampled_from(hostile))
            argv += [flag, value] if flag else [value]
    argv += data.draw(st.sampled_from([[], [], [], ["--bogus"], ["-h"], ["extra"]]))
    if data.draw(st.integers(0, 9)) == 0:  # a required flag left out
        del argv[1:3]
    note(repr(argv))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv, out=io.StringIO())
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# --- the per-item phase selection before `phase_energies`, kept as the reference ---

_PHASE_FIELD = {"prefill": "prefill_mean_wh", "full": "full_mean_wh", "decode": "decode_wh"}


def _old_phase_energies(items, phase):
    """One ComponentEnergy per selected record or decomposition, as
    `aggregate` and `hist` each selected them."""
    if items and isinstance(items[0], Run):
        if phase == "decode":
            raise EmptySelection("decode statistics require decompositions, not raw records")
        want = RunKind.PREFILL_ONLY if phase == "prefill" else RunKind.FULL
        return [ComponentEnergy(r.gpu_wh, r.cpu_wh, r.ram_wh) for r in items if r.run_kind is want]
    return [getattr(d, _PHASE_FIELD[phase]) for d in items]


def _aggregate_oracle(items, phase):
    energies = _old_phase_energies(items, phase)
    if not energies:
        raise EmptySelection(f"no items match phase {phase!r}")
    components = {}
    for comp in COMPONENTS:
        values = np.array([getattr(e, comp) for e in energies], dtype=float)
        components[comp] = ComponentStats(float(np.mean(values)), float(np.std(values)), len(values),
                                          float(np.min(values)), float(np.max(values)))
    return EnergyStats(phase, components, sum(components[c].mean for c in COMPONENTS))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))  # repr shows every bit
    except InferwattError as exc:
        return type(exc), str(exc)


_stat_run = st.tuples(
    st.sampled_from(["p0", "p1", "p2", "p3"]),
    st.sampled_from(["m0", "m1"]),
    st.sampled_from([RunKind.PREFILL_ONLY, RunKind.FULL]),
    st.integers(1, 50),
    st.floats(min_value=1e-3, max_value=10.0),
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_stat_run, max_size=30))
def test_stats_and_hist_match_the_per_item_selection(runs):
    records = [Run(prompt, kind, 10, 1 if kind is RunKind.PREFILL_ONLY else g, t, *energy, model)
               for prompt, model, kind, g, t, energy in runs]
    table = RunTable.from_records(records)
    decomps = decompose(table)[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(write_records(table), encoding="utf-8")
        for phase, items, selected in (("prefill", table, records), ("full", table, records),
                                       ("decode", decomps, decomps)):
            assert _outcome(aggregate, items, phase) == _outcome(_aggregate_oracle, selected, phase)
            if phase != "decode":
                assert _outcome(aggregate, decomps, phase) == _outcome(_aggregate_oracle, decomps, phase)
            for component in COMPONENTS + ("total",):
                want = [getattr(e, component) for e in _old_phase_energies(selected, phase)]
                with mock.patch.object(cli, "histogram", wraps=histogram) as spy, \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli_dispatch(["hist", "--trace", str(path), "--phase", phase,
                                         "--component", component, "--bins", "3"], out=io.StringIO())
                if want:
                    # values too close together for three finite-sized bins are a data error
                    assert code == (2 if isinstance(_outcome(histogram, want, 3), tuple) else 0)
                    assert repr(np.asarray(spy.call_args.args[0]).tolist()) == repr(want)
                else:  # nothing selected
                    assert code == 2 and not spy.called
