import io
import json

import pytest

from inferwatt.bundled import data_path, REFERENCE_TRACE
from inferwatt.cli import cli_dispatch


def run_cli(*argv):
    out = io.StringIO()
    code = cli_dispatch(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "ref.csv"
    path.write_text(data_path(REFERENCE_TRACE).read_text(encoding="utf-8"))
    return str(path)


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
    ])
    def test_bad_argument_is_a_one_line_usage_error(self, argv, trace_file, capsys):
        code, out = run_cli(*(a.replace("{trace}", trace_file) for a in argv))
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert len([ln for ln in err.splitlines() if ln.startswith("error:")]) == 1, err
        assert "Traceback" not in err

    def test_usage_is_the_failing_subcommands(self, capsys):
        code, _ = run_cli("predict", "-s", "0", "-g", "5")
        err = capsys.readouterr().err
        assert code == 1
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
