import contextlib
import hashlib
import io
import json
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import backflow.cli as cli
import backflow.control as control
import backflow.detect as detect
from backflow.channel import KrausChannel, phi_t_kraus
from backflow.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_json(text):
    """Parse as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


class TestThreshold:
    def test_path_pure_control(self, runner):
        result = invoke(runner, "threshold", "--mode", "path", "--p", "1")
        assert result.exit_code == 0
        assert result.output.strip() == "0.707106781186548"

    def test_switch_pure_control(self, runner):
        result = invoke(runner, "threshold", "--mode", "switch", "--p", "1")
        assert result.exit_code == 0
        assert result.output.strip() == "0.632455532033676"

    def test_fully_mixed(self, runner):
        result = invoke(runner, "threshold", "--mode", "path", "--p", "0")
        assert result.output.strip() == "0"

    def test_rejects_unknown_mode(self, runner):
        result = runner.invoke(main, ["threshold", "--mode", "serial", "--p", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("p", ["1.5", "-1", "nan"])
    def test_rejects_p_outside_unit_interval(self, runner, p):
        # refused by the option, like the --p of detect, distance and evolve
        result = runner.invoke(main, ["threshold", "--mode", "path", "--p", p])
        assert result.exit_code == 2
        assert "Invalid value for '--p'" in result.output


class TestEvolve:
    def test_bare_series_schema(self, runner):
        result = invoke(runner, "evolve", "--mode", "bare", "--a", "0.65", "--t-max", "5")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == (
            "t,rho11_re,rho11_im,rho12_re,rho12_im,"
            "rho21_re,rho21_im,rho22_re,rho22_im,probability"
        )
        assert len(lines) == 1 + 201
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[-1] == 1.0

    def test_path_echoes_input_at_t_zero(self, runner):
        result = invoke(runner, "evolve", "--mode", "path", "--p", "1", "--t", "0")
        row = [float(v) for v in result.output.splitlines()[1].split(",")]
        assert row[1] == pytest.approx(1.0, abs=1e-12)  # rho11_re
        assert row[-1] == pytest.approx(0.5, abs=1e-12)  # probability

    def test_switch_long_time_populations(self, runner):
        result = invoke(
            runner, "evolve", "--mode", "switch", "--p", "1", "--input", "1,0,0,0", "--t", "10"
        )
        row = [float(v) for v in result.output.splitlines()[1].split(",")]
        assert row[1] == pytest.approx(3.0 / 7.0, abs=1e-8)
        assert row[7] == pytest.approx(4.0 / 7.0, abs=1e-8)

    def test_minus_outcome_impossible_exit_code(self, runner):
        result = runner.invoke(
            main, ["evolve", "--mode", "switch", "--p", "1", "--outcome", "minus", "--t", "0"]
        )
        assert result.exit_code == 3
        assert result.stderr == "error: post-selection impossible: outcome probability 0.000e+00\n"

    @pytest.mark.parametrize(
        "t_min, t_max, where",
        [("0.5", "0", "at t = 0.0 (1 of 3 times)"), ("0", "0", "at t = 0.0 (3 of 3 times)")],
    )
    def test_post_selection_failure_names_first_time(self, runner, t_min, t_max, where):
        # over several times the error names the first failing one and counts them
        args = ["evolve", "--mode", "switch", "--p", "1", "--outcome", "minus", "--t-min", t_min, "--t-max", t_max, "--points", "3"]
        result = runner.invoke(main, args)
        assert result.exit_code == 3 and result.stdout == ""
        assert result.stderr == f"error: post-selection impossible: outcome probability 0.000e+00 {where}\n"

    def test_requires_some_time_flag(self, runner):
        result = runner.invoke(main, ["evolve", "--mode", "bare"])
        assert result.exit_code == 2

    def test_rejects_invalid_input_state(self, runner):
        result = runner.invoke(main, ["evolve", "--mode", "bare", "--input", "2,0,0,0", "--t", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("0.5,nan,0,0.5", "density operator not Hermitian (residual nan)"),
            ("2,0,0,0", "density operator trace is (2+0j), expected 1"),
            ("1.5,0,0,-0.5", "density operator has negative eigenvalue -5.000e-01"),
        ],
        ids=["non-hermitian", "trace-2", "negative-eigenvalue"],
    )
    def test_input_refusal_text(self, runner, text, reason):
        result = runner.invoke(main, ["evolve", "--mode", "bare", "--input", text, "--t", "1"], prog_name="backflow")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "Usage: backflow evolve [OPTIONS]\n"
            "Try 'backflow evolve --help' for help.\n\n"
            f"Error: --input is not a density matrix: {reason}\n"
        )

    def test_rejects_conflicting_state_flags(self, runner):
        result = runner.invoke(
            main, ["evolve", "--mode", "bare", "--a", "0.5", "--input", "1,0,0,0", "--t", "1"]
        )
        assert result.exit_code == 2

    def test_json_schema(self, runner):
        result = invoke(
            runner, "evolve", "--mode", "path", "--p", "0.5", "--t", "1", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["command"] == "evolve"
        assert payload["mode"] == "path"
        assert set(payload["series"][0]) == {"t", "rho", "probability"}


class TestDistance:
    def test_single_time_value(self, runner):
        result = invoke(runner, "distance", "--mode", "bare", "--a", "0.65", "--t", "0")
        lines = result.output.splitlines()
        assert lines[0] == "t,distance"
        assert float(lines[1].split(",")[1]) == pytest.approx(np.sqrt(1 - 0.65**2))

    def test_negative_times_refused_in_one_line(self, runner):
        result = runner.invoke(main, ["distance", "--mode", "path", "--a", "0.5", "--t-min", "-1", "--t-max", "1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        # the option refuses its bound before any grid is built
        assert result.stderr.endswith("\nError: Invalid value for '--t-min': must be finite and >= 0, got -1.0\n")
        # the library refuses the same grid with the first refused time and the count, not the whole grid
        with pytest.raises(ValueError) as info:
            detect.probe_distance(cli._config_for("path", 1.0), 0.5, np.linspace(-1.0, 1.0, 201))
        assert str(info.value) == "time must be non-negative, got -1.0 (100 of 201 times)"

    def test_series_length(self, runner):
        result = invoke(
            runner, "distance", "--mode", "switch", "--a", "0.5", "--p", "0.8",
            "--t-max", "4", "--points", "41",
        )
        assert len(result.output.splitlines()) == 42

    @pytest.mark.parametrize("mode, last_row", [("path", "400,5e-201"), ("switch", "400,2.5e-201")])
    def test_tiny_a_at_p_zero_keeps_its_digits(self, runner, mode, last_row):
        # a * a and the u terms underflow; the rescaled forms print about a/2
        # and a/4 (the README's 5e-201), not 0
        result = invoke(runner, "distance", "--mode", mode, "--p", "0", "--a", "1e-200", "--t", "400")
        assert result.stdout.splitlines()[-1] == last_row


class TestDetect:
    def test_path_backflow_exit_code(self, runner):
        result = runner.invoke(main, ["detect", "--mode", "path", "--a", "0.65", "--p", "1"])
        assert result.exit_code == 1
        assert "# verdict: true" in result.output

    def test_switch_no_backflow(self, runner):
        result = runner.invoke(main, ["detect", "--mode", "switch", "--a", "0.65", "--p", "1"])
        assert result.exit_code == 0
        assert "# verdict: false" in result.output

    def test_bare_no_backflow(self, runner):
        result = runner.invoke(main, ["detect", "--mode", "bare", "--a", "0.3"])
        assert result.exit_code == 0
        assert "# verdict: false" in result.output

    def test_csv_header_and_series(self, runner):
        result = runner.invoke(
            main, ["detect", "--mode", "path", "--a", "0.65", "--points", "50"]
        )
        lines = result.output.splitlines()
        header_idx = lines.index("t,distance,derivative")
        assert len(lines) == header_idx + 1 + 50

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--t-min", "1", "--t-max", "1"], "0 < t_min < t_max"),
            (["--t-min", "5", "--t-max", "1"], "0 < t_min < t_max"),
        ],
    )
    def test_bad_time_grid_is_usage_error(self, runner, grid, message):
        result = runner.invoke(main, ["detect", "--mode", "path", "--a", "0.5", *grid])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1e-9"])
    def test_bad_eps_is_usage_error(self, runner, eps):
        result = runner.invoke(main, ["detect", "--mode", "path", "--a", "0.5", "--eps", eps])
        assert result.exit_code == 2
        assert "--eps" in result.output

    def test_zero_eps_accepted(self, runner):
        result = runner.invoke(main, ["detect", "--mode", "path", "--a", "0.65", "--eps", "0"])
        assert result.exit_code == 1
        assert "# verdict: true" in result.output

    @pytest.mark.parametrize("mode", ["path", "switch"])
    def test_small_a_succeeds(self, runner, mode):
        # the scan's default a_min; backflow persists at late times
        result = runner.invoke(main, ["detect", "--mode", mode, "--a", "0.005"])
        assert result.exit_code == 1
        assert "# verdict: true" in result.output

    def test_json_payload(self, runner):
        result = runner.invoke(
            main,
            ["detect", "--mode", "path", "--a", "0.65", "--points", "50", "--format", "json"],
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["verdict"] is True
        assert payload["intervals"]
        assert payload["intervals"][0][0] > 1.0


class TestScan:
    def test_row_count_and_order(self, runner):
        result = invoke(
            runner, "scan", "--a-points", "10", "--p-points", "7",
            "--a-min", "0.1", "--a-max", "0.9",
        )
        lines = result.output.splitlines()
        assert lines[0] == "a,p,path_backflow,switch_backflow"
        assert len(lines) == 1 + 70
        # p-major ordering: p constant in each block of 10 rows
        first_block = [line.split(",")[1] for line in lines[1:11]]
        assert len(set(first_block)) == 1

    def test_spot_cells(self, runner):
        result = invoke(
            runner, "scan", "--a-min", "0.65", "--a-max", "0.9", "--a-points", "2",
            "--p-min", "1", "--p-max", "1", "--p-points", "1",
        )
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert rows[0][2:] == ["true", "false"]
        assert rows[1][2:] == ["false", "false"]

    def test_containment_row_wise(self, runner):
        result = invoke(runner, "scan", "--a-points", "30", "--p-points", "20")
        for line in result.output.splitlines()[1:]:
            _, _, path_v, switch_v = line.split(",")
            assert not (switch_v == "true" and path_v == "false")

    def test_oversize_grid_rejected(self, runner):
        result = runner.invoke(main, ["scan", "--a-points", "2000", "--p-points", "2000"])
        assert result.exit_code == 2

    def test_has_no_eps_option(self, runner):
        # verdicts come from exact bracket roots; no tolerance is involved
        result = runner.invoke(main, ["scan", "--a-points", "2", "--p-points", "2", "--eps", "1e-9"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_late_t_max_keeps_every_window(self, runner):
        args = ["scan", "--a-points", "20", "--p-points", "20"]
        short = invoke(runner, *args, "--t-max", "12").output.splitlines()[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            long = invoke(runner, *args, "--t-max", "400").output.splitlines()[1:]
        assert len(short) == len(long) == 400
        for row_short, row_long in zip(short, long):
            a, p, *short_flags = row_short.split(",")
            assert row_long.split(",")[:2] == [a, p]
            for flag_short, flag_long in zip(short_flags, row_long.split(",")[2:]):
                assert flag_long == "true" or flag_short == "false"
        assert "0.005,1,true,true" in long

    def test_byte_stable(self, runner):
        args = ["scan", "--a-points", "12", "--p-points", "9"]
        first = invoke(runner, *args).output
        second = invoke(runner, *args).output
        assert first == second

    def test_has_no_thread_setting(self, runner):
        args = ["scan", "--a-points", "4", "--p-points", "3"]
        plain = runner.invoke(main, args)
        with_env = runner.invoke(main, args, env={"BACKFLOW_SCAN_THREADS": "abc"})
        assert plain.exit_code == with_env.exit_code == 0
        assert with_env.output == plain.output
        assert runner.invoke(main, args + ["--threads", "2"]).exit_code == 2

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        result = invoke(runner, "scan", "--a-points", "5", "--p-points", "5", "--out", str(out))
        assert result.exit_code == 0
        assert out.read_text().startswith("a,p,")


class TestValidate:
    def test_default_run_passes(self, runner):
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 0
        assert "all checks passed" in result.output
        for suite in ("cptp", "ode", "closed-form", "derivatives"):
            assert f"{suite}: PASS" in result.output

    def test_injected_defect_fails(self, runner, monkeypatch):
        # the lossy channel at t = 1 with its identity operator perturbed,
        # inside the stack of times the suite builds
        def perturbed(t):
            ops = phi_t_kraus(t).ops.copy()
            ops[np.asarray(t) == 1.0, 2] += 0.05 * np.eye(2)
            return KrausChannel(ops)

        monkeypatch.setattr(cli, "phi_t_kraus", perturbed)
        result = runner.invoke(main, ["validate", "--suite", "cptp"])
        assert result.exit_code == 4
        assert "cptp: FAIL" in result.output

    @pytest.mark.parametrize("suite", ["cptp", "ode", "closed-form", "derivatives"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_result_fails(self, runner, monkeypatch, suite):
        # one NaN entry where each suite reads its result: a failed check
        # (exit 4), neither a PASS nor a usage error
        name = {
            "cptp": "phi_t_kraus",
            "ode": "integrate_canonical",
            "closed-form": "closed_form_output",
            "derivatives": "analytic_derivative",
        }[suite]
        original = getattr(cli, name)

        def with_nan(*args, **kwargs):
            out = original(*args, **kwargs)
            if isinstance(out, KrausChannel):
                # the lossy channel at t = 1 only, as in test_injected_defect_fails
                out = KrausChannel(out.ops.copy())
                out.ops[np.asarray(args[0]) == 1.0, 0, 0, 0] = np.nan
                return out
            out = np.array(out)
            out.flat[0] = np.nan
            return out

        monkeypatch.setattr(cli, name, with_nan)
        result = runner.invoke(main, ["validate", "--suite", suite])
        assert result.exit_code == 4
        assert f"{suite}: FAIL" in result.output and "nan" in result.output
        assert "validation FAILED" in result.output

    def test_closed_form_suite_builds_each_supermap_once(self, runner, monkeypatch):
        # 3 p x 2 modes: each config's supermap is built once, as one stack
        # over the 4 times, and serves all 3 states; every build scales its
        # mode's template, which the mode's builder derives once
        control._joint_kraus.cache_clear()
        control._template.cache_clear()
        builds, builders = [], []
        original_build = control.build_supermap
        monkeypatch.setattr(control, "build_supermap", lambda *args: builds.append(1) or original_build(*args))
        for name in ("path_kraus", "switch_kraus"):
            original = getattr(control, name)
            monkeypatch.setattr(control, name, lambda *args, original=original: builders.append(1) or original(*args))
        result = runner.invoke(main, ["validate", "--suite", "closed-form"])
        assert result.exit_code == 0
        assert len(builds) == 3 * 2
        assert len(builders) == 2

    @pytest.mark.parametrize("suite", ["all", "cptp", "ode", "closed-form", "derivatives", "ode-long"])
    def test_stdout_is_pinned(self, runner, suite):
        # the literal stdout, recorded before the suites ran on stacks of
        # times and states: every printed residual digit is kept
        args = ["--suite", "ode", "--t", "0.5", "--t", "50"] if suite == "ode-long" else ["--suite", suite]
        lines = {
            "cptp": "cptp: PASS (worst completeness residual 4.441e-16, worst Choi eigenvalue -3.131e-16)\n",
            "ode": "ode: PASS (worst Kraus-vs-RK4 trace distance 2.157e-14)\n",
            "closed-form": "closed-form: PASS (worst closed-form vs supermap deviation 2.220e-16)\n",
            "derivatives": "derivatives: PASS (worst FD residual 6.955e-08)\n",
        }
        expected = "".join(lines.values()) if suite == "all" else lines[suite.replace("-long", "")]
        result = runner.invoke(main, ["validate", *args])
        assert result.exit_code == 0
        assert result.stdout == expected + "all checks passed\n"

    def test_ode_suite_single_time(self, runner):
        # 400 is the largest time accepted
        for t in ("5", "400"):
            result = runner.invoke(main, ["validate", "--suite", "ode", "--t", t])
            assert result.exit_code == 0
            assert "ode: PASS" in result.output
            residual = float(result.output.split("trace distance")[1].split(")")[0])
            assert residual < 1e-6

    def test_ode_suite_long_span(self, runner):
        # 50,000 RK4 steps at dt = 1e-3
        result = invoke(runner, "validate", "--suite", "ode", "--t", "0.5", "--t", "50")
        assert result.exit_code == 0
        assert "ode: PASS" in result.output

    def test_ode_checkpoints_sorted_and_deduplicated(self, runner):
        repeated = invoke(runner, "validate", "--suite", "ode", "--t", "5", "--t", "0.5", "--t", "5")
        distinct = invoke(runner, "validate", "--suite", "ode", "--t", "0.5", "--t", "5")
        assert repeated.exit_code == distinct.exit_code == 0
        assert repeated.output.splitlines()[0].startswith("ode: PASS")
        assert repeated.output.splitlines()[0] == distinct.output.splitlines()[0]

    # past t = 400 the channel no longer changes; 1e6 would take 10^9 RK4 steps
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e308", "1e6", "400.5"])
    def test_bad_ode_time_is_usage_error(self, runner, value):
        result = runner.invoke(main, ["validate", "--suite", "ode", "--t", value])
        assert result.exit_code == 2
        assert "--t" in result.output


_SERIES_COMMANDS = {
    "evolve": ["evolve", "--p", "0.7", "--t-max", "5"],
    "distance": ["distance", "--a", "0.4", "--p", "0.7", "--t-max", "5"],
    "detect": ["detect", "--a", "0.4", "--p", "0.7"],
}
_SERIES_EXTRA = {
    "evolve-switch-minus": ["evolve", "--mode", "switch", "--p", "0.7", "--outcome", "minus", "--t-max", "5", "--points", "21"],
    "evolve-path-input": ["evolve", "--mode", "path", "--p", "0.3", "--input", "0.6,0.2,-0.1,0.4", "--t-max", "5", "--points", "21"],
    "detect-switch-windows": ["detect", "--mode", "switch", "--a", "0.3", "--p", "0.7"],
}


def _series_case(case):
    """The arguments of a pinned series case, and the ROW_BLOCK it runs with
    (None: the module's own)."""
    *name, fmt = case.split("-")
    if "-".join(name) in _SERIES_EXTRA:
        return [*_SERIES_EXTRA["-".join(name)], "--format", fmt], None
    command, mode, points = name
    row_block = 8 if command == "evolve" and points == "long" else None
    count = {"short": "21", "long": "17" if row_block else "32769"}[points]
    return [*_SERIES_COMMANDS[command], "--mode", mode, "--points", count, "--format", fmt], row_block


_SERIES_DIGESTS = {
    "evolve-bare-short-csv": (0, "35d21c2ffb1c4d829d8b668660a9baa2c6d4cba45bbcde0264de56f01935813a"),
    "evolve-bare-short-json": (0, "6b778af5be600e5b193f0f6e621f7ac900d4c6bc8b6ded4bf92b4aee77e33027"),
    "evolve-bare-long-csv": (0, "6e2409c5e1a633b2a0d3c5aa4775eb72410eb0cd34bfe06bd360681f0713811b"),
    "evolve-bare-long-json": (0, "6cfc3f66d4cd8fea84003fa39df0bcf42d03eb46b3fcfd702030f3b7591b5b90"),
    "evolve-path-short-csv": (0, "b3a2892072864f307926e562971ce216272ac8ff3fff31e564706a564c747784"),
    "evolve-path-short-json": (0, "4e32f72a2b7edf0eed5037373c1eadccaf75596760b415a99022f8bee110a9ea"),
    "evolve-path-long-csv": (0, "5e59c2e64da525587660e97fe109c475174b07eb3201891e8d8522bee6957141"),
    "evolve-path-long-json": (0, "f416bc547b000abedec5ecfc37f0ae3f2f6540d37aff4f7a9241354259430de7"),
    "evolve-switch-short-csv": (0, "70b414c3e0db37094ba3f8cc2e4868143a82716efd3b77db77e3da3fcebd743b"),
    "evolve-switch-short-json": (0, "edbc1c6f9b026f4f6ca0038a98878f7fdb3b3150a9c4d5726ade75c2b6ea0b14"),
    "evolve-switch-long-csv": (0, "e48591f02ba73a3f0b434b16602510b7e6f0fe2259e92ba05c4707f788ff68e4"),
    "evolve-switch-long-json": (0, "37a066eff35910a9edf829349e9a8049a9903c3f54ef1b9c45e989090cdb3259"),
    "distance-bare-short-csv": (0, "d1cd6471dc96da128c104566a5c76efa11a39671c800ae0db8f3166872d4af28"),
    "distance-bare-short-json": (0, "1c9c8502c7281ef143e9bcb4f606d4032866c1e5870c3ec3e015324137d4ee8a"),
    "distance-bare-long-csv": (0, "b0834ed399eeeb0f2d2d894146c831af4a5d93f8b0b26f2831035dfa79471bba"),
    "distance-bare-long-json": (0, "9da6f2ea73154c96349efab6bb8b5cf27aba0385e8ba984efdfdabe1a8b22785"),
    "distance-path-short-csv": (0, "66a2e888784dd915b53924da2c37c7b1e4e93b8282efaef67147f9c3a759dd0a"),
    "distance-path-short-json": (0, "c753eed95197062fd29c83f25dea8e37a28dc4b610667ba65fa2a616eed61ecf"),
    "distance-path-long-csv": (0, "da2374396a15e5b073db2783252ef35cf92e406ec711d81ffdbba626910f524b"),
    "distance-path-long-json": (0, "3943aa9df099d2cfc764c0c2bd1199b50e914bfffc659b46e904c3be43a376a9"),
    "distance-switch-short-csv": (0, "56a17e180cfda5855a26c134f6494e7cbbd21151d1b231465df40768a3ebada3"),
    "distance-switch-short-json": (0, "ad4d881e1e1a2091e1d814f09bf14bff8e8d70b1cc5f71cdcfda4a323e777d8d"),
    "distance-switch-long-csv": (0, "5fd144e9d17adf0e6f74071c7235aff30c532a1cf46c343f120f8d026e5d0945"),
    "distance-switch-long-json": (0, "19aa82f1f8f4cc0aad53fbe2f8e146c1167bdf30a249b9dce616c0fff6e1d376"),
    "detect-bare-short-csv": (0, "140b6a06797a226f928fea17e42aec559db9d13b3fa482c4186983487b057b67"),
    "detect-bare-short-json": (0, "477ba11d2715077ab0c7639ff4d6cd4436fc82a369aba883bef4d600b2b3f975"),
    "detect-bare-long-csv": (0, "13c44aba7ee1c45135ede256ca6999fd7a9407d51b20c793d91e55e5a76bd720"),
    "detect-bare-long-json": (0, "cd552e770f6974ea2d0e56f6d91be85e68f0b6607ea472825b0d7a49b8257b02"),
    "detect-path-short-csv": (1, "9fdabbefd357bcd7c4a7d00773b453533b86d5987107fb221996e5f12d8dda94"),
    "detect-path-short-json": (1, "bb32fc59db438b89ab04f3ee5a269f2bd2e7d95ef3fdcac61d3cdb059ae66644"),
    "detect-path-long-csv": (1, "e8d7c75b33ba4b9ee40e31cfd8af32976d30dc54e96b5ad6f91ae22f874f181f"),
    "detect-path-long-json": (1, "8bf67f312354c63b92cb90b1df866cb95044d88efa95117ca03196020424c0bc"),
    "detect-switch-short-csv": (1, "f62c53dd784b8b75834328aa9f2f6050a934690184a3ab70f1794676eb5ffa61"),
    "detect-switch-short-json": (1, "04e258d6cd694a2541da9f51b09c0306131eb7150fed3351a6adf879878086b7"),
    "detect-switch-long-csv": (1, "159232b15f4e995cdb11dd1407b3282f639079e1220f16956579c976a92b538a"),
    "detect-switch-long-json": (1, "ca90923f7e93de904b87e3bcf2e269e45949abfd1665066574bedf71f757d8ad"),
    "evolve-switch-minus-csv": (0, "21554eb0074c68018ccdc94df587a630673998538dec6c5cc2c7523b5a7a9183"),
    "evolve-switch-minus-json": (0, "49286d6956d41e756bd23fb38381049a77bb56a87b5d66412b155e8da23e5423"),
    "evolve-path-input-csv": (0, "5599365926e24a0236fa04df2904aaf62144bdedc5d72a56ec41adf1b1ca7315"),
    "evolve-path-input-json": (0, "443e9d145c7cb5d71ee028b32cb70af2ebb487649e5d4cd3bf209e95c0a9364f"),
    "detect-switch-windows-csv": (1, "03a2381119b94bd7e6bb1a91b5c97a0cb2d6df59ff1b9896f1dac0a5a8350ddb"),
    "detect-switch-windows-json": (1, "032abffc3e84b032aac82ea955335020217075dea87e34b7ea106e25d9ba308f"),
}


class TestByteStability:
    def test_detect_deterministic(self, runner):
        args = ["detect", "--mode", "path", "--a", "0.65", "--points", "60"]
        first = runner.invoke(main, args).output
        second = runner.invoke(main, args).output
        assert first == second

    def test_evolve_deterministic(self, runner):
        args = ["evolve", "--mode", "switch", "--p", "0.7", "--t-max", "3", "--points", "20"]
        assert invoke(runner, *args).output == invoke(runner, *args).output

    # stdout sha256 recorded before the brackets were derived from the Bloch
    # rows; the scan verdicts must not move by a byte
    @pytest.mark.parametrize(
        "args, digest",
        [
            ([], "f6ec6938c658bb1ffe125044083bda1f2a5475856c9b98a17cb98881b3448c94"),
            (["--format", "json"], "63a5d0ad7db3cf90dccdfdc251e0a07b2d5b84a6e24caf2db3a6fcf6834e8411"),
            (
                ["--t-max", "400", "--a-points", "300", "--p-points", "300"],
                "b7b8aa7d02c415afa11f093d8be1dec0cd9963eaaaf0d06bd0e6bf3d9c6b2599",
            ),
            # recorded while every cell was still decided on its own and the
            # text built whole: at 100x100 and 1000x1000, then the benchmark's
            # scan argument vectors of seeds 3 and 11
            (["--a-points", "100", "--p-points", "100", "--t-max", "1"], "ea663575aebc1ed25ac46b45bfc0d81b2cd3f479ba7ff62703692cd55d9bef34"),
            (["--a-points", "100", "--p-points", "100", "--t-max", "1", "--format", "json"], "d6f080f9613e19b99ddce724d93e018610d897e8634aaa27832c3353c1ca9092"),
            (["--a-points", "100", "--p-points", "100", "--t-max", "400"], "f6ec6938c658bb1ffe125044083bda1f2a5475856c9b98a17cb98881b3448c94"),
            (["--a-points", "100", "--p-points", "100", "--t-max", "400", "--format", "json"], "63a5d0ad7db3cf90dccdfdc251e0a07b2d5b84a6e24caf2db3a6fcf6834e8411"),
            (["--a-points", "1000", "--p-points", "1000", "--t-max", "1"], "e7e741fceb932fcc575767cdd0f696bbfd8bde45ecf20290e7d5d2c66ed2e391"),
            (["--a-points", "1000", "--p-points", "1000", "--t-max", "1", "--format", "json"], "8749c44f6b853a3ba5be5ed7a4833aec9b187860b2bcfd61f898d517e621c964"),
            (["--a-points", "1000", "--p-points", "1000", "--t-max", "12"], "c8dcb6d805770a2ae16aebadeda06375aa6a52dd7b2d8a2c8d511dffe9d9580d"),
            (["--a-points", "1000", "--p-points", "1000", "--t-max", "12", "--format", "json"], "abb451c9f057a9e693391b6d77f484fe2644bdbc08e7f10fe15131cba7ef9cbb"),
            (["--a-points", "1000", "--p-points", "1000", "--t-max", "400"], "c8dcb6d805770a2ae16aebadeda06375aa6a52dd7b2d8a2c8d511dffe9d9580d"),
            (["--a-points", "1000", "--p-points", "1000", "--t-max", "400", "--format", "json"], "abb451c9f057a9e693391b6d77f484fe2644bdbc08e7f10fe15131cba7ef9cbb"),
            (
                ["--a-min", "0.01639638850326191", "--a-max", "0.9683238736076898", "--a-points", "450", "--p-min", "0.023654703281564944", "--p-max", "0.9713722686999339", "--p-points", "100"],
                "0a52b23c3fd333e91db8ccd436dced411a2e018479fefe6e31c5a61a6e5c1960",
            ),
            (
                ["--a-min", "0.029244260920216033", "--a-max", "0.9907943806029645", "--a-points", "100", "--p-min", "0.02314654397932874", "--p-max", "0.976076507237186", "--p-points", "450"],
                "8b822b41684cba32d3d15ebbaf4f412b66c3251fd07102978b854778f1dea7b4",
            ),
            (
                ["--a-min", "0.038651224131139944", "--a-max", "0.9783215650346065", "--a-points", "450", "--p-min", "0.033446268505183535", "--p-max", "0.9643639012086842", "--p-points", "100"],
                "bbefc766c6d1b2487321a565022828a613f78c5a17a4a0851ebec414fd3d9e39",
            ),
            (
                ["--a-min", "0.02029475712261644", "--a-max", "0.9922696416937996", "--a-points", "100", "--p-min", "0.010318083229009551", "--p-max", "0.9637135981180694", "--p-points", "450"],
                "17c00ec11f661f7086933f3e1ee68f0539e7cabdfb0138edb690efcc591733d1",
            ),
            (
                ["--a-min", "0.014107583383918425", "--a-max", "0.9914988903527817", "--a-points", "450", "--p-min", "0.04684480107269667", "--p-max", "0.9809680271458043", "--p-points", "100"],
                "7812beabc8184b27052f7349e0ec850ec535c6e92c0492a5439d411a93ff7819",
            ),
            (
                ["--a-min", "0.0394855867049419", "--a-max", "0.9935708301362497", "--a-points", "100", "--p-min", "0.024373763654422752", "--p-max", "0.9994385494957619", "--p-points", "450"],
                "a91d721dd148e412308aadf70c08464a20e32b1c6dcc1c43f0aca304b5bf207e",
            ),
            (
                ["--a-min", "0.0486780606918957", "--a-max", "0.9675194667342691", "--a-points", "450", "--p-min", "0.049067556161984646", "--p-max", "0.9912657807765801", "--p-points", "100"],
                "9ab3cf9213f4c1d3280e0a51f215fc62db4bbfc084adf4922408ebd5e522e5e5",
            ),
            (
                ["--a-min", "0.04673086304338597", "--a-max", "0.9517746235321213", "--a-points", "100", "--p-min", "0.010423396665521261", "--p-max", "0.9952138356288212", "--p-points", "450"],
                "9e5a266c51bed488ef993c0befab79fb17aee012e21e971b499276894571fc5b",
            ),
        ],
        ids=[
            "csv", "json", "t-max-400-300x300",
            *(f"{fmt}-{size}x{size}-t-max-{t}" for size, t in ((100, 1), (100, 400), (1000, 1), (1000, 12), (1000, 400)) for fmt in ("csv", "json")),
            *(f"seed-{seed}-{shape}-{pair}" for seed in (3, 11) for pair in (1, 2) for shape in ("wide", "tall")),
        ],
    )
    def test_scan_bytes_are_pinned(self, runner, args, digest):
        result = invoke(runner, "scan", *args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest
        if "json" in args:
            strict_json(result.output)

    # stdout sha256 recorded before the JSON writer drew its layouts from
    # json.dumps: each series command in each mode, at 21 points and at
    # 2 * 16384 + 1 points, which crosses row blocks; evolve's long cases
    # cross theirs at 17 points with ROW_BLOCK set to 8
    @pytest.mark.parametrize("case", sorted(_SERIES_DIGESTS))
    def test_series_bytes_are_pinned(self, runner, monkeypatch, case):
        args, row_block = _series_case(case)
        if row_block:
            monkeypatch.setattr(cli, "ROW_BLOCK", row_block)
        result = runner.invoke(main, args)
        assert result.stderr == ""
        code, digest = _SERIES_DIGESTS[case]
        assert (result.exit_code, hashlib.sha256(result.stdout.encode()).hexdigest()) == (code, digest)
        if "json" in args:
            strict_json(result.stdout)

    @pytest.mark.parametrize(
        "args",
        [
            ["scan", "--a-points", "30", "--p-points", "20"],
            ["scan", "--a-points", "30", "--p-points", "20", "--format", "json"],
            ["detect", "--mode", "switch", "--a", "0.3", "--points", "40"],
            ["detect", "--mode", "path", "--a", "0.3", "--points", "40", "--format", "json"],
            ["validate", "--suite", "closed-form"],
        ],
        ids=["scan-csv", "scan-json", "detect-csv", "detect-json", "validate"],
    )
    def test_output_to_a_redirected_stdout(self, runner, args):
        # the text output reaches whatever sys.stdout is at call time, as
        # str: an io.StringIO takes the same text as the runner's capture
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(args, standalone_mode=False)
        expected = runner.invoke(main, args)
        assert (code or 0) == expected.exit_code
        assert buf.getvalue() == expected.stdout

    # thresholds recorded at the same point: p = 0 and p = 1 exactly, others
    # to one unit in the 15th significant digit
    @pytest.mark.parametrize(
        "mode, p, printed",
        [
            ("path", "0", "0"),
            ("path", "0.5", "0.577350269189626"),
            ("path", "1", "0.707106781186548"),
            ("switch", "0", "0"),
            ("switch", "0.5", "0.377964473009227"),
            ("switch", "1", "0.632455532033676"),
        ],
    )
    def test_threshold_output_is_pinned(self, runner, mode, p, printed):
        result = invoke(runner, "threshold", "--mode", mode, "--p", p)
        assert result.exit_code == 0
        if p in ("0", "1"):
            assert result.output == printed + "\n"
        else:
            assert abs(float(result.output) - float(printed)) <= 1e-15


class TestSeriesFormats:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["evolve", "distance", "detect"]),
        mode=st.sampled_from(["bare", "path", "switch"]),
        a=st.floats(0.01, 0.99),
        p=st.floats(0.0, 1.0),
        t_min=st.floats(0.01, 10.0),
        span=st.floats(0.01, 30.0),
        points=st.integers(2, 12),
    )
    def test_csv_and_json_carry_the_same_series(self, command, mode, a, p, t_min, span, points):
        args = [
            command, "--mode", mode, "--a", repr(a), "--p", repr(p),
            "--t-min", repr(t_min), "--t-max", repr(t_min + span), "--points", str(points),
        ]
        csv_result = CliRunner().invoke(main, args)
        json_result = CliRunner().invoke(main, [*args, "--format", "json"])
        assert csv_result.exit_code == json_result.exit_code
        assert csv_result.exit_code in {0, 1}
        header, *lines = [line for line in csv_result.stdout.splitlines() if not line.startswith("#")]
        csv_rows = [[float(v) for v in line.split(",")] for line in lines]
        series = strict_json(json_result.stdout)["series"]
        if command == "evolve":
            assert all(list(entry) == ["t", "rho", "probability"] for entry in series)
            json_rows = [[entry["t"], *(v for pair in entry["rho"] for v in pair), entry["probability"]] for entry in series]
        else:
            assert all(list(entry) == header.split(",") for entry in series)
            json_rows = [list(entry.values()) for entry in series]
        assert len(csv_rows) == points
        assert json_rows == csv_rows

    @pytest.mark.parametrize(
        "args, codes",
        [
            (["evolve", "--t-max", "5", "--points", "21"], {"bare": 0, "path": 0, "switch": 0}),
            (["distance", "--a", "0.5", "--t-max", "5", "--points", "21"], {"bare": 0, "path": 0, "switch": 0}),
            # exit 1 is the backflow verdict
            (["detect", "--a", "0.3"], {"bare": 0, "path": 1, "switch": 1}),
        ],
        ids=["evolve", "distance", "detect"],
    )
    @pytest.mark.parametrize("mode", ["bare", "path", "switch"])
    def test_json_is_strict(self, runner, args, codes, mode):
        result = runner.invoke(main, [*args, "--mode", mode, "--format", "json"])
        assert result.exit_code == codes[mode]
        strict_json(result.stdout)

    def test_scan_json_is_strict(self, runner):
        strict_json(invoke(runner, "scan", "--a-points", "20", "--p-points", "20", "--format", "json").stdout)

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 400.0, 1e300, -1e300]),
                    st.floats(1e15, 1e16, exclude_max=True),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                min_size=6,
                max_size=6,
            ),
            min_size=1,
            max_size=10,
        ),
        shaped=st.booleans(),
        a=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_json_series_is_json_dumps(self, rows, shaped, a):
        # the writer's output is json.dumps of the whole document, byte for
        # byte, with rows on both sides of a block boundary (ROW_BLOCK 3);
        # a value that rounds to inf at 15 digits is refused before any output
        payload = {"command": "series", "a": a, "verdict": True, "intervals": [[0.5, 1.0]]}
        header = "t,x,y,z,w,probability"
        entry = (lambda r: {"t": r[0], "rho": [r[1:3], r[3:5]], "probability": r[5]}) if shaped else None
        rounded = [[float(f"{v:.15g}") for v in row] for row in rows]
        series = [entry(row) if shaped else dict(zip(header.split(","), row)) for row in rounded]
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buf):
            mp.setattr(cli, "ROW_BLOCK", 3)
            try:
                expected = json.dumps({**payload, "series": series}, indent=2, allow_nan=False) + "\n"
            except ValueError:
                with pytest.raises(click.UsageError, match="JSON output cannot carry a non-finite value"):
                    cli._write_series("json", None, payload, header, np.array(rows).T, entry=entry)
                expected = ""
            else:
                cli._write_series("json", None, payload, header, np.array(rows).T, entry=entry)
        assert buf.getvalue() == expected

    @settings(max_examples=40, deadline=None)
    @given(
        a_ends=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=2),
        p_ends=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=2, max_size=2),
        a_points=st.integers(1, 40),
        p_points=st.integers(1, 8),
        t_max=st.sampled_from(["0.75", "3", "12", "400"]),
    )
    def test_json_scan_is_json_dumps(self, a_ends, p_ends, a_points, p_points, t_max):
        args = [
            "scan", "--a-min", repr(a_ends[0]), "--a-max", repr(a_ends[1]), "--a-points", str(a_points),
            "--p-min", repr(p_ends[0]), "--p-max", repr(p_ends[1]), "--p-points", str(p_points),
            "--t-max", t_max, "--format", "json",
        ]
        result = CliRunner().invoke(main, args)
        a_grid, p_grid = np.linspace(*a_ends, a_points), np.linspace(*p_ends, p_points)
        scan = detect.scan_region(a_grid, p_grid, t_max=float(t_max))
        document = {
            "command": "scan",
            "a_grid": [float(f"{v:.15g}") for v in a_grid.tolist()],
            "p_grid": [float(f"{v:.15g}") for v in p_grid.tolist()],
            "backflow_path": scan.backflow_path.tolist(),
            "backflow_switch": scan.backflow_switch.tolist(),
        }
        assert result.exit_code == 0
        assert result.stdout == json.dumps(document, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_series_spans_row_blocks(self, runner, extra):
        # rows become Python floats a block at a time; none is lost or repeated
        points = 2 * cli.ROW_BLOCK + extra
        args = ["distance", "--mode", "path", "--a", "0.5", "--t-max", "3", "--points", str(points)]
        lines = invoke(runner, *args).stdout.splitlines()[1:]
        times = np.linspace(0.0, 3.0, points)
        assert [float(line.split(",")[0]) for line in lines] == [float(f"{t:.15g}") for t in times]
        series = strict_json(invoke(runner, *args, "--format", "json").stdout)["series"]
        assert [[entry["t"], entry["distance"]] for entry in series] == [
            [float(v) for v in line.split(",")] for line in lines
        ]

    @pytest.mark.parametrize(
        "args",
        [
            ["distance", "--mode", "bare", "--a", "0.5", "--t", "inf"],
            ["evolve", "--mode", "path", "--t", "inf"],
        ],
        ids=["distance", "evolve"],
    )
    def test_json_refuses_an_infinite_time(self, runner, args):
        # RFC 8259 has no Infinity; the CSV form prints inf
        result = runner.invoke(main, [*args, "--format", "json"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "JSON output cannot carry a non-finite value" in result.stderr
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1].startswith("inf,")

    def test_json_refuses_a_late_value_that_rounds_to_inf(self, runner):
        # the largest float prints as inf at 15 digits; it is the last row,
        # in the second block of rows, and is still refused before any output
        args = [
            "distance", "--mode", "bare", "--a", "0.5", "--t-max", "1.7976931348623157e308",
            "--points", str(cli.ROW_BLOCK + 1), "--format", "json",
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "JSON output cannot carry a non-finite value" in result.stderr


_SUBNORMAL_A = [(mode, a) for mode in ("bare", "path", "switch") for a in ("1e-310", "1e-320", "5e-324")]


# every count option with a value out of its range or not an integer, each
# linear time bound not finite or negative, with and without --t, each log
# time grid bound, and each bound of a scan's ranges: the arguments, the
# option named, and the text its rule gives after the option's name (a
# count's comes from click)
_SERIES_BASES = {"evolve": ["evolve", "--mode", "bare"], "distance": ["distance", "--mode", "bare", "--a", "0.5"]}
_TIME_FLAGS = {"t": ["--t", "1"], "range": ["--t-max", "1"]}
_NOT_FINITE = "must be finite and >= 0, got "
# 10^15 points would be a 7 PiB grid: refused before numpy tries to allocate it
_BAD_COUNTS = ("0", "-1", "1000001", "1.5", "1000000000000000")
_OPTION_REFUSALS = [
    *(
        pytest.param([*base, *flag, "--points", value], "--points", "", id=f"{name}-{kind}--points={value}")
        for name, base in _SERIES_BASES.items() for kind, flag in _TIME_FLAGS.items() for value in _BAD_COUNTS
    ),
    *(
        pytest.param([*base, option, value], option, "", id=f"{base[0]}{option}={value}")
        for base, option in ((["scan"], "--a-points"), (["scan"], "--p-points"), (["detect", "--mode", "path", "--a", "0.5"], "--points"))
        for value in ("0", "-1", "1000001", "1.5")
    ),
    pytest.param(["detect", "--mode", "path", "--a", "0.5", "--points", "1"], "--points", "", id="detect--points=1"),
    pytest.param(["detect", "--mode", "bare", "--a", "0.5", "--points", "1000000000000000"], "--points", "", id="detect-bare--points=1000000000000000"),
    *(
        pytest.param([*base, *flag, option, value], option, _NOT_FINITE, id=f"{name}-{kind}{option}={value}")
        for name, base in _SERIES_BASES.items()
        for option, flags in (("--t-min", _TIME_FLAGS), ("--t-max", {**_TIME_FLAGS, "range": []}))
        for kind, flag in flags.items()
        for value in ("nan", "inf", "-1")
    ),
    # the supermap modes read the same rules, before np.linspace, whose NaN would reach the time check
    pytest.param(["distance", "--mode", "path", "--a", "0.5", "--t-max", "inf", "--points", "5"], "--t-max", _NOT_FINITE, id="distance-path--t-max=inf"),
    pytest.param(["evolve", "--mode", "path", "--t-max", "inf"], "--t-max", _NOT_FINITE, id="evolve-path--t-max=inf"),
    pytest.param(["evolve", "--mode", "switch", "--t-min", "-inf", "--t-max", "1"], "--t-min", _NOT_FINITE, id="evolve-switch--t-min=-inf"),
    # detect's log grid bounds, and scan's window end, which must pass its start DEFAULT_T_MIN
    *(
        pytest.param(["detect", "--mode", "path", "--a", "0.5", option, value], option, "must be finite and > 0, got ", id=f"detect{option}={value}")
        for option in ("--t-min", "--t-max")
        for value in ("0", "-1", "nan", "inf")
    ),
    *(
        pytest.param(["scan", "--t-max", value], "--t-max", "must be finite and > 0.01, got ", id=f"scan--t-max={value}")
        for value in ("0.001", "0.01", "-1", "nan", "inf")
    ),
    *(
        pytest.param(["scan", option, value, "--a-points", "3", "--p-points", "3"], option, f"must lie in {interval}, got ", id=f"scan{option}={value}")
        for option, interval, values in (
            ("--a-min", "(0, 1]", ("0", "-0.5", "1.5", "nan")),
            ("--a-max", "(0, 1]", ("0", "1.5", "nan")),
            ("--p-min", "[0, 1]", ("-0.1", "1.5", "nan")),
            ("--p-max", "[0, 1]", ("-0.1", "1.5", "nan")),
        )
        for value in values
    ),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "args, code",
        [
            (["threshold", "--mode", "path", "--p", "2"], 2),
            (["threshold", "--mode", "switch", "--p", "nan"], 2),
            (["distance", "--mode", "path", "--a", "0", "--t", "1"], 2),
            (["scan", "--a-min", "0", "--a-points", "3", "--p-points", "3"], 2),
            (["evolve", "--mode", "bare", "--t", "-1"], 2),
            (["detect", "--mode", "path", "--a", "1"], 2),
            (["detect", "--mode", "path", "--a", "0.5", "--p", "1.5"], 2),
            # once an overflow (exit 4); the u-forms stay finite, so backflow (exit 1)
            (["detect", "--mode", "switch", "--a", "0.3", "--t-max", "400"], 1),
            (["detect", "--mode", "path", "--a", "0.5", "--t-max", "inf"], 2),
            (["evolve", "--mode", "bare", "--input", "nan,0,0,nan", "--t", "1"], 2),
            (["evolve", "--mode", "path", "--t", "nan"], 2),
            (["distance", "--mode", "path", "--a", "0.5", "--t", "-1"], 2),
            (["distance", "--mode", "switch", "--a", "0.5", "--t-min", "-2", "--t-max", "1", "--points", "3"], 2),
            (["distance", "--mode", "switch", "--a", "0.5", "--t", "nan"], 2),
            (["scan", "--a-min", "nan", "--a-points", "3", "--p-points", "2"], 2),
            (["scan", "--p-max", "nan", "--a-points", "2", "--p-points", "2"], 2),
            # a * a underflows at a = 1e-200; the rescaled bare forms stay finite
            (["detect", "--mode", "bare", "--a", "1e-200", "--t-max", "400"], 0),
            # at p = 0 the u terms underflow too; the rescaled forms stay finite
            (["detect", "--mode", "path", "--p", "0", "--a", "1e-200", "--t-max", "400"], 0),
            (["detect", "--mode", "switch", "--p", "0", "--a", "1e-200", "--t-max", "400"], 0),
            # bare mode ignores --p but still refuses one outside [0, 1]
            (["distance", "--mode", "bare", "--a", "0.5", "--p", "7", "--t", "1"], 2),
            (["detect", "--mode", "bare", "--a", "0.5", "--p", "nan"], 2),
            (["evolve", "--mode", "bare", "--p", "7", "--t", "1", "--format", "json"], 2),
            (["evolve", "--mode", "bare", "--p", "-0.5", "--t", "1"], 2),
            (["evolve", "--mode", "path", "--p", "nan", "--t", "1"], 2),
            (["distance", "--mode", "switch", "--a", "0.5", "--p", "1.5", "--t", "1"], 2),
            (["detect", "--mode", "switch", "--a", "0.5", "--p", "-1"], 2),
            # a non-finite time bound is refused before it reaches np.linspace
            (["distance", "--mode", "path", "--a", "0.5", "--t-max", "inf", "--points", "5"], 2),
            (["evolve", "--mode", "path", "--t-max", "inf"], 2),
            # -2t and the grid's steps stay finite up to the largest float
            (["distance", "--mode", "bare", "--a", "0.5", "--t", "1e308"], 0),
            (["distance", "--mode", "path", "--a", "0.5", "--t", "1e308"], 0),
            (["evolve", "--mode", "bare", "--t", "1e308"], 0),
            (["evolve", "--mode", "switch", "--t", "1e308"], 0),
            (["detect", "--mode", "path", "--a", "0.3", "--t-max", "1e308", "--points", "5"], 1),
            (["distance", "--mode", "bare", "--a", "0.5", "--t", "700"], 0),
            # the paper's p = 1 forms in e^{2t} overflow here; the u-forms do not
            (["detect", "--mode", "path", "--p", "1", "--a", "0.5", "--t-max", "400"], 1),
            # the bare channel has no control, so no outcome but the default to post-select
            (["evolve", "--mode", "bare", "--outcome", "minus", "--t", "1", "--format", "json"], 2),
            # below 2^-1022 the rescale stays a normal number, down to the smallest subnormal a
            *((["detect", "--mode", mode, "--p", "0", "--a", a, "--t-max", "400"], 0) for mode, a in _SUBNORMAL_A),
        ],
        ids=[
            "threshold-p", "threshold-p-nan", "distance-a", "scan-a-min", "evolve-t", "detect-a",
            "detect-p", "detect-overflow", "detect-t-max-inf",
            "evolve-input-nan", "evolve-t-nan", "distance-t-negative", "distance-t-min-negative",
            "distance-t-nan", "scan-a-min-nan", "scan-p-max-nan", "detect-bare-tiny-a",
            "detect-path-tiny-a", "detect-switch-tiny-a", "distance-bare-p", "detect-bare-p-nan",
            "evolve-bare-p", "evolve-bare-p-negative", "evolve-path-p-nan", "distance-switch-p",
            "detect-switch-p-negative", "distance-t-max-inf", "evolve-t-max-inf",
            "distance-bare-t-1e308", "distance-path-t-1e308", "evolve-bare-t-1e308",
            "evolve-switch-t-1e308", "detect-path-t-max-1e308", "distance-bare-t-700",
            "detect-path-p1-t-max-400", "evolve-bare-minus",
            *(f"detect-{mode}-subnormal-a-{a}" for mode, a in _SUBNORMAL_A),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_library_errors_map_to_exit_codes(self, runner, args, code):
        result = runner.invoke(main, args)
        assert result.exit_code == code
        # a command that succeeds returns normally; every other code comes from SystemExit
        assert isinstance(result.exception, SystemExit) if code else result.exception is None
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["distance", "--mode", "bare", "--a", "0.5", "--t", "1"],
            ["evolve", "--mode", "bare", "--t", "1"],
            ["detect", "--mode", "path", "--a", "0.65"],
            ["scan", "--a-points", "3", "--p-points", "3"],
        ],
        ids=["distance", "evolve", "detect", "scan"],
    )
    def test_out_into_missing_directory_is_a_usage_error(self, runner, tmp_path, args):
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "missing" / "out.csv")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--out'" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["evolve", "--mode", "bare", "--input", "1,0,x,0", "--t", "1"], "--input must be four comma-separated reals: could not convert string to float: 'x'"),
            (["evolve", "--mode", "bare", "--input", "1,0,0", "--t", "1"], "--input must have exactly four entries: rho11,re12,im12,rho22"),
            (["distance", "--mode", "bare", "--a", "0.5", "--t-max", "1", "--points", "0"], "Invalid value for '--points': 0 is not in the range 1<=x<=1000000."),
            (["scan", "--a-points", "0"], "Invalid value for '--a-points': 0 is not in the range 1<=x<=1000000."),
        ],
        ids=["input-not-numeric", "input-three-entries", "points-zero", "scan-a-points-zero"],
    )
    def test_malformed_input_and_empty_grids_are_usage_errors(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(f"\nError: {message}\n")

    # the table's rows check each refusal's opening text; these two pin the
    # whole error line of a count just past its limit and of a NaN time bound
    @pytest.mark.parametrize(
        "args",
        [["distance", "--mode", "bare", "--a", "0.5", "--t-max", "1", "--points", "1000001"]],
        ids=["distance-one-over"],
    )
    def test_unbounded_points_is_a_usage_error(self, runner, args):
        # the limit is the scan's 10^6 cells
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.endswith("\nError: Invalid value for '--points': 1000001 is not in the range 1<=x<=1000000.\n")

    @pytest.mark.parametrize(
        "args, option",
        [pytest.param(["distance", "--mode", "bare", "--a", "0.5", "--t-min", "nan", "--t-max", "1"], "--t-min", id="args3---t-min")],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_time_bound_is_a_usage_error(self, runner, args, option):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.endswith(f"\nError: Invalid value for '{option}': must be finite and >= 0, got nan\n")

    @pytest.mark.parametrize("args, option, text", _OPTION_REFUSALS)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_each_option_refuses_its_bad_values(self, runner, args, option, text):
        # the option's own rule refuses the value, whether or not --t is given
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert f"\nError: Invalid value for '{option}': {text}" in result.stderr

    @pytest.mark.parametrize(
        "perturb, message",
        [
            (lambda d: d + np.nan, "distance or derivative series is not finite"),
            (lambda d: d + 1.0, "distance series escaped [0, 1]"),
            # the distance halves at the middle of the grid
            (lambda d: d * np.where(np.arange(d.size) < d.size // 2, 1.0, 0.5), "distance series is not continuous at the grid resolution"),
        ],
        ids=["not-finite", "outside-unit-interval", "jump"],
    )
    def test_failed_series_check_exits_4(self, runner, monkeypatch, perturb, message):
        original = detect._distance
        monkeypatch.setattr(detect, "_distance", lambda a, terms: perturb(original(a, terms)))
        with pytest.raises(RuntimeError) as info:
            detect.detect_backflow("bare", 0.5)
        assert str(info.value) == message
        result = runner.invoke(main, ["detect", "--mode", "bare", "--a", "0.5"])
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_failed_derivative_check_exits_4(self, runner, monkeypatch):
        # a prefactor off by 0.1% fails detect_backflow's complex-step check
        original = detect._prefactor
        monkeypatch.setattr(detect, "_prefactor", lambda *args: 1.001 * original(*args))
        result = runner.invoke(main, ["detect", "--mode", "switch", "--a", "0.3"])
        assert result.exit_code == 4
        assert "complex-step" in result.output
        assert "Traceback" not in result.output

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["threshold", "distance", "detect"]),
        mode=st.sampled_from(["bare", "path", "switch"]),
        values=st.fixed_dictionaries(
            {},
            optional={
                name: st.floats(allow_nan=True, allow_infinity=True)
                for name in ("--a", "--p", "--t", "--t-max")
            },
        ),
    )
    def test_exit_code_contract(self, command, mode, values):
        # threshold takes path/switch and --p only, distance needs a time
        # flag, detect takes no --t; small grids keep each example fast
        args = [command, "--mode", "path" if command == "threshold" and mode == "bare" else mode]
        if command == "threshold":
            values = {"--p": values.get("--p", 0.5)}
        elif command == "distance":
            values.setdefault("--a", 0.5)
            if "--t" not in values and "--t-max" not in values:
                values["--t"] = 1.0
            args += ["--points", "5"]
        else:
            values.setdefault("--a", 0.5)
            values.pop("--t", None)
            args += ["--points", "20"]
        args += [f"{name}={value!r}" for name, value in values.items()]
        result = CliRunner().invoke(main, args)
        assert result.exit_code in {0, 1, 2, 3, 4}
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
