"""The README's API quick start and CLI block run as written, and its
time-window numbers hold."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from backflow import asymptotic_threshold, detect_backflow, log_time_grid, path_config, switch_config
from backflow.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (API)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:quick-start", "exec"), {})


def test_cli_block_runs():
    # the README's exit-code list: 1 means backflow detected, which the
    # block's detect line finds; every other line succeeds
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("backflow ")]
    assert len(lines) == 7
    runner = CliRunner()
    for line in lines:
        command, _, comment = line.partition("#")
        args = shlex.split(command)[1:]
        result = runner.invoke(main, args)
        assert result.exit_code == (1 if args[0] == "detect" else 0), line
        printed = re.match(r"\s*prints (\S+)", comment)
        if printed:
            assert result.output == printed.group(1) + "\n", line


@pytest.mark.parametrize("t_max, count", [(0.75, 1105), (1.0, 1772), (2.0, 54), (3.0, 2), (3.5, 0), (12.0, 0)])
def test_switch_only_cells_of_the_default_scan(t_max, count):
    # the path region contains the switch's only once the window is long enough
    result = CliRunner().invoke(main, ["scan", "--t-max", str(t_max)])
    assert result.exit_code == 0
    assert result.output.count(",false,true\n") == count


def test_short_window_shows_switch_backflow_only():
    times = log_time_grid(t_max=0.75)
    (window,) = detect_backflow(switch_config(1.0), 0.3, times=times).backflow_intervals
    assert window == pytest.approx((0.73859, 0.75), abs=5e-6)
    assert detect_backflow(path_config(1.0), 0.3, times=times).backflow_intervals == []


def test_switch_mid_time_window_above_its_late_time_threshold():
    (window,) = detect_backflow(switch_config(0.1), 0.12).backflow_intervals
    assert window == pytest.approx((1.18669, 1.92924), abs=5e-6)
    assert asymptotic_threshold(switch_config(0.1)) == pytest.approx(0.0932505, abs=5e-8)
