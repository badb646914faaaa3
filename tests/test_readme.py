"""The README's API quick start and CLI block run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

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
