import re
import shlex
from pathlib import Path

import pytest

from helpers import model_sweep
from resloss.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    """The first python block under "Library use" runs on a model sweep."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    sweep = model_sweep(4.5e9, 1e5, 5e4, 0.1)
    namespace = {"freqs": sweep.frequencies, "s21": sweep.s21}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert namespace["fit"].q_i == pytest.approx(1e5, rel=1e-9)
    assert namespace["n"] > 0.0
    assert capsys.readouterr().out.strip()


def readme_commands():
    """Each ``resloss`` command of the "Command line" sh block, continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)[1]
    lines = [line.split("#", 1)[0].rstrip() for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("resloss ")]


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """The README's commands run in order, each exiting 0."""
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["synth", "fit-s21", "fit-tls", "extract",
                                              "error-map"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
