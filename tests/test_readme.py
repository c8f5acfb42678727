import re
from pathlib import Path

import pytest

from helpers import model_sweep

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
