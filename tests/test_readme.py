"""The library example in README.md runs and prints D_q in [0, 1]."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    d_q = np.array(capsys.readouterr().out.strip().strip("[]").split(), dtype=float)
    assert d_q.size == 3
    assert np.all((d_q >= 0) & (d_q <= 1))
