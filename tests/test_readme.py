"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    eta, energy = (line.strip("[]").split() for line in capsys.readouterr().out.splitlines())
    # one efficiency and one weighted energy per beta of the grid
    assert len(eta) == len(energy) == 3
    assert all(0.0 < float(value) <= 1.0 for value in eta)
