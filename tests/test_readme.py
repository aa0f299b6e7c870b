"""The README's library examples run as written, from the package's top level."""

import re
from pathlib import Path

from pseudobell import concurrence_closed_form

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:   # the second example reuses the first one's names
        exec(compile(block, str(README), "exec"), namespace)
    printed = float(capsys.readouterr().out)
    assert abs(printed - concurrence_closed_form("B2-", 0.4, 0.9)) < 1e-12
    assert str(namespace["state"]) == "|ψ0φ1⟩ - |ψ1φ0⟩"
    assert namespace["weight"] == namespace["entry"].weight
    assert namespace["curve"].shape == (201,)
