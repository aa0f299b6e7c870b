"""Golden CLI corpus: the exact stdout of a fixed list of invocations.

Each file under ``tests/golden/`` holds sections of the form

    $ pseudobell <argv, shell-quoted>
    <stdout, byte for byte>

and the test reruns every section's invocation in process and compares the
output with no tolerance.  Only exact output is kept here (the catalog and
the symbolic build and solve); numeric rows depend on the platform's libm
and numpy SIMD code.  After a deliberate output change, rewrite the corpus
with ``PYTHONPATH=src python tests/golden/regenerate.py`` and name the
moved sections in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import shlex
from pathlib import Path

import pytest

from pseudobell.cli import main
from pseudobell.constructor import catalog_entries

GOLDEN = Path(__file__).resolve().parent / "golden"
PROMPT = "$ pseudobell "

_NAMES = [e.name for e in catalog_entries(include_variants=True)] + ["W3+-+", "W3(+,-,+)"]

#: corpus file -> invocations, in file order
INVOCATIONS: dict[str, list[list[str]]] = {
    "catalog.txt": [["catalog"], ["catalog", "--format", "json"], ["catalog", "--filter", "ghz"]],
    "build.txt": [["build", "--name", name, "--format", fmt]
                  for name in _NAMES for fmt in ("text", "json", "csv")],
    "solve.txt": [["solve", "--name", name, "--format", fmt]
                  for name in _NAMES for fmt in ("text", "json")],
}


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"pseudobell {shlex.join(argv)} exited {code}"
    return out.getvalue()


def render(invocations: list[list[str]]) -> str:
    return "".join(f"{PROMPT}{shlex.join(argv)}\n{run_cli(argv)}" for argv in invocations)


def parse(text: str) -> list[tuple[list[str], str]]:
    """The (argv, stdout) sections of one corpus file."""
    sections = []
    for line in io.StringIO(text, newline="\n"):   # split on "\n" only
        if line.startswith(PROMPT):
            sections.append((shlex.split(line[len(PROMPT):]), []))
        else:
            sections[-1][1].append(line)
    return [(argv, "".join(lines)) for argv, lines in sections]


def write_corpus() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for filename, invocations in INVOCATIONS.items():
        (GOLDEN / filename).write_bytes(render(invocations).encode("utf-8"))


@pytest.mark.parametrize("filename", sorted(INVOCATIONS))
def test_cli_output_matches_golden_corpus(filename):
    sections = parse((GOLDEN / filename).read_bytes().decode("utf-8"))
    assert [argv for argv, _ in sections] == INVOCATIONS[filename]
    moved = []
    for argv, want in sections:
        got = run_cli(argv)
        if got != want:
            diff = difflib.unified_diff(want.splitlines(keepends=True),
                                        got.splitlines(keepends=True), "golden", "now")
            moved.append(f"{PROMPT}{shlex.join(argv)}\n{''.join(diff)}")
    assert not moved, f"{len(moved)} of {len(sections)} sections moved:\n" + "\n".join(moved)
