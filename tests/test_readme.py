"""The README's examples run as written and state true values."""

import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from sllift import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str) -> str:
    """The first fenced block under the '## heading' section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


SNIPPET = code_block("Library at a glance")
CLI_LINES = [line for line in code_block("CLI").splitlines() if line.startswith("sllift ")]


def test_library_snippet_states_true_values():
    namespace: dict = {}
    exec(SNIPPET, namespace)
    checked = 0
    for line in SNIPPET.splitlines():
        code, sep, comment = line.partition("  #")
        if not sep:
            continue
        claim = comment.split(":")[0].strip()
        try:
            expected = eval(claim, {"Fraction": Fraction})
        except SyntaxError:
            continue  # prose, such as "exact minimum over all lifts"
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked == 4
    # "every lift has max-norm >= this", so the exact minimum is at least it
    inst = namespace["inst"]
    minimum = namespace["min_lift_norm"](inst.x, 8, t_max=256)
    assert minimum is not None and minimum >= inst.lower_bound


def test_cli_block_is_not_empty():
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(shlex.split(line)[1:])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out
