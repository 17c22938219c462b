"""The README's examples: each value the library block shows, and each
`$ gromov4` call of the CLI tour on a preset, run in process against the
output shown under it.  A shown output that ends in "..." is its prefix.
An example on a model file is left out: the README's files are not in
the repo.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from gromov4.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def _cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown lines) of each call; a call ends at a blank line."""
    examples = []
    for block in _blocks("sh"):
        lines = block.replace("\\\n", " ").splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ gromov4 "):
                shown = []
                for out in lines[i + 1 :]:
                    if not out:
                        break
                    shown.append(out)
                examples.append((shlex.split(line)[2:], shown))
    return examples


def _on_a_file(argv: list[str]) -> bool:
    return "--manifold" in argv and argv[argv.index("--manifold") + 1].endswith(".json")


CLI = [example for example in _cli_examples() if not _on_a_file(example[0])]


def test_every_call_of_the_tour_is_read():
    assert len(_cli_examples()) == README.count("$ gromov4 ") and CLI


@pytest.mark.parametrize("argv, shown", CLI, ids=[" ".join(argv) for argv, _ in CLI])
def test_a_cli_example_prints_what_the_readme_shows(capsys, argv, shown):
    assert run(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    if shown[-1].strip() == "...":
        shown, printed = shown[:-1], printed[: len(shown) - 1]
    assert printed == shown


def test_the_library_example_gives_the_values_it_shows():
    (block,) = _blocks("python")
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, value = line.partition("  # ")
        if value:
            assert eval(code, namespace) == ast.literal_eval(value), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3
