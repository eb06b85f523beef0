"""The `$ convexcert ...` examples of README.md, with their printed output,
and its Python blocks."""

from __future__ import annotations

import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[list[str]]:
    """The lines of every fenced block tagged ``language``, in README order."""
    blocks: list[list[str]] = []
    inside = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            inside = line == "```" + language
            if inside:
                blocks.append([])
        elif inside:
            blocks[-1].append(line)
    return blocks


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv after ``convexcert``, expected stdout) for every example in a
    ``text`` block; an example runs up to the next ``$`` line or the end
    of its block, blank lines between examples excluded."""
    examples: list[tuple[list[str], list[str]]] = []
    for block in _blocks("text"):
        for line in block:
            if line.startswith("$ convexcert "):
                examples.append((shlex.split(line[2:])[1:], []))
            elif examples:
                examples[-1][1].append(line)
    return [(argv, "\n".join(lines).rstrip("\n") + "\n") for argv, lines in examples]


def readme_output(*argv: str) -> str:
    """The README's printed output of ``convexcert <argv>``."""
    return dict((tuple(a), out) for a, out in readme_examples())[argv]


def readme_python_blocks() -> list[str]:
    """The source of every ``python`` block, in README order."""
    return ["\n".join(lines) + "\n" for lines in _blocks("python")]
