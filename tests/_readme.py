"""The `$ convexcert ...` examples of README.md, with their printed output."""

from __future__ import annotations

import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv after ``convexcert``, expected stdout) for every example in a
    ``text`` block; an example runs up to the next ``$`` line or the end
    of its block, blank lines between examples excluded."""
    examples: list[tuple[list[str], list[str]]] = []
    in_text = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_text = line == "```text"
        elif in_text and line.startswith("$ convexcert "):
            examples.append((shlex.split(line[2:])[1:], []))
        elif in_text and examples:
            examples[-1][1].append(line)
    return [(argv, "\n".join(lines).rstrip("\n") + "\n") for argv, lines in examples]


def readme_output(*argv: str) -> str:
    """The README's printed output of ``convexcert <argv>``."""
    return dict((tuple(a), out) for a, out in readme_examples())[argv]
