"""README examples print exactly what the CLI prints.

`verify` is compared in tests/test_acceptance.py, which runs that
battery already; every other example runs here through ``cli.main``.
"""

import pytest

from _readme import readme_examples
from convexcert.cli import main

EXAMPLES = [(argv, out) for argv, out in readme_examples() if argv[0] != "verify"]


def test_readme_has_examples():
    commands = {argv[0] for argv, _ in readme_examples()}
    assert commands == {"bounds", "means", "young", "verify"}


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_example_output_matches(capsys, argv, expected):
    main(list(argv))
    assert capsys.readouterr().out == expected
