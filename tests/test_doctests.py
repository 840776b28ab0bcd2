"""Runs every module doctest and the README examples under pytest."""

import doctest
from pathlib import Path

import pytest

from rectchar import _poly, closed, exact, mn, stanley, young


@pytest.mark.parametrize("module",
                         (_poly, closed, exact, mn, stanley, young),
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
