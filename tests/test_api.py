"""The package's public names."""

import pytest

import rectchar
from rectchar import _poly, cli, closed, exact, mn, stanley, young


@pytest.mark.parametrize(
    "module", (rectchar, _poly, cli, closed, exact, mn, stanley, young),
    ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
