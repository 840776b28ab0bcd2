"""The package's public names."""

import inspect

import pytest

import rectchar
from rectchar import _poly, cli, closed, exact, mn, stanley, young

SUBMODULES = (_poly, cli, closed, exact, mn, stanley, young)


@pytest.mark.parametrize(
    "module", (rectchar,) + SUBMODULES, ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", SUBMODULES, ids=lambda m: m.__name__)
def test_a_submodule_exports_only_what_it_defines(module):
    # the package root re-exports; a submodule names only its own
    exported = {name: getattr(module, name) for name in module.__all__}
    borrowed = [name for name, obj in exported.items()
                if (inspect.isclass(obj) or inspect.isfunction(obj))
                and obj.__module__ != module.__name__]
    assert borrowed == []


def test_deleted_names_are_gone():
    for name in ("coeff_g", "BasisMismatch"):
        assert not hasattr(rectchar, name)
    for cls, name in ((rectchar.BiPoly, "is_zero"),
                      (rectchar.DEPoly, "is_odd_in_d"),
                      (rectchar.JNPoly, "weighted_degree")):
        assert not hasattr(cls, name)
    with pytest.raises(TypeError):
        rectchar.partitions(4, max_part=2)
