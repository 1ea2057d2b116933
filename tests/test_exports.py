"""exacthom.__all__ lists exactly the public names the package binds."""

import types

import exacthom


def test_all_is_every_public_non_module_name():
    bound = {
        name
        for name, value in vars(exacthom).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(exacthom.__all__) == len(set(exacthom.__all__))
    assert set(exacthom.__all__) == bound


def test_every_export_resolves():
    for name in exacthom.__all__:
        assert getattr(exacthom, name) is not None, name
