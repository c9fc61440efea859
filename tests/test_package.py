"""The package's public surface."""

import types

import twinbeam


def test_all_lists_every_public_name():
    # every public non-module name is exported, and nothing removed lingers
    public = {
        name
        for name, value in vars(twinbeam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(twinbeam.__all__) == sorted(public)
    assert len(set(twinbeam.__all__)) == len(twinbeam.__all__)
