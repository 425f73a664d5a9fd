"""The package's public names."""

import glppm


def test_every_exported_name_resolves():
    # a module deletion that leaves its names in __all__ fails here
    missing = [name for name in glppm.__all__ if not hasattr(glppm, name)]
    assert missing == []
    assert len(set(glppm.__all__)) == len(glppm.__all__)
