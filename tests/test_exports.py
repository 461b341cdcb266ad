"""The package's public names: everything in ``__all__`` exists."""

import ionread


def test_all_names_resolve():
    missing = [name for name in ionread.__all__ if not hasattr(ionread, name)]
    assert missing == []
    assert len(set(ionread.__all__)) == len(ionread.__all__)


def test_star_import():
    namespace = {}
    exec("from ionread import *", namespace)
    assert set(ionread.__all__) <= set(namespace)
