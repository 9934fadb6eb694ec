from __future__ import annotations

import kgrag


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from kgrag import *", namespace)  # raises AttributeError on a name the package lacks
    assert set(kgrag.__all__) <= namespace.keys()


def test_exported_names_are_unique():
    assert len(set(kgrag.__all__)) == len(kgrag.__all__)
