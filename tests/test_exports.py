"""Tests for the package's export list."""

import latin3


def test_every_exported_name_resolves_once():
    assert len(latin3.__all__) == len(set(latin3.__all__))
    missing = [name for name in latin3.__all__ if not hasattr(latin3, name)]
    assert missing == []


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from latin3 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(latin3.__all__)
