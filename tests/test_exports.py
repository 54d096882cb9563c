"""The package's export list stays sorted, unique and resolvable."""

import importlib

import pytest

import ma_multicast


def test_all_is_sorted_unique_and_resolves():
    names = ma_multicast.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ma_multicast, name)]
    assert missing == []


def test_dir_lists_every_export():
    assert set(ma_multicast.__all__) <= set(dir(ma_multicast))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        ma_multicast.no_such_export


@pytest.mark.parametrize("name", sorted(ma_multicast._HOME))
def test_each_export_is_the_object_its_home_module_defines(name):
    home = importlib.import_module(f"ma_multicast.{ma_multicast._HOME[name]}")
    assert getattr(ma_multicast, name) is getattr(home, name)
    # defined there, not re-exported from elsewhere
    assert getattr(home, name).__module__ == home.__name__
