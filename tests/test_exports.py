"""The package's export list stays sorted, unique and resolvable."""

import ma_multicast


def test_all_is_sorted_unique_and_resolves():
    names = ma_multicast.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ma_multicast, name)]
    assert missing == []
