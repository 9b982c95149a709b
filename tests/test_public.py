"""The public surface: the names in `volquandle.__all__`."""

import volquandle

NAMES = volquandle.__all__


def test_every_name_resolves():
    assert [name for name in NAMES if not hasattr(volquandle, name)] == []


def test_sorted_without_duplicates():
    assert NAMES == sorted(NAMES)
    assert len(set(NAMES)) == len(NAMES)
