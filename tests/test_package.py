"""Tests for the package namespace."""

import systolab


def test_every_exported_name_resolves():
    missing = [name for name in systolab.__all__ if not hasattr(systolab, name)]
    assert missing == []
    assert len(set(systolab.__all__)) == len(systolab.__all__)
