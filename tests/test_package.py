"""The package's public surface."""
import aap


def test_every_exported_name_resolves():
    missing = [name for name in aap.__all__ if not hasattr(aap, name)]
    assert missing == []
    assert len(set(aap.__all__)) == len(aap.__all__)
