import bellswap


def test_every_exported_name_resolves():
    missing = [name for name in bellswap.__all__ if not hasattr(bellswap, name)]
    assert missing == []
