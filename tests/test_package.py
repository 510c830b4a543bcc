import minbasis


def test_every_export_resolves():
    missing = [name for name in minbasis.__all__ if not hasattr(minbasis, name)]
    assert missing == []
    assert len(set(minbasis.__all__)) == len(minbasis.__all__)
