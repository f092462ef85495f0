import boxprime


def test_every_exported_name_resolves():
    missing = [name for name in boxprime.__all__ if not hasattr(boxprime, name)]
    assert missing == []
    assert len(set(boxprime.__all__)) == len(boxprime.__all__)
