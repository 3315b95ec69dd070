import driftloc


def test_every_exported_name_resolves():
    missing = [name for name in driftloc.__all__ if not hasattr(driftloc, name)]
    assert missing == []
    assert len(set(driftloc.__all__)) == len(driftloc.__all__)
