import shearconvex


def test_every_export_resolves_once():
    names = shearconvex.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(shearconvex, n)]
    assert missing == []
