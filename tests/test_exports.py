import ctypes
from types import SimpleNamespace

import shearconvex


def test_every_export_resolves_once():
    names = shearconvex.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(shearconvex, n)]
    assert missing == []


def test_the_malloc_threshold_helper_needs_mallopt_and_nothing_else(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def refuse(exc):
        def cdll(name):
            raise exc("no C library to load")
        return cdll

    # no loadable C library (OSError), none by that name (TypeError, as on
    # Windows) and a C library without mallopt: nothing happens, nothing raises
    for cdll in (refuse(OSError), refuse(TypeError), lambda name: object()):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        shearconvex._fix_malloc_thresholds()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    shearconvex._fix_malloc_thresholds()
    shearconvex._fix_malloc_thresholds()
    assert calls == 2 * [(-3, 32 << 20), (-1, 128 << 20)]
    monkeypatch.undo()
    shearconvex._fix_malloc_thresholds()    # again on the real C library: harmless
