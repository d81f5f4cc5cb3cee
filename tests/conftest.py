"""Fixtures shared by the test modules."""

import tracemalloc
from functools import cached_property
from types import SimpleNamespace

import pytest

from shellbound import FaceLattice, Subcomplex


@pytest.fixture
def lattice_builds(monkeypatch):
    """Counts ``FaceLattice`` constructions while the test runs, in
    ``lattice_builds.count``; a test may reset it to 0."""
    counter = SimpleNamespace(count=0)
    init = FaceLattice.__init__

    def counting_init(self, *args, **kwargs):
        counter.count += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(FaceLattice, "__init__", counting_init)
    return counter


@pytest.fixture
def boundary_walks(monkeypatch):
    """Lists each ``Subcomplex`` whose boundary is derived while the test
    runs, once per derivation; a test may clear the list."""
    walked: list[Subcomplex] = []
    derive = Subcomplex.__dict__["_boundary"].func

    def counting(sc):
        walked.append(sc)
        return derive(sc)

    prop = cached_property(counting)
    prop.__set_name__(Subcomplex, "_boundary")
    monkeypatch.setattr(Subcomplex, "_boundary", prop)
    return walked


@pytest.fixture
def verifications(monkeypatch):
    """Lists the lattice of each verification of a whole-complex order
    (a ``_verify`` call on the top cell) while the test runs; a test may
    clear the list."""
    from shellbound import shelling

    verified: list[FaceLattice] = []
    verify = shelling._verify

    def counting(L, x, *args):
        if x == L._top:
            verified.append(L)
        return verify(L, x, *args)

    monkeypatch.setattr(shelling, "_verify", counting)
    return verified


@pytest.fixture
def traced():
    """Runs ``call(*args)`` under :mod:`tracemalloc` and returns ``(result,
    retained bytes, peak bytes)``, both counted from the start of the call."""

    def run(call, *args):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = call(*args)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, after - before, peak - before

    return run
