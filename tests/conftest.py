"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest

from shellbound import FaceLattice


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
