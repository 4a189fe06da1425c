"""Hypothesis profiles, and the CSR check of every graph a test builds.

``ci`` prints the ``@reproduce_failure`` blob of a failing property test, so
a failure seen in CI can be replayed locally. It is loaded when the ``CI``
environment variable is set, as it is on GitHub Actions; local runs keep the
default profile.

Every graph that a test builds, by any way in (the parse, ``from_edges``,
``Graph(adjacency)``, the generators, the subgraph cuts), passes through
``Graph._set``, which the autouse fixture ``checked_csr`` wraps with
``netgeom._csr._check_csr``, the one check of the CSR invariants, which
``Graph(adjacency)`` runs too. The fixture turns its ``ValueError`` into an
``AssertionError``, which no ``except ValueError`` of the package, and so no
exit code of ``cli.main``, can take for a rejected input. A test marked
``unchecked_csr`` runs without it, so that the traced-memory budgets measure
the program alone.
"""
import os

import pytest
from hypothesis import settings

from netgeom._csr import _check_csr
from netgeom.graph import Graph

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_configure(config):
    config.addinivalue_line("markers", "unchecked_csr: build graphs without the CSR check of every Graph._set")


@pytest.fixture(autouse=True)
def checked_csr(request, monkeypatch):
    if request.node.get_closest_marker("unchecked_csr") is None:
        real = Graph._set

        def checked(self, indptr, indices, *args, **kwargs):
            try:
                _check_csr(indptr, indices)
            except ValueError as e:
                raise AssertionError(f"a builder broke the CSR invariants: {e}") from None
            return real(self, indptr, indices, *args, **kwargs)

        monkeypatch.setattr(Graph, "_set", checked)
