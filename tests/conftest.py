import dataclasses
from fractions import Fraction

import pytest

from gridforge import basis as basis_mod
from gridforge import qseries
from gridforge.leveldata import certificates, get_level


@pytest.fixture
def install_certificate(monkeypatch):
    """Install a certificate as the registry's (N, k) seed, and start from
    an empty store, so that it is evaluated."""
    def install(N, k, cert):
        monkeypatch.setitem(get_level(N).seed.forms, k, cert)
        monkeypatch.setattr(qseries, "_store", {})
    return install


@pytest.fixture
def perturb_certificate(install_certificate):
    """Install the (N, k) certificate of the registry with its first
    coefficient moved (see install_certificate)."""
    def install(N, k):
        cert = certificates()[(N, k)]
        (c, factors, j), *rest = cert.terms
        install_certificate(N, k, dataclasses.replace(
            cert, terms=((c + Fraction(1, 7), factors, j), *rest)))
    return install


@pytest.fixture
def counting_builds(monkeypatch):
    """Start from an empty store and count the runs of the basis recursion
    per (N, k, space)."""
    monkeypatch.setattr(qseries, "_store", {})
    builds = {}
    real = basis_mod._build

    def build(N, k, space, count, prec):
        builds[(N, k, space)] = builds.get((N, k, space), 0) + 1
        return real(N, k, space, count, prec)

    monkeypatch.setattr(basis_mod, "_build", build)
    return builds
