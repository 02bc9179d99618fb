import dataclasses
from fractions import Fraction

import pytest

from gridforge import basis as basis_mod
from gridforge import qseries
from gridforge.leveldata import certificates, get_level


@pytest.fixture
def install_certificate(monkeypatch):
    """Install a certificate as the registry's (N, k) seed, and start from
    an empty basis cache and an empty series store, so that it is
    evaluated."""
    def install(N, k, cert):
        monkeypatch.setitem(get_level(N).seed.forms, k, cert)
        monkeypatch.setattr(basis_mod, "_basis_cache", {})
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


class CountingCache(dict):
    """A basis cache that counts the builds stored per key."""

    def __init__(self):
        super().__init__()
        self.builds = {}

    def __setitem__(self, key, value):
        self.builds[key] = self.builds.get(key, 0) + 1
        super().__setitem__(key, value)


@pytest.fixture
def counting_basis_cache(monkeypatch):
    """An empty basis cache that counts its builds per key."""
    cache = CountingCache()
    monkeypatch.setattr(basis_mod, "_basis_cache", cache)
    return cache
