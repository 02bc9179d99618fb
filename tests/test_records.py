"""The package's records: what `import gridforge` loads to define them, and
the semantics every record keeps (immutable, equal and hashed by value,
copied with changes by `_replace`)."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gridforge.basis import build_basis, build_grid
from gridforge.generators import EtaQuotient
from gridforge.leveldata import (ALL_LEVELS, Certificate, Combo, LevelData,
                                 TowerSeed, certificates, get_level)
from gridforge.qseries import QSeries
from gridforge.seedsynth import SpanningFamily
from gridforge.traceops import classify, obstructions, trace

SRC = Path(__file__).resolve().parent.parent / "src"

# inspect and what it brings with it: none of them is needed to define a
# record, and each one is compiled on every start without a bytecode cache
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "linecache",
            "typing")


@pytest.mark.parametrize("module", ["gridforge", "gridforge.cli"])
def test_import_loads_no_inspect(module):
    # -S: no site, so nothing but the import itself loads a module
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import {module}; print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-B", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert module in loaded
    assert sorted(loaded.intersection(UNWANTED)) == []


def _records():
    """One of each record, by name."""
    ld = get_level(2)
    pairs = obstructions(2, 1, -6, 12)
    return {
        "Combo": Combo(((1, (("phi", 2, 1),), 0),)),
        "Certificate": certificates()[(7, 4)],
        "TowerSeed": ld.seed,
        "LevelData": ld,
        "CanonicalBasis": build_basis(5, 0, "inf", 3, 20),
        "ModularGrid": build_grid(2, 0, 3),
        "SpanningFamily": SpanningFamily(2, 2, 1, (("E4", QSeries.one(5)),)),
        "TraceReport": trace(4, 2, -2, "inf", 3, 12),
        "Classification": classify(4, 1, -4),
        "ObstructionPair": pairs.pairs[0],
        "ObstructionList": pairs,
    }


NAMES = ("Certificate", "CanonicalBasis", "Classification", "Combo",
         "LevelData", "ModularGrid", "ObstructionList", "ObstructionPair",
         "SpanningFamily", "TowerSeed", "TraceReport")


def _hashable(x):
    try:
        hash(x)
    except TypeError:
        return False
    return True


def test_every_record_is_built_here():
    assert sorted(_records()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_a_record_is_immutable(name):
    x = _records()[name]
    assert type(x).__name__ == name
    for field in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))


@pytest.mark.parametrize("name", NAMES)
def test_a_record_is_equal_and_hashed_by_value(name):
    x = _records()[name]
    y = type(x)._make(x)
    assert y is not x
    assert y == x and not y != x
    if all(map(_hashable, x)):
        assert hash(y) == hash(x)
    else:
        # a field that is a dict (the tower seed's other forms) has no hash
        assert name in ("TowerSeed", "LevelData")
    first = x._fields[0]
    z = x._replace(**{first: (getattr(x, first), "other")})
    assert z != x and not z == x


def test_a_view_is_equal_to_a_build_at_its_size():
    small = build_basis(3, -2, "hat", 2, 15)
    large = build_basis(3, -2, "hat", 5, 30)
    view = large._replace(count=2, prec=15)
    assert view.stored is large.stored
    assert view == small and not view != small
    assert hash(view) == hash(small)
    assert view != large and not view == large


def test_a_tower_seed_gets_its_own_empty_forms():
    base = EtaQuotient({4: 8, 2: -4})
    a, b = TowerSeed(base), TowerSeed(base)
    assert a.others == {} and a.others is not b.others
    assert a == b


def test_level_data_defaults_to_no_flags():
    ld = get_level(2)
    assert LevelData(*ld[:5]).flags == ()


# sha256 of json.dumps(x.to_json_dict(), indent=2), and its length
JSON_PINS = {
    "TraceReport": (
        "2b82d11eaa5329b16d237aa671012d102a7d9c363b205472e421f9ac108b428a",
        895),
    "Classification": (
        "01f583d22b388569636fe00cc57ad5b2692ce7b1c7cb26bfa59881a441794319",
        84),
    "ObstructionPair": (
        "af9ca056f896a86626c3f398ce9ccbdec89609bb3b40794ad9d7b1041da14192",
        1571),
    "ObstructionList": (
        "385a3ee742ea048bbf0209a7abca27042fd5f807bf9df600fe8db731c4a195d1",
        2108),
}


@pytest.mark.parametrize("name", sorted(JSON_PINS))
def test_json_of_a_record_is_unchanged(name):
    text = json.dumps(_records()[name].to_json_dict(), indent=2)
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == \
        JSON_PINS[name]


def test_json_of_a_trace_that_does_not_apply():
    assert trace(4, 1, 4, "inf", 1).to_json_dict() == {
        "from": 4, "to": 1, "weight": 4, "space": "inf", "index": 1,
        "applicable": False, "method": "none",
        "reason": "trace not determined by principal part: M_4(1) != 0",
        "combination": [], "expansion": None}


def test_only_the_five_certificates_are_certificates():
    certs = certificates()
    assert sorted(certs) == [(7, 4), (10, 2), (13, 4), (13, 6), (25, 2)]
    for N in ALL_LEVELS:
        for w, form in get_level(N).seed.forms.items():
            assert isinstance(form, Certificate) == ((N, w) in certs), (N, w)
            assert isinstance(form, (Combo, Certificate)), (N, w)
    assert not isinstance(Combo(certs[(7, 4)].terms), Certificate)
