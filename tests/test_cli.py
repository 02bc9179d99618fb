import hashlib
import json
import os
import random
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest

import gridforge
from gridforge import basis as basis_mod
from gridforge import acceptance, cli, leveldata, qseries, seedsynth
from gridforge.basis import IntegralityError, build_basis
from gridforge.cli import run
from gridforge.generators import EtaQuotient
from gridforge.leveldata import PinnedPrefixError, certificates, registry_dump
from gridforge.qseries import PrecisionError, QSeries
from gridforge.seedsynth import SynthesisError
from gridforge.traceops import (
    Classification,
    ObstructionList,
    ObstructionPair,
    TraceReport,
    classify,
    obstructions,
    trace,
)
from test_qseries import series_from_json

SRC = str(Path(gridforge.__file__).resolve().parents[1])


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_basis_text(capsys):
    code, out = invoke(capsys, "basis", "--level", "5", "--weight", "0",
                       "--count", "3", "--prec", "20", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("f_{0,0}^(5) = 1")
    assert "q^-1 + 9*q + 10*q^2" in lines[1]
    assert "q^-2 + 20*q + 21*q^2" in lines[2]


@pytest.mark.parametrize("level, weight, space, count, prec", [
    (5, 0, "inf", 40, 20), (1, -4, "inf", 30, 10), (18, 4, "hat", 25, 12)])
def test_basis_below_the_old_precision_floor(level, weight, space, count,
                                             prec, capsys, monkeypatch):
    # these requests asked for less than count + |B| + 5 and exited 2; each
    # element is now answered exactly to the precision asked for
    code, out = invoke(capsys, "basis", "--level", str(level), "--weight",
                       str(weight), "--space", space, "--count", str(count),
                       "--prec", str(prec), "--format", "json")
    assert code == 0
    monkeypatch.setattr(qseries, "_store", {})
    high = build_basis(level, weight, space, count, prec + count + 40)
    assert [(d["m"], series_from_json(d["series"]))
            for d in json.loads(out)] == [
        (m, high.element(m).truncate(prec)) for m in high.indices]


def test_basis_json_roundtrip(capsys):
    code, out = invoke(capsys, "basis", "--level", "2", "--weight", "-6",
                       "--count", "2", "--prec", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [d["m"] for d in doc] == [2, 3]
    s = series_from_json(doc[0]["series"])
    assert s.coeff(-2) == 1 and s.coeff(-1) == 8


def test_grid_check_duality(capsys):
    code, out = invoke(capsys, "grid", "--level", "4", "--weight", "0",
                       "--count", "3", "--check-duality")
    assert code == 0
    assert "duality residual: 0" in out


def test_classify_exit_codes(capsys):
    code, out = invoke(capsys, "classify", "--from", "5", "--to", "1",
                       "--weight", "0")
    assert code == 0 and out.strip() == "Preserved"
    code, out = invoke(capsys, "classify", "--from", "5", "--to", "1",
                       "--weight", "-2")
    assert code == 1 and out.strip().startswith("NotPreserved")


def test_trace_text(capsys):
    code, out = invoke(capsys, "trace", "--from", "2", "--to", "1",
                       "--weight", "-6", "--space", "inf", "--index", "2",
                       "--prec", "12")
    assert code == 0
    assert "q^-2 + 8*q^-1 - 65760 - 87553952*q" in out


def test_trace_not_applicable_exit(capsys):
    code, out = invoke(capsys, "trace", "--from", "2", "--to", "1",
                       "--weight", "8", "--space", "inf", "--index", "-2")
    assert code == 1
    assert "not determined" in out


def test_seed_json(capsys):
    code, out = invoke(capsys, "seed", "--level", "7", "--weight", "4",
                       "--prec", "12", "--json")
    assert code == 0
    doc = json.loads(out)
    s = series_from_json(doc["series"])
    assert [s.coeff(i) for i in (2, 3, 4, 5)] == [1, 3, 8, 11]
    assert doc["family"]["rank"] >= 1


def test_obstructions(capsys):
    code, out = invoke(capsys, "obstructions", "--from", "2", "--to", "1",
                       "--weight", "-6", "--prec", "12")
    assert code == 1
    assert "f_{-6,1}^(1)" in out and "g_{8,-1}^(2)" in out
    code, out = invoke(capsys, "obstructions", "--from", "2", "--to", "1",
                       "--weight", "-4", "--prec", "12")
    assert code == 0
    assert "no obstruction pairs" in out


def test_odd_weight_is_a_usage_error_on_an_identity_pair(capsys):
    # an identity pair was answered before the weight was checked, with
    # "no obstruction pairs (duality preserved)" and exit 0
    for command, to in (("obstructions", "4"), ("obstructions", "2"),
                        ("classify", "4")):
        assert run([command, "--from", "4", "--to", to,
                    "--weight", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: weight must be even\n"


def test_genfun_check_command(capsys):
    code, out = invoke(capsys, "genfun-check", "--from", "2", "--to", "1",
                       "--weight", "-6", "--max-index", "8")
    assert code == 0 and "identity holds" in out


def test_genfun_check_over_no_indices_is_a_usage_error(capsys):
    closed = ("--from", "4", "--to", "4", "--closed-form")
    for extra, message in (
            (("--from", "2", "--to", "1", "--weight", "-6",
              "--max-index", "-3"), "max index P must be >= 1"),
            ((*closed, "--weight", "0", "--max-index", "0"),
             "max index P must be >= 1"),
            ((*closed, "--weight", "20", "--max-index", "8"),
             "max index P of side (B) must be >= 11, got 8"),
            ((*closed, "--weight", "-20", "--max-index", "8"),
             "max index P of side (A) must be >= 10, got 8")):
        assert run(["genfun-check", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_closed_form_checks_the_from_level(capsys):
    code, out = invoke(capsys, "genfun-check", "--from", "5", "--to", "5",
                       "--weight", "2", "--max-index", "8", "--closed-form")
    assert code == 0 and "identity holds" in out
    assert run(["genfun-check", "--from", "5", "--to", "1", "--weight", "2",
                "--max-index", "8", "--closed-form"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--to 1 differs from --from 5" in captured.err


def test_closed_form_refuses_a_side(capsys):
    for side in ("k", "dual"):
        assert run(["genfun-check", "--from", "4", "--to", "4", "--weight",
                    "2", "--closed-form", "--side", side]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--side {side} cannot narrow it" in captured.err
    code, out = invoke(capsys, "genfun-check", "--from", "4", "--to", "4",
                       "--weight", "2", "--closed-form", "--side", "both")
    assert code == 0 and out == "identity holds\n"


def test_registry_command(capsys):
    code, out = invoke(capsys, "registry")
    assert code == 0
    doc = json.loads(out)
    assert doc == registry_dump()
    assert len(doc["levels"]) == 15
    lvl2 = next(lv for lv in doc["levels"] if lv["level"] == 2)
    assert all(lvl2["u"][k] == lvl2["v"][k] - 1 for k in lvl2["v"])
    lvl9 = next(lv for lv in doc["levels"] if lv["level"] == 9)
    assert any("paper_typo" in f for f in lvl9["flags"])


_STRING_ALPHABET = ('ab"\\/ \x00\x01\x08\t\n\x0c\r\x1f\x7f'
                    '\u00e9\u2028\u221e\U0001f600')


def _random_string(rng):
    return "".join(rng.choice(_STRING_ALPHABET)
                   for _ in range(rng.randrange(0, 6)))


def _random_document(rng, depth=0):
    """A random JSON document of the types the CLI writes, nested up to
    five levels; containers are often empty."""
    kind = rng.randrange(7 if depth < 5 else 4)
    if kind == 0:
        return _random_string(rng)
    if kind == 1:
        return rng.choice((
            rng.randrange(-10 ** 6, 10 ** 6),
            rng.choice((-1, 1)) * rng.randrange(10 ** 999, 10 ** 1100)))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice((rng.uniform(-1e6, 1e6), -0.0, 1e300, 5e-324,
                           float("inf"), float("-inf"), float("nan")))
    items = [_random_document(rng, depth + 1)
             for _ in range(rng.choice((0, 1, 2, 4)))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {_random_string(rng): item for item in items}


def _report_documents():
    rational = QSeries({-3: Fraction(-7, 3), 0: 5, 2: Fraction(1, 9)}, 4)
    pair = ObstructionPair("g", 2, 8, -1, rational, 1, -6, 1,
                           QSeries.zero(9))
    return [
        trace(2, 1, -6, "inf", 2, 12).to_json_dict(),
        trace(2, 1, 8, "inf", -2, 60).to_json_dict(),
        TraceReport(6, 2, -2, "hat", 3, True, "principal_part", "",
                    ((3, Fraction(-1, 2)), (1, Fraction(4))),
                    rational).to_json_dict(),
        classify(5, 1, -2).to_json_dict(),
        classify(5, 1, 0).to_json_dict(),
        Classification(4, 2, -6, False, "g-side").to_json_dict(),
        obstructions(2, 1, -6, 12).to_json_dict(),
        obstructions(2, 1, -4, 12).to_json_dict(),
        ObstructionList(2, 1, 8, (pair, pair)).to_json_dict(),
    ]


def _random_series(rng):
    """A random series: zero, integral or rational, with valuations down to
    -40, gaps in its row, and coefficients small or beyond 10^300."""
    v = rng.randrange(-40, 10)
    prec = v + rng.randrange(1, 40)
    kind = rng.choice(("zero", "integral", "rational"))
    coeffs = {}
    for e in range(v, prec):
        if kind == "zero" or rng.random() < 0.4:
            continue
        x = rng.choice((rng.randrange(-9, 10),
                        rng.randrange(-10 ** 320, 10 ** 320)))
        coeffs[e] = (Fraction(x, rng.randrange(1, 10 ** 6))
                     if kind == "rational" else x)
    return QSeries(coeffs, prec)


def _series_as_dicts(doc):
    """`doc` with each series replaced by its `to_json_dict` document."""
    t = type(doc)
    if t is QSeries:
        return doc.to_json_dict()
    if t is list or t is tuple:
        return [_series_as_dicts(item) for item in doc]
    if t is dict:
        return {key: _series_as_dicts(value) for key, value in doc.items()}
    return doc


def test_json_text_is_the_standard_library_text():
    rng = random.Random(20261018)
    reports = _report_documents()
    docs = [[], {}, (), "", 0, -1, 10 ** 1200, -(10 ** 1000), True, None,
            1.5, {"": []}, [[[]], {"k": ()}], *reports]
    for _ in range(500):
        doc = _random_document(rng)
        if rng.random() < 0.1:
            doc = {"report": rng.choice(reports), "rest": doc}
        docs.append(doc)
    for doc in docs:
        assert cli._json_text(doc) == json.dumps(doc, indent=2), doc
    # series leaves, each nested 0 to 4 deep among other documents, and a
    # grid-like document of many series
    series = [_random_series(rng) for _ in range(240)]
    seen = {"zero": 0, "rational": 0, "negative valuation": 0, "gap": 0,
            "huge": 0}
    for s in series:
        items = s.items()
        if not items:
            seen["zero"] += 1
            continue
        seen["rational"] += s.denominator != 1
        seen["negative valuation"] += items[0][0] < 0
        seen["gap"] += len(items) <= items[-1][0] - items[0][0]
        seen["huge"] += max(abs(c) for _, c in items) >= 10 ** 300
    assert all(seen.values()), seen
    series_docs = [{"N": 1, "fside": [{"m": m, "series": s}
                                      for m, s in enumerate(series[:30])]}]
    for s in series:
        doc = s
        for _ in range(rng.randrange(5)):
            items = [_random_document(rng, 4)
                     for _ in range(rng.randrange(3))]
            items.insert(rng.randrange(len(items) + 1), doc)
            kind = rng.randrange(3)
            doc = (items if kind == 0 else tuple(items) if kind == 1 else
                   {_random_string(rng) + str(i): item
                    for i, item in enumerate(items)})
        series_docs.append(doc)
    for doc in series_docs:
        assert cli._json_text(doc) == json.dumps(_series_as_dicts(doc),
                                                 indent=2), doc
    for bad in ({1: "x"}, [{"a": {None: 0}}], {("N", 1): 2}, {True: 1}):
        with pytest.raises(TypeError, match="keys must be str"):
            cli._json_text(bad)

    class Series(QSeries):
        __slots__ = ()

    for bad in ([Fraction(1, 2)], OrderedDict(a=1),
                {"series": Series.from_row(-1, [1, 0, 3], 5)}):
        with pytest.raises(TypeError, match="cannot write"):
            cli._json_text(bad)


# sha256 of stdout before the CLI's JSON came from one writer; each entry
# is (argv, exit code, digest)
PINNED_JSON = [
    (["grid", "--level", "1", "--weight", "-2"], 0,
     "f21693221fda71e4a6d507aebd8472254a6c41d878b760d8cd80cfe55f639e91"),
    (["grid", "--level", "1", "--weight", "-2", "--check-duality"], 0,
     "74822264e12f15172da0e65e959cf3417c8f9fa3f671d4287f4032d3e75b9d51"),
    (["grid", "--level", "1", "--weight", "4"], 0,
     "98132e5c1166d76c802028bb0a641f2bd5e53df70a3b257ce124a5410578ae2a"),
    (["grid", "--level", "1", "--weight", "4", "--check-duality"], 0,
     "bef6f950239d7e8e5c73094535dd91b0a768baa5c47437dde5f3c3e608c6973e"),
    (["grid", "--level", "4", "--weight", "-2"], 0,
     "3d237d82cdffc2e1c1c8520ad3584f5aa4c301678eb98a9f5af6936cdc2f9499"),
    (["grid", "--level", "4", "--weight", "-2", "--check-duality"], 0,
     "3b3bd47a489793b3048f5dbbbac57e342017d17156d2ef8668ef5477110ce481"),
    (["grid", "--level", "4", "--weight", "4"], 0,
     "cf70458953e079b0974511929295f2c5e2e72b8751ce6e1e1f051c4225e4b9e6"),
    (["grid", "--level", "4", "--weight", "4", "--check-duality"], 0,
     "4fe0b6c2944ec5ffdb04a628663a2aaee0b3093013c2d3eb50df2a7151a6607c"),
    (["grid", "--level", "13", "--weight", "-2"], 0,
     "a33306b1af3b704fca471851e63dace93f9be90acc4abd7a5efda38fdb146e17"),
    (["grid", "--level", "13", "--weight", "-2", "--check-duality"], 0,
     "25daae8c10615218b05d08b628f318f8d28e1ea9bc86e378df081ccc7097b19f"),
    (["grid", "--level", "13", "--weight", "4"], 0,
     "2d84f72eaab335a2c24e6495ed31567a9172fbb6ae0c730e85736ce70f0502a1"),
    (["grid", "--level", "13", "--weight", "4", "--check-duality"], 0,
     "b93cf4219e39aca12e45a84e78e529c540eeeaa1303755dc40f2cccf5f6bc93c"),
    (["grid", "--level", "25", "--weight", "-2"], 0,
     "9b78ad479f1de858f40513fe54b0b849fec2e0970cf4347287c2b590a686c498"),
    (["grid", "--level", "25", "--weight", "-2", "--check-duality"], 0,
     "e600d55112775b3f195a336c0940554e7e3fc976c04cbdbe7da06b27b000ff05"),
    (["grid", "--level", "25", "--weight", "4"], 0,
     "ed6a1724759fe39c3c18f8fc38c717fd604ca00d0e8679630a1df3caeeb2d2f8"),
    (["grid", "--level", "25", "--weight", "4", "--check-duality"], 0,
     "98b9c822183141c78bcf44e3775360e065327b8b3bc6a5dc22b55ecc6233f99f"),
    (["basis", "--level", "6", "--weight", "-4", "--space", "hat",
      "--count", "3", "--prec", "20"], 0,
     "389d57668b07395bb2da437fe482f70114ce52761ff0b1fb367bbe8b9dd86d25"),
    (["trace", "--from", "2", "--to", "1", "--weight", "-6", "--space",
      "inf", "--index", "2", "--prec", "12"], 0,
     "f30e5c24917b115295f325f2f9ce9582c463bef0b03a5bcf7841b3928da1eda7"),
    (["trace", "--from", "2", "--to", "1", "--weight", "8", "--space",
      "inf", "--index", "-2"], 1,
     "b94659add264d501185ab0dfa1de051e87d72906d26ce547b78afdd1b9a4b209"),
    # a trace whose principal part names no element: the combination of no
    # pairs, 0 + O(q^prec)
    (["trace", "--from", "2", "--to", "1", "--weight", "8", "--space",
      "hat", "--index", "-1"], 0,
     "a97827bb56c530482881e5797bec2c38e972d92d629aed0a62ec4abf77a564e8"),
    (["classify", "--from", "5", "--to", "1", "--weight", "-2"], 1,
     "aa98e6c2392c6581ab3538ea2b91e7cad0ee2f5a3924328fa93368344b167263"),
    (["obstructions", "--from", "2", "--to", "1", "--weight", "-6",
      "--prec", "12"], 1,
     "67f61c0147d10eef6877042eff5ee2ac4414244811c060ea6e27951b34610849"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_JSON,
                         ids=[" ".join(a) for a, _, _ in PINNED_JSON])
def test_json_output_is_pinned(argv, code, digest, capsys):
    got, out = invoke(capsys, *argv, "--format", "json")
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_registry_output_is_pinned(capsys):
    # the dump carries every level's cusp count and its v and u tables
    _, out = invoke(capsys, "registry")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6068f36af5c4178821fa11a3024b7ef7f312ccf769d096ced510ac26ddad98ba")


# sha256 of stdout of text-format commands, taken before QSeries.__str__
# read the integer row; each entry is (argv, exit code, digest)
PINNED_TEXT = [
    (["grid", "--level", "1", "--weight", "-2", "--check-duality"], 0,
     "541c4f28cad9f5093b64fc40230c52e76d9b5601db37304f16335ba168b0a9f7"),
    (["grid", "--level", "1", "--weight", "4", "--check-duality"], 0,
     "06a0b0917c90606633f311e3cab00f6204ddb22a593153dab7c3d43bff567ba3"),
    (["grid", "--level", "4", "--weight", "-2", "--check-duality"], 0,
     "e32256db61fe32c1c4b8a31465eddce80c34ef28be27957d4bc2e082669c0b3c"),
    (["grid", "--level", "4", "--weight", "4", "--check-duality"], 0,
     "7251c48452da58b687dde171204dcc11af67efee4a4ee432de266cd9c48a02f4"),
    (["grid", "--level", "13", "--weight", "-2", "--check-duality"], 0,
     "ec3ed332bf62c1a9f33092b631feacf700fdd40b75fe7f02a73a36ea6c491365"),
    (["grid", "--level", "13", "--weight", "4", "--check-duality"], 0,
     "024bce9febd0a5312d1217d7c2191c446a88264d2c04c371561a414882dbb6eb"),
    (["grid", "--level", "25", "--weight", "-2", "--check-duality"], 0,
     "8a2466892f4280f0a962eab25c3a31400560269ed4e404f702c87a803f313651"),
    (["grid", "--level", "25", "--weight", "4", "--check-duality"], 0,
     "84c8146aa043651fde960d34f3625624ebed82fe43d810ee3e7cfdae9ab82afb"),
    (["basis", "--level", "6", "--weight", "-4", "--space", "hat",
      "--count", "3", "--prec", "20"], 0,
     "46372e2554ae6d301e1607c59731aab199d3302b52534781c2f991d84616dab5"),
    (["basis", "--level", "25", "--weight", "4", "--space", "hat"], 0,
     "6d36f7919e908971d02689a5c2be727c2250d32fc540667df529429ba189eeed"),
    (["seed", "--level", "10", "--weight", "2"], 0,
     "08522b75c4652e3e8a383db20b358cbfce856b729fbd6c249ac8f931f4c173a4"),
    (["trace", "--from", "2", "--to", "1", "--weight", "-6", "--space",
      "inf", "--index", "2", "--prec", "12"], 0,
     "d59f5027fb842f663372209142cd4a20a7ef418dd4faa4def089beadb448437e"),
    (["trace", "--from", "2", "--to", "1", "--weight", "8", "--space",
      "inf", "--index", "-2"], 1,
     "f0781aa1480687fcb5e9412e36ef9e95b31b10d42e617af7299724bfd6bb1e84"),
    # "trace = 0 + O(q^60)" and "combination: 0"
    (["trace", "--from", "2", "--to", "1", "--weight", "8", "--space",
      "hat", "--index", "-1"], 0,
     "b667882b3e34c16cd99e9825ff420de604e1b1f65477de87ca5110a7489399ae"),
    (["obstructions", "--from", "2", "--to", "1", "--weight", "-6",
      "--prec", "12"], 1,
     "f32723979332e6546bd29c4389dae6100bd6f85db8d7d03d9a12b0808e63d4ce"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_TEXT,
                         ids=[" ".join(a) for a, _, _ in PINNED_TEXT])
def test_text_output_is_pinned(argv, code, digest, capsys):
    got, out = invoke(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_determinism(capsys):
    _, out1 = invoke(capsys, "registry")
    _, out2 = invoke(capsys, "registry")
    assert out1 == out2
    _, g1 = invoke(capsys, "grid", "--level", "13", "--weight", "4",
                   "--count", "3", "--format", "json")
    _, g2 = invoke(capsys, "grid", "--level", "13", "--weight", "4",
                   "--count", "3", "--format", "json")
    assert g1 == g2


def test_usage_errors(capsys):
    assert run(["bogus"]) == 2
    assert run(["basis", "--level", "5"]) == 2
    assert run(["basis", "--level", "5", "--weight", "0", "--prec", "4"]) == 2
    assert run(["basis", "--level", "11", "--weight", "0"]) == 2


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("N, k", [(18, 4), (12, 6)])
def test_a_seed_precision_short_of_its_lead_is_a_usage_error(N, k, flags,
                                                             capsys):
    # v_k(N) = 12 at both, so the seed q^12 + O(q^13) has no term below
    # q^12
    code = run(["seed", "--level", str(N), "--weight", str(k), "--prec",
                "12", *flags])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"usage error: seed of level {N} weight {k} starts at q^12, so prec "
        f"12 determines none of its terms: need prec >= 13\n")
    if (N, k, flags) == (18, 4, ()):
        assert invoke(capsys, "seed", "--level", "18", "--weight", "4",
                      "--prec", "13") == (0, "q^12 + O(q^13)\n")


def test_grid_of_no_element_is_a_usage_error(capsys):
    assert run(["grid", "--level", "5", "--weight", "0", "--count", "0"]) == 2
    assert capsys.readouterr().err == "usage error: count must be >= 1\n"


def test_one_parser_serves_every_request(capsys):
    requests = (
        ["grid", "--level", "4", "--weight", "0", "--count", "3",
         "--check-duality"],
        ["grid", "--level", "4", "--weight", "0", "--count", "3"],
        ["grid", "--level", "4"],
    )
    alone = []
    for argv in requests:
        cli._build_parser.cache_clear()
        alone.append((run(argv), *capsys.readouterr()))
    cli._build_parser.cache_clear()
    together = [(run(argv), *capsys.readouterr()) for argv in requests]
    assert together == alone
    assert cli._build_parser.cache_info().misses == 1
    assert "duality residual: 0" in alone[0][1]
    assert "duality residual" not in alone[1][1]
    assert alone[2][0] == 2 and "--weight" in alone[2][2]


def test_env_precision(capsys, monkeypatch):
    monkeypatch.setenv("GRIDFORGE_PREC", "14")
    code, out = invoke(capsys, "basis", "--level", "1", "--weight", "0",
                       "--count", "1")
    assert code == 0
    assert "O(q^14)" in out
    monkeypatch.setenv("GRIDFORGE_PREC", "not-a-number")
    assert run(["basis", "--level", "1", "--weight", "0"]) == 2


def test_empty_env_precision_counts_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("GRIDFORGE_PREC", "")
    code, out = invoke(capsys, "grid", "--level", "25", "--weight", "10",
                       "--count", "40", "--check-duality")
    assert code == 0
    assert "duality residual: 0" in out


@pytest.mark.parametrize("env, extra, tail", [
    ("30", [], "+ O(q^30)"), (None, [], "+ O(q^9)"),
    ("30", ["--prec", "20"], "+ O(q^20)")])
def test_env_precision_is_the_grid_precision(env, extra, tail, capsys,
                                             monkeypatch):
    # a nonempty GRIDFORGE_PREC is an explicit precision, which --prec
    # beats; without either the grid picks count + |v| + 6
    if env is None:
        monkeypatch.delenv("GRIDFORGE_PREC", raising=False)
    else:
        monkeypatch.setenv("GRIDFORGE_PREC", env)
    code, out = invoke(capsys, "grid", "--level", "5", "--weight", "0",
                       "--count", "3", *extra)
    assert code == 0
    elements = [line for line in out.splitlines() if " = " in line]
    assert len(elements) == 6
    assert all(line.endswith(tail) for line in elements)


COMMON_ARGS = ("--format", "--out")
PAIR_ARGS = COMMON_ARGS + ("--from", "--to", "--weight")
# only the commands that read a precision take --prec
PREC_AT_LEVEL_ARGS = ("--prec", *COMMON_ARGS, "--level", "--weight")
PREC_PAIR_ARGS = ("--prec", *PAIR_ARGS)


# the arguments each help text lists from a shared parent parser ("" is the
# top level, which lists the commands)
SHARED_ARGS = {
    "": ("basis", "genfun-check", "selftest"),
    "basis": PREC_AT_LEVEL_ARGS, "grid": PREC_AT_LEVEL_ARGS,
    "seed": PREC_AT_LEVEL_ARGS, "trace": PREC_PAIR_ARGS,
    "classify": PAIR_ARGS, "obstructions": PREC_PAIR_ARGS,
    "genfun-check": PAIR_ARGS, "registry": COMMON_ARGS,
    "selftest": COMMON_ARGS}


@pytest.mark.parametrize("command", SHARED_ARGS, ids=lambda c: c or "top")
def test_help_exits_0_and_lists_the_shared_arguments(command, capsys):
    with pytest.raises(SystemExit) as done:
        run([*command.split(), "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: gridforge {command}".rstrip())
    assert all(arg in out for arg in SHARED_ARGS[command])
    if command:
        assert ("--prec" in out) == ("--prec" in SHARED_ARGS[command])


@pytest.mark.parametrize("argv", [
    ["classify", "--from", "4", "--to", "2", "--weight", "0"],
    ["genfun-check", "--from", "4", "--to", "2", "--weight", "0",
     "--max-index", "2"],
    ["registry"]])
@pytest.mark.parametrize("env", ["5", "abc"])
def test_commands_without_a_precision_ignore_the_env(argv, env, capsys,
                                                     monkeypatch):
    monkeypatch.delenv("GRIDFORGE_PREC", raising=False)
    unset = (run(argv), *capsys.readouterr())
    monkeypatch.setenv("GRIDFORGE_PREC", env)
    assert (run(argv), *capsys.readouterr()) == unset
    assert unset[0] == 0


def test_grid_help_states_the_grid_precision(capsys):
    with pytest.raises(SystemExit):
        run(["grid", "--help"])
    # argparse wraps the help text, so compare it with its spaces joined
    out = " ".join(capsys.readouterr().out.split())
    assert "(default 60, for grid count + |v| + 6; env GRIDFORGE_PREC)" in out


@pytest.mark.parametrize("argv, named", [
    (["basis", "--level", "5"], "--weight"),
    (["trace", "--from", "4", "--weight", "0", "--index", "1"], "--to"),
    (["basis", "--level", "5", "--weight", "0", "--space", "x"], "--space"),
    (["genfun-check", "--from", "4", "--to", "2", "--weight", "0",
      "--side", "x"], "--side"),
    (["classify", "--from", "4", "--to", "2", "--weight", "0",
      "--format", "xml"], "--format"),
    (["bogus"], "'bogus'"),
    (["basis", "--level", "5", "--weight", "0", "--prec", "4"],
     "precision must be >= 10"),
    (["classify", "--from", "4", "--to", "2", "--weight", "0",
      "--prec", "20"], "unrecognized arguments: --prec 20")])
def test_usage_errors_name_the_offending_argument(argv, named, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and named in err


def test_seed_audit_reduces_the_family_once(capsys, monkeypatch):
    calls = []
    real = seedsynth.build_family

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(seedsynth, "build_family", counted)
    code, out = invoke(capsys, "seed", "--level", "10", "--weight", "4",
                       "--json")
    assert code == 0 and len(calls) == 1
    # the digest of this command's output since the level-2 weight-4 form,
    # an eta quotient, became a synthesis atom of level 10 (seed2w4 and
    # seed2w4(5z)); the seed and the rank did not change
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fa0690fec9f5724f2b20654afe78a184a89934669889f39ee8c0ea2a8d4590e4")


# sha256 of `seed --level N --weight k --json` stdout; the family's labels,
# order and valuations are in it, so a change to any atom's label, order or
# series changes it.  (10, 4) is pinned above.
PINNED_SEED_JSON = {
    (7, 4): "188fcd380989d71d810b8d409bcd407dcf0c6d8b322f470d4e59068d5db7a965",
    (10, 2): "e7462f299f4322ede89928c3e0f17d71409c94f18b68a3936837f0170bb295f3",
    (13, 4): "943c62b1efb88ac1c0cada3522e96a7250eece04b1f31466124284588504771d",
    (13, 6): "f466473da8eaec5d92792e757f08c83c2654ac70c65606a8547f4cde870fb15b",
    (25, 2): "0add55a3c1461d6ae887fe5545a2931129576a98f7ae6594191fcf69854cab4c",
    (5, 4): "81f996898bd735269244540d52720ba401198204d565bba530bd4c86210fbc22",
    (3, 6): "4b6834ff7e69f14e0a66df6c1650c2928a7c91b0202d9866a3893a63f75957f3",
    (13, 12): "c5f96b298b5a40180e1ef5460301939fb6cd6ec2553273ca2ddb2cb8556c2d05",
}


@pytest.mark.parametrize("N, k", PINNED_SEED_JSON,
                         ids=[f"{N}-{k}" for N, k in PINNED_SEED_JSON])
def test_seed_audit_output_is_pinned(N, k, capsys):
    code, out = invoke(capsys, "seed", "--level", str(N), "--weight", str(k),
                       "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SEED_JSON[N, k]


# the same at --prec 20, where the family of each has about 16 000
# members and its elimination stops after reading under 2 000 of them
PINNED_SEED_JSON_PREC_20 = {
    (12, 6): "de21b8ad6219f45bc9321ff0cc0e7e9e09103f32afbe2d749015b2a447e914ea",
    (18, 6): "af69f798771bc23bc63d26d399fa93006f4ac94f65cad963fbabbba3dba3a1a8",
}


@pytest.mark.parametrize("N, k", PINNED_SEED_JSON_PREC_20,
                         ids=[f"{N}-{k}" for N, k in PINNED_SEED_JSON_PREC_20])
def test_large_seed_audit_output_is_pinned(N, k, capsys):
    code, out = invoke(capsys, "seed", "--level", str(N), "--weight", str(k),
                       "--prec", "20", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PINNED_SEED_JSON_PREC_20[N, k]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "dump.json"
    code, _ = invoke(capsys, "registry", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["levels"]


def test_internal_invariant_failures_exit_3(capsys, monkeypatch):
    real = basis_mod.first_element

    def halved(N, k, space, prec):
        s = real(N, k, space, prec)
        return s + QSeries({s.valuation() + 2: Fraction(1, 2)}, prec)

    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(basis_mod, "first_element", halved)
    assert run(["basis", "--level", "5", "--weight", "0", "--count", "3",
                "--prec", "25"]) == 3
    err = capsys.readouterr().err
    assert "internal validation failure" in err and "non-integral" in err

    def misaligned(*args, **kw):
        raise AssertionError("index ranges of the two sides fail to align")

    monkeypatch.setattr(cli, "build_grid", misaligned)
    assert run(["grid", "--level", "5", "--weight", "0"]) == 3
    assert "fail to align" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    ("build_basis", ["basis", "--level", "5", "--weight", "0"]),
    ("trace", ["trace", "--from", "4", "--to", "2", "--weight", "0",
               "--space", "inf", "--index", "1"]),
])
def test_an_index_error_of_the_library_exits_3(name, argv, capsys,
                                               monkeypatch):
    # every index the command line takes is refused earlier with a
    # ValueError, so an IndexError is a fault of the library
    def outside(*args, **kw):
        raise IndexError("basis index 9 outside built range range(0, 3)")

    monkeypatch.setattr(cli, name, outside)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal validation failure: IndexError: "
                                   "basis index 9 outside built range")


@pytest.mark.parametrize("exc, code", [
    (PrecisionError, 2), (cli.UsageError, 2), (IntegralityError, 3),
    (PinnedPrefixError, 3), (SynthesisError, 3), (AssertionError, 3),
    (IndexError, 3), (OverflowError, 3), (RuntimeError, 3),
])
def test_each_exception_type_has_one_exit_code_and_one_line(exc, code, capsys,
                                                            monkeypatch):
    # a ValueError is a usage error, and any other exception a fault of
    # the library that names its type
    def raising(*args, **kw):
        raise exc("fault")

    monkeypatch.setattr(cli, "trace", raising)
    assert run(["trace", "--from", "4", "--to", "2", "--weight", "0",
                "--space", "inf", "--index", "1"]) == code
    err = ("usage error: fault\n" if code == 2 else
           f"internal validation failure: {exc.__name__}: fault\n")
    assert capsys.readouterr() == ("", err)


def test_hauptmodul_that_is_not_monic_q_inverse_exits_3(capsys, monkeypatch):
    # the square of the level-2 Hauptmodul leads with q^-2; hauptmodul_series
    # refuses it before anything stores or reads it
    monkeypatch.setitem(leveldata._REGISTRY, 2, leveldata.get_level(2)._replace(
        hauptmodul=EtaQuotient({1: 48, 2: -48})))
    monkeypatch.setattr(qseries, "_store", {})
    with pytest.raises(AssertionError,
                       match="Hauptmodul for level 2 is not monic q\\^-1"):
        build_basis(2, 0, "inf", 3, 20)
    assert ("haupt", 2) not in qseries._store
    assert run(["basis", "--level", "2", "--weight", "0", "--count", "3",
                "--prec", "20"]) == 3
    err = capsys.readouterr().err
    assert "internal validation failure" in err
    assert "Hauptmodul for level 2 is not monic q^-1" in err


def test_perturbed_certificate_exits_3(capsys, perturb_certificate):
    # the grid's source, of weight -2, has the first element F_base^l * F_2
    # with F_2 the certificate of weight 2
    perturb_certificate(10, 2)
    assert run(["grid", "--level", "10", "--weight", "-2",
                "--count", "5"]) == 3
    err = capsys.readouterr().err
    assert "internal validation failure" in err
    assert "level 10 weight 2 contradicts its pinned expansion" in err


def test_a_seed_that_differs_from_its_registry_form_exits_3(
        capsys, install_certificate):
    # the added term, of weight 8, has valuation 2 = v_4(3) + 1, so the
    # first element stays monic at q^1 and only the search's seed, which
    # the registry form must equal, tells them apart
    seed = leveldata.get_level(3).seed
    combo = seed.forms[4]
    install_certificate(3, 4, combo._replace(terms=(
        *combo.terms, (1, (("phi", 3, 1), ("eta", seed.base)), 0))))
    assert run(["seed", "--level", "3", "--weight", "4", "--prec", "12"]) == 3
    assert capsys.readouterr() == ("", (
        "internal validation failure: SynthesisError: the registry's first "
        "element of level 3 weight 4 differs from its re-derivation below "
        "q^12\n"))


def test_selftest_reports_any_exception_as_its_criterion_fail_line(
        capsys, monkeypatch):
    # a PrecisionError is a ValueError, which fails its criterion, not the
    # command line's usage
    def short():
        raise PrecisionError("short")

    monkeypatch.setattr(acceptance, "CRITERIA", (("1 fine", lambda: None),
                                                 ("2 short", short)))
    assert run(["selftest"]) == 3
    out, err = capsys.readouterr()
    assert out.startswith("PASS criterion 1 fine (")
    assert out.splitlines()[1:] == [
        "FAIL criterion 2 short: PrecisionError: short"]
    assert err == ""


def test_certificate_outside_the_valence_argument_exits_3(
        capsys, install_certificate):
    cert = certificates()[(7, 4)]
    eta = ("eta", EtaQuotient({1: 16, 2: -8}))
    install_certificate(7, 4, cert._replace(terms=tuple(
        (c, tuple(eta if f == ("eis", 4, 1) else f for f in factors), j)
        for c, factors, j in cert.terms)))
    assert run(["grid", "--level", "7", "--weight", "4", "--count", "5"]) == 3
    err = capsys.readouterr().err
    assert "internal validation failure" in err
    assert "seed of level 7 weight 4: factor ('eta'" in err


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_is_a_usage_error(where, tmp_path, capsys):
    path = tmp_path / "absent" / "x" if where == "missing" else tmp_path
    assert run(["classify", "--from", "4", "--to", "2", "--weight", "0",
                "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write --out {path}: ")


def test_closed_pipe_exits_quietly():
    # the output (about 300 kB) overflows the pipe buffer, so the writer
    # sees the reader close the pipe after the first line
    with subprocess.Popen(
            [sys.executable, "-m", "gridforge.cli", "basis", "--level", "1",
             "--weight", "0", "--count", "40", "--prec", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC)) as proc:
        assert proc.stdout.readline().startswith(b"f_{0,0}^(1) = 1")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_any_other_exception_exits_3_without_a_traceback(capsys,
                                                        monkeypatch):
    # an index too large for a list length raises OverflowError when the
    # Hauptmodul's divisor-sum table is sized, before anything is allocated
    assert run(["trace", "--from", "4", "--to", "2", "--weight", "0",
                "--index", "99999999999999999999", "--prec", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal validation failure: OverflowError: ")
    assert captured.err.count("\n") == 1

    def broken(*args, **kw):
        raise RuntimeError("handler fault")

    monkeypatch.setattr(cli, "trace", broken)
    assert run(["trace", "--from", "4", "--to", "2", "--weight", "0",
                "--space", "inf", "--index", "1"]) == 3
    assert capsys.readouterr() == (
        "", "internal validation failure: RuntimeError: handler fault\n")
