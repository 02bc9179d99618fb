import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gridforge
from gridforge import basis as basis_mod
from gridforge import cli, seedsynth
from gridforge.cli import run
from gridforge.generators import EtaQuotient
from gridforge.leveldata import certificates
from gridforge.qseries import QSeries

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


def test_basis_json_roundtrip(capsys):
    code, out = invoke(capsys, "basis", "--level", "2", "--weight", "-6",
                       "--count", "2", "--prec", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [d["m"] for d in doc] == [2, 3]
    s = QSeries.from_json_dict(doc[0]["series"])
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
    s = QSeries.from_json_dict(doc["series"])
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


def test_genfun_check_command(capsys):
    code, out = invoke(capsys, "genfun-check", "--from", "2", "--to", "1",
                       "--weight", "-6", "--max-index", "8")
    assert code == 0 and "identity holds" in out


def test_genfun_check_over_no_indices_is_a_usage_error(capsys):
    closed = ("--from", "4", "--to", "1", "--level4-closed-form")
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


def test_registry_command(capsys):
    code, out = invoke(capsys, "registry")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["levels"]) == 15
    lvl2 = next(lv for lv in doc["levels"] if lv["level"] == 2)
    assert all(lvl2["u"][k] == lvl2["v"][k] - 1 for k in lvl2["v"])
    lvl9 = next(lv for lv in doc["levels"] if lv["level"] == 9)
    assert any("paper_typo" in f for f in lvl9["flags"])


def test_registry_output_is_pinned(capsys):
    # the dump carries every level's cusp count and its v and u tables
    _, out = invoke(capsys, "registry")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6068f36af5c4178821fa11a3024b7ef7f312ccf769d096ced510ac26ddad98ba")


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
    # the digest of this command's output before the audit and the
    # synthesis shared one reduction
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7a0927f2cbf06edf1ec4c465837a3038555682293dacd4432f0b32c84e2f021c")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "dump.json"
    code, _ = invoke(capsys, "registry", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["levels"]


def test_internal_invariant_failures_exit_3(capsys, monkeypatch):
    real = basis_mod.first_element

    def halved(N, k, space, prec):
        s = real(N, k, space, prec)
        return s + QSeries.monomial(s.valuation() + 2, Fraction(1, 2), prec)

    monkeypatch.setattr(basis_mod, "_basis_cache", {})
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


def test_perturbed_certificate_exits_3(capsys, perturb_certificate):
    perturb_certificate(10, 4)
    assert run(["grid", "--level", "10", "--weight", "4", "--count", "5"]) == 3
    err = capsys.readouterr().err
    assert "internal validation failure" in err
    assert "level 10 weight 4 contradicts its pinned expansion" in err


def test_certificate_outside_the_valence_argument_exits_3(
        capsys, install_certificate):
    cert = certificates()[(7, 4)]
    eta = ("eta", EtaQuotient({1: 16, 2: -8}))
    install_certificate(7, 4, dataclasses.replace(cert, terms=tuple(
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
    proc = subprocess.Popen(
        [sys.executable, "-m", "gridforge.cli", "basis", "--level", "1",
         "--weight", "0", "--count", "40", "--prec", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout.readline().startswith(b"f_{0,0}^(1) = 1")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""
