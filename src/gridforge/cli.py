"""Command-line front end.

Commands: basis, grid, seed, trace, classify, obstructions, genfun-check,
registry, selftest.  The parser is the command table: each subcommand's
entry names its handler, and every handler takes (args, prec).  Only
basis, grid, seed, trace and obstructions read a precision and take
--prec; for them `run` resolves it by one rule, --prec, else a nonempty
GRIDFORGE_PREC, else none (the default precision, or for `grid` the grid's
own), writes it back to `args.prec` and refuses one below 10.  The other
commands get None and never look at GRIDFORGE_PREC.  Exit codes: 0
success, 1 mathematical negative (a NotPreserved classification or a
failed identity check), 2 usage error (any ValueError, including an --out
path that cannot be written and a precision that determines none of a
series' terms), 3 internal validation failure (any other exception: a
broken invariant of the library, such as a non-integral basis
coefficient, a basis tail short of its precision or an index outside a
built range, or any other fault).  Either is printed as one stderr line,
without a traceback; exit 3 names the exception's type before its
message.  A reader that closes the output early (`gridforge grid ... |
head`) ends the output quietly without changing the exit code.
`genfun-check --closed-form` checks the closed form of the
level --from grid generating function; a different --to, or --side other
than both, is a usage error.  Every JSON document is indented by 2 and
written by one writer, `_json_text`, whose bytes are those of the standard
library's `json.dumps` at that indent (`genfun-check --format json` prints
one compact line).  `basis`, `grid` and `seed` hand the writer their series
themselves: it writes a QSeries leaf as its `to_json_dict` document, read
straight from the series' integer row.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import count
from json.encoder import encode_basestring_ascii

from gridforge import acceptance
from gridforge.basis import HAT, INF, build_basis, build_grid, duality_residual
from gridforge.leveldata import registry_dump
from gridforge.qseries import DEFAULT_PREC, QSeries
from gridforge.seedsynth import audit_of, reduce_family, seed_of
from gridforge.traceops import (
    classify,
    genfun_check,
    genfun_closed_form,
    obstructions,
    trace,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser and command table, built once per process:
    each subcommand's entry names its handler; the parser has no
    environment-dependent defaults, and each parse returns a new
    namespace."""
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--prec", type=int, default=None,
                           help="working precision (default 60, for grid "
                                "count + |v| + 6; env GRIDFORGE_PREC)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", default=None,
                        help="output path (default stdout)")

    # the shared arguments of a (level, weight) request and of a trace pair
    at_level = argparse.ArgumentParser(add_help=False)
    at_level.add_argument("--level", type=int, required=True)
    at_level.add_argument("--weight", type=int, required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--from", dest="from_level", type=int, required=True)
    pair.add_argument("--to", dest="to_level", type=int, required=True)
    pair.add_argument("--weight", type=int, required=True)

    p = _Parser(prog="gridforge",
                description="Exact canonical bases, modular grids and "
                            "trace operators for genus-zero Gamma_0(N).")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, parents, **kw):
        sp = sub.add_parser(name, parents=parents, **kw)
        sp.set_defaults(handler=handler)
        return sp

    sp = add_parser("basis", _cmd_basis, [precision, common, at_level],
                    help="print canonical basis elements")
    sp.add_argument("--space", choices=(INF, HAT), default=INF)
    sp.add_argument("--count", type=int, default=5)

    sp = add_parser("grid", _cmd_grid, [precision, common, at_level],
                    help="print both sides of a modular grid")
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--check-duality", action="store_true",
                    help="also report the exact duality residual")

    sp = add_parser("seed", _cmd_seed, [precision, common, at_level],
                    help="synthesize a first basis element")
    sp.add_argument("--json", dest="audit_json", action="store_true",
                    help="emit the spanning-family audit as JSON")

    sp = add_parser("trace", _cmd_trace, [precision, common, pair],
                    help="trace a basis element to a divisor level")
    sp.add_argument("--space", choices=(INF, HAT), default=INF)
    sp.add_argument("--index", type=int, required=True)

    add_parser("classify", _cmd_classify, [common, pair],
               help="does the trace preserve duality?")
    add_parser("obstructions", _cmd_obstructions, [precision, common, pair],
               help="obstruction pairs of the traced identities")

    sp = add_parser("genfun-check", _cmd_genfun, [common, pair],
                    help="verify traced generating-function identities")
    sp.add_argument("--side", choices=("k", "dual", "both"), default="both")
    sp.add_argument("--max-index", type=int, default=12)
    sp.add_argument("--closed-form", action="store_true",
                    help="check the closed form of the level --from grid "
                         "generating function instead (--to must equal "
                         "--from; it checks both sides)")

    add_parser("registry", _cmd_registry, [common],
               help="dump the level registry as JSON")
    add_parser("selftest", _cmd_selftest, [common],
               help="run the acceptance suite")
    return p


def _print(text: str):
    """Print a line; if the reader has gone away, discard the rest of the
    output instead of raising."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_text(obj) -> str:
    """The text `json.dumps` gives `obj` at an indent of 2, byte for byte,
    for the documents the CLI prints: dicts with str keys, lists, tuples,
    str, int, bool, None and float, and a QSeries, which is written as its
    `to_json_dict` document.  Any other type, a subclass of one of these
    included, and a key that is not a str raise TypeError.  With an indent
    the standard library encodes through its pure-Python generators; this
    writer appends the pieces to one list and joins them once."""
    out = []
    put = out.append

    def write_series(s, pad):
        # {"prec": P, "coeffs": [[e, "c"], ...]}: each nonzero row entry
        # is one %-format of a pair template built for this depth
        i1 = pad + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "
        put("{" + i1 + '"prec": ' + repr(s._prec) + "," + i1 + '"coeffs": ')
        if not s._row:
            put("[]" + pad + "}")
            return
        d = s._d
        if d == 1:
            pair = "[" + i3 + "%d," + i3 + '"%d"' + i2 + "]"
            pairs = [pair % p for p in zip(count(s._v), s._row) if p[1]]
        else:
            pair = "[" + i3 + "%d," + i3 + '"%s"' + i2 + "]"
            pairs = [pair % (e, Fraction(x, d))
                     for e, x in enumerate(s._row, s._v) if x]
        put("[" + i2 + ("," + i2).join(pairs) + i1 + "]" + pad + "}")

    def write(o, pad):
        t = type(o)
        if t is str:
            put(encode_basestring_ascii(o))
        elif t is list or t is tuple:
            if not o:
                put("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for item in o:
                put(sep)
                write(item, inner)
                sep = "," + inner
            put(pad + "]")
        elif t is int:
            put(repr(o))
        elif t is dict:
            if not o:
                put("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for key, value in o.items():
                if type(key) is not str:
                    raise TypeError(f"JSON object keys must be str, not "
                                    f"{type(key).__name__}: {key!r}")
                put(sep + encode_basestring_ascii(key) + ": ")
                write(value, inner)
                sep = "," + inner
            put(pad + "}")
        elif t is QSeries:
            write_series(o, pad)
        elif o is None or t is bool or t is float:
            put(json.dumps(o))
        else:
            raise TypeError(f"cannot write {t.__name__} as JSON: {o!r}")

    write(obj, "\n")
    return "".join(out)


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc}")
    else:
        _print(text)


def _cmd_basis(args, prec) -> int:
    b = build_basis(args.level, args.weight, args.space, args.count, prec)
    if args.format == "json":
        doc = [{"N": b.N, "k": b.k, "space": b.space, "m": m,
                "series": b.element(m)} for m in b.indices]
        _emit(args, _json_text(doc))
    else:
        letter = "f" if b.space == INF else "g"
        lines = [f"{letter}_{{{b.k},{m}}}^({b.N}) = {b.element(m)}"
                 for m in b.indices]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_grid(args, prec) -> int:
    g = build_grid(args.level, args.weight, args.count, args.prec)
    residual = (duality_residual(g, args.count, args.count)
                if args.check_duality else None)
    if args.format == "json":
        doc = {
            "N": g.N, "k": g.k,
            "fside": [{"m": m, "series": g.fside.element(m)}
                      for m in g.fside.indices],
            "gside": [{"n": n, "series": g.gside.element(n)}
                      for n in g.gside.indices],
        }
        if args.check_duality:
            doc["duality_residual"] = str(residual)
        _emit(args, _json_text(doc))
    else:
        lines = [f"weight {g.k} side:"]
        lines += [f"  f_{{{g.k},{m}}} = {g.fside.element(m)}"
                  for m in g.fside.indices]
        lines.append(f"weight {2 - g.k} side:")
        lines += [f"  g_{{{2 - g.k},{n}}} = {g.gside.element(n)}"
                  for n in g.gside.indices]
        if args.check_duality:
            lines.append(f"duality residual: {residual}")
        _emit(args, "\n".join(lines))
    if args.check_duality and residual != 0:
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_seed(args, prec) -> int:
    # one reduction gives both the seed and the audit of its family
    reduced = reduce_family(args.level, args.weight, prec)
    series = seed_of(reduced, prec)
    if args.audit_json or args.format == "json":
        doc = {"level": args.level, "weight": args.weight,
               "series": series}
        if args.audit_json:
            doc["family"] = audit_of(reduced)
        _emit(args, _json_text(doc))
    else:
        _emit(args, str(series))
    return EXIT_OK


def _cmd_trace(args, prec) -> int:
    rep = trace(args.from_level, args.to_level, args.weight, args.space,
                args.index, prec)
    if args.format == "json":
        _emit(args, _json_text(rep.to_json_dict()))
    else:
        if rep.applicable:
            combo = " + ".join(f"({c})*[{i}]" for i, c in rep.combination) \
                or "0"
            _emit(args, f"trace = {rep.expansion}\ncombination: {combo}")
        else:
            _emit(args, f"not determined: {rep.reason}")
    return EXIT_OK if rep.applicable else EXIT_NEGATIVE


def _cmd_classify(args, prec) -> int:
    c = classify(args.from_level, args.to_level, args.weight)
    if args.format == "json":
        _emit(args, _json_text(c.to_json_dict()))
    else:
        _emit(args, "Preserved" if c.preserved
              else f"NotPreserved ({c.case})")
    return EXIT_OK if c.preserved else EXIT_NEGATIVE


def _cmd_obstructions(args, prec) -> int:
    ob = obstructions(args.from_level, args.to_level, args.weight, prec)
    if args.format == "json":
        _emit(args, _json_text(ob.to_json_dict()))
    else:
        if ob.is_empty:
            _emit(args, "no obstruction pairs (duality preserved)")
        else:
            lines = []
            for p in ob.pairs:
                lines.append(
                    f"[{p.side}-side] f_{{{p.f_weight},{p.f_index}}}"
                    f"^({p.f_level}) * g_{{{p.g_weight},{p.g_index}}}"
                    f"^({p.g_level})")
                lines.append(f"    f = {p.f}")
                lines.append(f"    g = {p.g}")
            _emit(args, "\n".join(lines))
    return EXIT_OK if ob.is_empty else EXIT_NEGATIVE


def _cmd_genfun(args, prec) -> int:
    if args.closed_form:
        if args.to_level != args.from_level:
            raise UsageError(f"--closed-form checks one level: --to "
                             f"{args.to_level} differs from --from "
                             f"{args.from_level}")
        if args.side != "both":
            raise UsageError(f"--closed-form checks both expansions: "
                             f"--side {args.side} cannot narrow it")
        ok = genfun_closed_form(args.from_level, args.weight, args.max_index)
    else:
        ok = genfun_check(args.from_level, args.to_level, args.weight,
                          args.max_index, side=args.side)
    if args.format == "json":
        _emit(args, json.dumps({"holds": ok}))
    else:
        _emit(args, "identity holds" if ok else "identity FAILS")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_registry(args, prec) -> int:
    _emit(args, _json_text(registry_dump()))
    return EXIT_OK


def _cmd_selftest(args, prec) -> int:
    return EXIT_OK if acceptance.run_all(_print) else EXIT_INTERNAL


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        prec = None
        if "prec" in args:
            # args.prec stays None when neither --prec nor GRIDFORGE_PREC
            # sets it
            env = os.environ.get("GRIDFORGE_PREC")
            if args.prec is None and env:
                try:
                    args.prec = int(env)
                except ValueError:
                    raise UsageError(
                        f"GRIDFORGE_PREC is not an integer: {env!r}")
            prec = DEFAULT_PREC if args.prec is None else args.prec
            if prec < 10:
                raise UsageError("precision must be >= 10")
        return args.handler(args, prec)
    except ValueError as exc:
        # UsageError and PrecisionError are ValueErrors
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # any other exception is a fault of the library, not a negative
        print(f"internal validation failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
