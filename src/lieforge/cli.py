"""Batch command-line front end.

Subcommands: witt, ranks, census, center, degree, expand, verify.  All output
is machine readable (json or tsv; verify always prints one json document),
all numbers exact, and identical argv plus seed produce byte-identical
stdout.  Exit codes: 0 success, 1 a binding check or verification failed, 2
usage error, or an input too large for memory ("error: out of memory" on
stderr, nothing on stdout), 3 internal error (a cross-check between two
routes of one computation disagreed, a bug in lieforge rather than a
mathematical finding; the message goes to stderr as "internal error: ...").

The argument parser is built once per process, on the first call of main,
and reused by later calls, so a caller that runs many queries in one process
(a test suite, a benchmark loop) pays for it once.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import braids, dk, suites
from .derivations import (
    braidlike_rank,
    braidlike_rank_formula,
    tangential_coords,
    tangential_rank_formula,
)
from .freelie import lyndon_words, witt_rank
from .magnus import (
    AboveCutoff,
    endo_to_series,
    magnus_expand,
    series_read_off,
    word_read_off,
)
from .words import format_word, parse_word

SCHEMA = "lieforge/1"


class UsageError(Exception):
    pass


def _emit(args, payload: dict, rows: list[dict], row_order: list[str]):
    if args.format == "json":
        doc = dict(payload)
        doc["schema"] = SCHEMA
        doc["rows"] = rows
        print(json.dumps(doc, sort_keys=True))
    else:
        print("\t".join(row_order))
        for r in rows:
            print("\t".join(str(r.get(c, "")) for c in row_order))


def _parse_n_range(text: str) -> list[int]:
    m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise UsageError("empty n range")
        return list(range(lo, hi + 1))
    if text.isdigit():
        return [int(text)]
    raise UsageError(f"bad n range {text!r}; expected like 3..6")


_AUT_TOKEN = re.compile(
    r"^(?:(s)(\d+)|(A)\((\d+),(\d+)\)|(inn)\(([^)]*)\)|(chi)\((\d+),(\d+)\)|(xi)|(C)\((\d+)\))(\^-?\d+)?$"
)


def parse_aut_expr(n: int, text: str) -> braids.AutWord:
    """Parse dot-separated automorphism symbols into a formal word."""
    symbols: list[tuple[braids.AutSymbol, int]] = []
    for tok in text.strip().split("."):
        tok = tok.strip()
        if not tok:
            continue
        m = _AUT_TOKEN.match(tok)
        if not m:
            raise UsageError(f"bad automorphism token {tok!r}")
        if m.group(1):
            base = braids.aut_word(n, braids.sym_sigma(int(m.group(2))))
        elif m.group(3):
            base = braids.aut_word(n, braids.sym_a(int(m.group(4)), int(m.group(5))))
        elif m.group(6):
            base = braids.inner_word(parse_word(n, m.group(7)))
        elif m.group(8):
            base = braids.aut_word(n, braids.sym_chi(int(m.group(9)), int(m.group(10))))
        elif m.group(11):
            base = braids.xi_word(n)
        else:
            base = braids.aut_word(n, braids.sym_cj(int(m.group(13))))
        power = int(m.group(14)[1:]) if m.group(14) else 1
        if power < 0:
            base = base.inverse()
            power = -power
        symbols.extend(base.symbols * power)
    return braids.AutWord(n, tuple(symbols))


def cmd_witt(args) -> int:
    rows = []
    ok = True
    for k in range(1, args.max_degree + 1):
        formula = witt_rank(args.n, k)
        count = len(lyndon_words(args.n, k))
        match = formula == count
        ok = ok and match
        rows.append(
            {"degree": k, "formula": formula, "lyndon_count": count, "match": match}
        )
    _emit(args, {"command": "witt", "n": args.n}, rows,
          ["degree", "formula", "lyndon_count", "match"])
    return 0 if ok else 1


def cmd_ranks(args) -> int:
    def cell(k):
        if args.object == "dk":
            computed = dk.dk_component(args.n, k).rank
            formula = dk.dk_rank_formula(args.n, k)
        elif args.object == "der-t-boundary":
            computed = braidlike_rank(args.n, k)
            formula = braidlike_rank_formula(args.n, k)
        elif args.object == "tangential":
            computed = len(tangential_coords(args.n, k))
            formula = tangential_rank_formula(args.n, k)
        else:
            raise UsageError(f"unknown object {args.object!r}")
        return {"degree": k, "computed": computed, "formula": formula,
                "match": computed == formula}
    rows = [cell(k) for k in range(1, args.max_degree + 1)]
    _emit(args, {"command": "ranks", "object": args.object, "n": args.n}, rows,
          ["degree", "computed", "formula", "match"])
    return 0 if all(r["match"] for r in rows) else 1


def cmd_census(args) -> int:
    ns = _parse_n_range(args.n_range)
    rows = [dk.cokernel_census(n, args.degree) for n in ns]
    flat = []
    ok = True
    for r in rows:
        fr = dict(r)
        fr["power_sum_convention"] = json.dumps(r["power_sum_convention"], sort_keys=True)
        ok = ok and r["rank_braidlike"] == r["rank_braidlike_formula"]
        ok = ok and r["rank_dk"] == r["rank_dk_by_summation"]
        flat.append(fr)
    cols = ["n", "degree", "rank_braidlike", "rank_braidlike_formula", "rank_dk",
            "rank_dk_by_summation", "gap"]
    if args.degree == 3:
        cols += ["rank_dk_variant_closed_form", "variant_closed_form_agrees"]
    cols += ["power_sum_convention"]
    _emit(args, {"command": "census", "degree": args.degree}, flat, cols)
    return 0 if ok else 1


def cmd_center(args) -> int:
    if args.object == "dk":
        graded = dk.dk_center(args.n, args.max_degree)
    elif args.object == "dk-star":
        graded = dk.dk_star_center(args.n, args.max_degree)
    else:
        raise UsageError(f"unknown object {args.object!r}")
    rows = []
    ok = True
    for k in sorted(graded):
        lat = graded[k]
        expected = 1 if (args.object == "dk" and k == 1) else 0
        match = lat.rank == expected
        ok = ok and match
        rows.append(
            {
                "degree": k,
                "rank": lat.rank,
                "expected_rank": expected,
                "match": match,
                "basis": json.dumps([list(r) for r in lat.basis.entries]),
            }
        )
    _emit(args, {"command": "center", "object": args.object, "n": args.n}, rows,
          ["degree", "rank", "expected_rank", "match", "basis"])
    return 0 if ok else 1


def _lie_json(elt) -> dict:
    if elt.is_zero():
        return {"degree": None, "coeffs": {}}
    words = lyndon_words(elt.rank_n, elt.degree)
    coeffs = {"".join(str(a) for a in words[p]): c for p, c in sorted(elt.coeffs.items())}
    return {"degree": elt.degree, "coeffs": coeffs}


def cmd_degree(args) -> int:
    if (args.word is None) == (args.auto is None):
        raise UsageError("need exactly one of --word or --auto")
    if args.word is not None:
        w = parse_word(args.n, args.word)
        wr = word_read_off(w, args.max_degree)
        dg = wr.degree
        payload = {"command": "degree", "n": args.n, "word": format_word(w)}
        if isinstance(dg, AboveCutoff):
            row = {"gamma_degree": "above-cutoff", "is_identity": dg.is_identity,
                   "lie_class": json.dumps(None)}
        else:
            row = {"gamma_degree": dg, "is_identity": False,
                   "lie_class": json.dumps(_lie_json(wr.lie_class()), sort_keys=True)}
        _emit(args, payload, [row], ["gamma_degree", "is_identity", "lie_class"])
        return 0
    table = braids.evaluate(parse_aut_expr(args.n, args.auto))
    ro = series_read_off(endo_to_series(table, args.max_degree))
    da = ro.degree
    payload = {"command": "degree", "n": args.n, "auto": args.auto.strip()}
    if isinstance(da, AboveCutoff):
        row = {"a_degree": "above-cutoff", "johnson": json.dumps(None)}
    else:
        jd = ro.johnson_image()
        images = {f"X{i}": _lie_json(jd.image(i)) for i in range(1, args.n + 1)}
        row = {"a_degree": da, "johnson": json.dumps(images, sort_keys=True)}
    _emit(args, payload, [row], ["a_degree", "johnson"])
    return 0


def cmd_expand(args) -> int:
    if (args.word is None) == (args.auto is None):
        raise UsageError("need exactly one of --word or --auto")
    if args.word is not None:
        w = parse_word(args.n, args.word)
        series = magnus_expand(w, args.max_degree)
        coeffs = {
            "".join(str(a) for a in m): c
            for part in series.parts
            for m, c in sorted(part.items())
        }
        row = {"series": json.dumps(coeffs, sort_keys=False)}
        _emit(args, {"command": "expand", "n": args.n, "word": format_word(w)},
              [row], ["series"])
        return 0
    table = braids.evaluate(parse_aut_expr(args.n, args.auto))
    rows = [
        {"generator": f"x{i}", "image": format_word(table.image(i))}
        for i in range(1, args.n + 1)
    ]
    _emit(args, {"command": "expand", "n": args.n, "auto": args.auto.strip()},
          rows, ["generator", "image"])
    return 0


def cmd_verify(args) -> int:
    name = args.suite
    if name == "inner":
        reports = [suites.verify_inner_equality(args.n, args.max_degree, args.samples, args.seed)]
    elif name == "center-pn":
        reports = [suites.verify_center_pn(args.n)]
    elif name == "quotient":
        reports = [suites.verify_quotient_action(args.n)]
    elif name == "johnson":
        reports = [
            suites.verify_johnson_injectivity(args.family, args.n, args.max_degree, args.seed)
        ]
    elif name == "key-theorem":
        reports = [suites.verify_key_theorem_hypothesis(args.n, args.max_degree)]
    elif name == "triangular":
        reports = [suites.verify_triangular_degree1(args.n)]
    elif name == "all":
        reports = suites.verify_all(args.n, args.max_degree, args.samples, args.seed)
    else:
        raise UsageError(f"unknown suite {name!r}")
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "pass": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    print(json.dumps(doc, sort_keys=True))
    return 0 if doc["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lieforge",
        description="Exact computations in free Lie rings and braid automorphism groups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n=True, deg=True):
        sp.add_argument("--format", choices=("json", "tsv"), default="json")
        if n:
            sp.add_argument("--n", type=int, required=True)
        if deg:
            sp.add_argument("--max-degree", type=int, default=4, dest="max_degree")

    sp = sub.add_parser("witt", help="free Lie ranks: formula vs Lyndon count")
    common(sp)
    sp.set_defaults(fn=cmd_witt)

    sp = sub.add_parser("ranks", help="graded ranks of derivation objects")
    sp.add_argument("--object", choices=("dk", "der-t-boundary", "tangential"),
                    required=True)
    common(sp)
    sp.set_defaults(fn=cmd_ranks)

    sp = sub.add_parser("census", help="braid-like vs braid rank census over n")
    common(sp, n=False, deg=False)
    sp.add_argument("--n-range", required=True, dest="n_range")
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(fn=cmd_census)

    sp = sub.add_parser("center", help="graded centers of the braid Lie ring")
    sp.add_argument("--object", choices=("dk", "dk-star"), default="dk")
    common(sp)
    sp.set_defaults(fn=cmd_center)

    sp = sub.add_parser("degree", help="filtration degree of a word or automorphism")
    common(sp)
    sp.add_argument("--word")
    sp.add_argument("--auto")
    sp.set_defaults(fn=cmd_degree)

    sp = sub.add_parser("expand", help="Magnus series of a word, or a table")
    common(sp)
    sp.add_argument("--word")
    sp.add_argument("--auto")
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=("inner", "center-pn", "quotient", "johnson",
                                      "key-theorem", "triangular", "all"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-degree", type=int, default=4, dest="max_degree")
    sp.add_argument("--family", choices=("Inn", "Pn", "FnPn"), default="Pn")
    sp.add_argument("--samples", type=int, default=60)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(fn=cmd_verify)
    return p


# the parser, built on the first call of main and reused by every later call
# in the process (parsing leaves it unchanged)
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
