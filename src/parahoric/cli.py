"""Command-line front end: slope tables, BGG checks, lifting runs, spectra.

Exit codes: 0 on a passing verdict or convergence, 1 on a checked failure
(a broken certification invariant among them), 2 on a usage error. JSON
output is canonical (sorted keys, fixed indent); tables and CSV are derived
views of the same payload, so identical arguments produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from .induction import bgg_kernel
from .ocsymbols import (
    DivergenceError,
    auto_eigensymbol,
    charpoly_up,
    classical_space,
    family_charpoly,
    lift_symbol,
)
from .padics import default_precision
from .rootdata import (
    RootDatum,
    datum_by_name,
    datum_from_json,
    gl_datum,
    gsp4_datum,
    parse_levi,
)
from .slopes import q_noncritical


# ---------------------------------------------------------------------------
# output plumbing


def _emit(fmt: str, payload, rows: list[list[str]]) -> None:
    """Print payload as canonical JSON, or rows as CSV or an aligned table."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for r in rows:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _dict_rows(payload: dict) -> list[list[str]]:
    rows = [["field", "value"]]
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, (dict, list)):
            rows.append([key, json.dumps(val, sort_keys=True)])
        else:
            rows.append([key, str(val)])
    return rows


# ---------------------------------------------------------------------------
# argument parsing helpers


def _load_datum(source: str) -> RootDatum:
    """A built-in name (GL2..GLn, GSp4), a path to a JSON file, or inline JSON."""
    s = source.strip()
    if s.startswith("{"):
        return datum_from_json(s)
    if s.endswith(".json") or "/" in s:
        return datum_from_json(Path(s).read_text())
    return datum_by_name(s)


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    """'2,1,0' or named 'k1=5,k2=2', where k<i> must be the i-th entry;
    short vectors are padded with zeros."""
    vals = []
    names = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" in tok:
            name, tok = (part.strip() for part in tok.split("=", 1))
            if name in names:
                raise ValueError(f"weight name {name} repeats")
            names.add(name)
            if name != f"k{len(vals) + 1}":
                raise ValueError(f"weight entry {name}={tok} is entry {len(vals) + 1}; "
                                 "k<i> names the i-th entry")
        vals.append(int(tok))
    if not vals:
        raise ValueError("empty weight")
    if len(vals) > rank:
        raise ValueError(f"weight has {len(vals)} coordinates, group rank is {rank}")
    return tuple(vals) + (0,) * (rank - len(vals))


def _parse_vals(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ZeroDivisionError:
        raise ValueError(f"valuations {text!r} have a zero denominator") from None


# ---------------------------------------------------------------------------
# commands


def cmd_slopes(args) -> int:
    datum = _load_datum(args.group)
    levi = parse_levi(datum, args.Q)
    lam = _parse_weight(args.weight, datum.rank)
    vals = _parse_vals(args.vals)
    report = q_noncritical(datum, levi, lam, vals, args.p)
    payload = report.as_dict()
    payload["precision"] = "exact"
    rows = [["step", "root", "h_crit", "valuation", "strict"]]
    for i, s in enumerate(report.steps):
        rows.append([
            str(i), str(list(s.root)), str(s.h_crit), str(s.valuation),
            str(s.ok).lower(),
        ])
    rows.append(["verdict", "", "", "", "noncritical" if report.passed else "critical"])
    _emit(args.format, payload, rows)
    return 0 if report.passed else 1


def cmd_bgg_check(args) -> int:
    datum = _load_datum(args.group)
    if not datum.name.startswith("GL"):
        raise ValueError("bgg-check covers GL(n) only")
    n = datum.rank
    if args.k is not None:
        lam = (args.k,) + (0,) * (n - 1)
    else:
        lam = _parse_weight(args.weight, n)
    report = bgg_kernel(n, args.i, lam, args.d)
    payload = report.as_dict()
    payload["precision"] = "exact"
    _emit(args.format, payload, _dict_rows(payload))
    return 0 if report.spaces_equal else 1


def cmd_lift(args) -> int:
    M = args.M if args.M is not None else default_precision()
    choice = args.eigenvalue_choice
    if choice == "ordinary":
        slope = 0
    elif choice.startswith("slope:"):
        slope = int(choice.split(":", 1)[1])
    else:
        raise ValueError("--eigenvalue-choice must be 'ordinary' or 'slope:<h>'")
    if args.k < 0:
        raise ValueError(f"k must be at least 0, got {args.k}")
    if M < args.k + 2:
        # the lift tunes moment k + 1, so it needs at least k + 2 moments
        raise ValueError(f"M must be at least k + 2 = {args.k + 2}, got {M}")
    if slope not in (0, args.k + 1):
        # the search splits x^2 - a_p x + p^(k+1) only when a_p is a unit,
        # and then its roots have slopes 0 and k + 1
        raise ValueError(f"slope must be 0 or k + 1 = {args.k + 1}, got {slope}")
    space = classical_space(args.N, args.p, args.k)
    try:
        sym = auto_eigensymbol(space, B=M + 24, slope=slope)
        report = lift_symbol(space, sym, M)
    except (ValueError, DivergenceError) as e:
        payload = {"converged": False, "error": str(e)}
        _emit(args.format, payload, _dict_rows(payload))
        return 1
    payload = report.as_dict()
    # identify which eigensystem was lifted: the U_p quadratic of its block
    payload["stabilization"] = {"trace": sym.trace, "norm": sym.norm, "slope": sym.slope}
    _emit(args.format, payload, _dict_rows(payload))
    return 0 if report.converged and report.specialization_ok else 1


def cmd_charpoly(args) -> int:
    M = args.M if args.M is not None else default_precision()
    if args.disc_center is not None:
        data = family_charpoly(
            args.N, args.p, args.disc_center, M, T=args.T, xdeg=args.xdeg
        )
    else:
        data = charpoly_up(args.N, args.p, args.k, M, xdeg=args.xdeg)
    _emit(args.format, data.as_dict(), data.csv_rows())
    return 0


def cmd_catalog(args) -> int:
    groups = [gl_datum(n) for n in range(2, 7)] + [gsp4_datum()]
    payload = {
        "groups": [
            {
                "name": g.name,
                "rank": g.rank,
                "simple_roots": [list(v) for v in g.simple_roots],
                "coroots": [list(v) for v in g.coroots],
            }
            for g in groups
        ],
        "custom_schema": {
            "name": "string",
            "rank": "int",
            "simple_roots": "list of rank-length int vectors",
            "coroots": "list of rank-length int vectors, paired <a_i, a_i^vee> = 2",
        },
    }
    rows = [["name", "rank", "simple_roots"]]
    for g in payload["groups"]:
        rows.append([g["name"], str(g["rank"]), json.dumps(g["simple_roots"])])
    _emit(args.format, payload, rows)
    if args.format == "table":
        print("custom groups: pass --group a JSON file with fields "
              "name, rank, simple_roots, coroots")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parahoric",
        description="parahoric slope bounds, BGG checks, and overconvergent "
                    "modular-symbol computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp, default):
        sp.add_argument("--format", choices=("table", "json", "csv"), default=default)

    sp = sub.add_parser("slopes", help="per-step small-slope verdict for (G, Q, weight)")
    sp.add_argument("--group", required=True, help="GL2..GLn, GSp4, or a root-datum JSON path")
    sp.add_argument("--Q", required=True, help="parabolic: borel, full, siegel, klingen, or indices")
    sp.add_argument("--weight", required=True, help="dominant weight, e.g. 2,1,0 or k1=5,k2=2")
    sp.add_argument("--vals", required=True, help="one eigenvalue valuation per step, e.g. 0,1/2")
    sp.add_argument("--p", type=int, default=2, help="prime label for the report (bounds are p-free)")
    add_format(sp, "table")
    sp.set_defaults(func=cmd_slopes)

    sp = sub.add_parser("bgg-check", help="theta-kernel vs parabolic-model truncation")
    sp.add_argument("--group", default="GL2")
    sp.add_argument("--i", type=int, default=0, help="simple-root index of the theta operator")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--k", type=int, help="GL(n) shorthand for weight (k,0,...,0)")
    which.add_argument("--weight", help="dominant weight, e.g. 2,1,0 or k1=5,k2=2")
    sp.add_argument("--d", type=int, required=True, help="polynomial degree cap")
    add_format(sp, "table")
    sp.set_defaults(func=cmd_bgg_check)

    sp = sub.add_parser("lift", help="lift a classical eigensymbol to an overconvergent one")
    sp.add_argument("--N", type=int, required=True, help="tame level, coprime to p")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True, help="weight (symbol values in Sym^k)")
    sp.add_argument("--M", type=int, default=None,
                    help="moment precision (default PARAHORIC_PRECISION or 20)")
    sp.add_argument("--eigenvalue-choice", default="ordinary",
                    help="'ordinary' (slope 0) or 'slope:<h>' with h = 0 or k + 1")
    add_format(sp, "json")
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("charpoly", help="certified U_p characteristic-series data")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--k", type=int, help="single weight")
    which.add_argument("--disc-center", type=int,
                       help="center weight k0 of a family over the weight disc")
    sp.add_argument("--M", type=int, default=None,
                    help="moment precision (default PARAHORIC_PRECISION or 20)")
    sp.add_argument("--xdeg", type=int, default=10, help="series coefficients computed")
    sp.add_argument("--T", type=int, default=3, help="weight-variable truncation (family only)")
    add_format(sp, "csv")
    sp.set_defaults(func=cmd_charpoly)

    sp = sub.add_parser("catalog", help="built-in root data and the custom JSON schema")
    add_format(sp, "table")
    sp.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as e:  # CertificationError among them
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
