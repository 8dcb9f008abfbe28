"""Request lists of the four workloads and the oracles that check them.

Every request calls a public entry point through its module attribute at call
time, so the tracer's wrappers see it. The oracles do not use the
overconvergent engine: they compare with the classical spectrum (control
theorem), the eta product of the level-11 newform, and theta-kernel dimensions
counted by independent code (``oracles.py``); those counts sit in
``expected.json``, written by ``make_expected.py``.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from parahoric import induction, ocsymbols

from oracles import eta_11a_coefficients, unit_root


@dataclass
class Request:
    id: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]   # failure reason or None
    canonical: Callable[[object], dict]            # the object the CLI prints


def canonical_digest(obj: dict) -> str:
    """sha256 of the JSON text the CLI prints for a result."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def _slope0(slopes) -> int:
    return sum(m for s, m in slopes if s == 0)


def _check_series(key: str):
    def check(data, expected: dict) -> str | None:
        want = expected["classical_unit_roots"][key]
        got = _slope0(data.certified_slopes())
        if got != want:
            return f"certified slope-0 multiplicity {got} != classical unit roots {want}"
        return None
    return check


def _check_family(data, expected: dict) -> str | None:
    want = expected["classical_unit_roots"]["11,3,0"]
    got = _slope0(data.center_polygon.certified_slopes())
    if got != want:
        return f"center slope-0 multiplicity {got} != classical unit roots {want}"
    verdict = data.breakpoint_constancy(0)
    if verdict != "constant":
        return f"breakpoint_constancy(0) = {verdict!r}, expected 'constant'"
    return None


def _lift_call(N: int, p: int, M: int):
    def call():
        space = ocsymbols.classical_space(N, p, 0)
        sym = ocsymbols.auto_eigensymbol(space, B=M + 24)
        return sym, ocsymbols.lift_symbol(space, sym, M)
    return call


def _check_lift(p: int):
    def check(out, expected: dict) -> str | None:
        sym, rep = out
        if not (rep.converged and rep.specialization_ok):
            return f"converged={rep.converged} specialization_ok={rep.specialization_ok}"
        a_p = eta_11a_coefficients(p + 1)[p]
        if sym.trace != a_p:
            return f"stabilization trace {sym.trace} != a_{p}(11a) = {a_p}"
        prec = rep.eigenvalue_precision
        if prec < 1 or (rep.eigenvalue - unit_root(a_p, p, prec)) % p**prec:
            return f"eigenvalue differs from the unit root of X^2 - {a_p}X + {p} mod {p}^{prec}"
        return None
    return check


# criterion 4's GL(2) grid, GL(3) at lambda = (2,1,0), and GL(2) at k = d = 16
BGG_GRID = (
    [(2, 0, (k, 0), d) for k in range(9) for d in range(k, k + 7)]
    + [(3, i, (2, 1, 0), 8) for i in (0, 1)]
    + [(2, 0, (16, 0), 16)]
)


def bgg_id(n: int, i: int, lam: tuple[int, ...], d: int) -> str:
    return f"bgg_kernel(n={n},i={i},lam={lam},d={d})".replace(" ", "")


def _bgg_requests(rng: random.Random) -> list[Request]:
    out = []
    for n, i, lam, d in BGG_GRID:
        key = bgg_id(n, i, lam, d)

        def check(rep, expected: dict, key=key) -> str | None:
            want = expected["theta_kernel_dims"][key]
            if not rep.spaces_equal:
                return "spaces_equal is false"
            if rep.dim_kernel != want:
                return f"dim_kernel {rep.dim_kernel} != {want}"
            return None

        out.append(Request(
            key,
            lambda n=n, i=i, lam=lam, d=d: induction.bgg_kernel(n, i, lam, d, rng=rng),
            check,
            lambda rep: rep.as_dict(),
        ))
    return out


def build(workload: str, seed: int) -> list[Request]:
    """Requests of one run, in the order the seed picks."""
    if workload == "series":
        reqs = [
            Request("charpoly_up(11,3,0,M=12,xdeg=14)",
                    lambda: ocsymbols.charpoly_up(11, 3, 0, M=12, xdeg=14),
                    _check_series("11,3,0"), lambda d: d.as_dict()),
            Request("charpoly_up(11,5,2,M=8,xdeg=10)",
                    lambda: ocsymbols.charpoly_up(11, 5, 2, M=8, xdeg=10),
                    _check_series("11,5,2"), lambda d: d.as_dict()),
        ]
    elif workload == "family":
        reqs = [
            Request("family_charpoly(11,3,0,M=12,T=3,xdeg=8)",
                    lambda: ocsymbols.family_charpoly(11, 3, 0, M=12, T=3, xdeg=8),
                    _check_family, lambda d: d.as_dict()),
        ]
    elif workload == "lift":
        reqs = [
            Request(f"lift(11,{p},0,M={M})", _lift_call(11, p, M), _check_lift(p),
                    lambda out: out[1].as_dict())
            for p, M in ((3, 20), (5, 10))
        ]
    elif workload == "bgg":
        reqs = _bgg_requests(random.Random(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{seed}").shuffle(reqs)
    return reqs
