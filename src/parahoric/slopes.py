"""Controlling operators, critical-slope bounds, and factorization checks.

Torus elements here are p-power points t = mu(p) for an integral
cocharacter mu, which is all the slope theory needs: the valuation of
alpha(t) is the pairing <alpha, mu>.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .padics import CertificationError
from .rootdata import RootDatum, Vector


class FactorizationError(ValueError):
    pass


class TorusElement:
    """The point mu(p) of a split maximal torus."""

    def __init__(self, datum: RootDatum, mu: Vector, p: int):
        self.datum, self.mu, self.p = datum, mu, p
        if len(self.mu) != self.datum.rank:
            raise ValueError("cocharacter length must equal rank")
        if self.p < 2:
            raise ValueError("p must be at least 2")

    def _key(self) -> tuple:
        return self.datum, self.mu, self.p

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return "TorusElement(datum=%r, mu=%r, p=%r)" % self._key()

    def root_valuation(self, beta: Sequence[int]) -> int:
        """v_p(beta(t)) = <beta, mu>."""
        return self.datum.pairing(beta, self.mu)

    def weight_valuation(self, lam: Sequence[int]) -> int:
        return self.datum.pairing(lam, self.mu)

    def times(self, other: "TorusElement") -> "TorusElement":
        if other.datum is not self.datum and other.datum != self.datum:
            raise ValueError("torus elements from different data")
        if other.p != self.p:
            raise ValueError("mixed primes")
        return TorusElement(self.datum, tuple(a + b for a, b in zip(self.mu, other.mu)), self.p)

    def describe(self) -> dict:
        return {"mu": list(self.mu), "p": self.p}


def in_T_plus(t: TorusElement) -> bool:
    """Contracting monoid test: <alpha, mu> <= 0 on every simple root."""
    return all(t.root_valuation(a) <= 0 for a in t.datum.simple_roots)


def in_T_plusplus(t: TorusElement, levi: Iterable[int]) -> bool:
    """Strict contraction off the Levi: requires t in T^+ first.

    Simple roots in the Levi may pair to zero; all others must be < 0.
    """
    s = t.datum.check_levi(levi)
    if not in_T_plus(t):
        raise FactorizationError("t must lie in T^+ before testing strictness")
    return all(
        t.root_valuation(t.datum.simple_roots[i]) < 0
        for i in range(t.datum.nsimple)
        if i not in s
    )


def h_crit(t: TorusElement, simple_index: int, lam: Sequence[int]) -> int:
    """Critical-slope bound -(<lambda, alpha^vee> + 1) v_p(alpha(t)).

    Cross-checked against the dot-action route <s_alpha * lambda - lambda, mu>.
    """
    datum = t.datum
    alpha = datum.simple_roots[simple_index]
    n = datum.pairing(lam, datum.coroots[simple_index]) + 1
    val = t.root_valuation(alpha)
    h = -n * val
    star = datum.weyl_star(lam, simple_index)
    alt = datum.pairing(tuple(a - b for a, b in zip(star, lam)), t.mu)
    if alt != h:
        raise CertificationError("dot-action route disagrees with h_crit")
    return h


def normalize_valuation(t: TorusElement, lam: Sequence[int], v) -> object:
    """Shift a raw eigenvalue valuation to the lambda-normalized one.

    For p-power torus points the normalizer character evaluates to
    lambda(t)^{-1}, so the shift is v - <lambda, mu>.
    """
    return v - t.weight_valuation(lam)


# catalog of step elements for the greedy factorization

def step_element(datum: RootDatum, simple_index: int, p: int) -> TorusElement:
    """A torus element contracting exactly the given simple direction.

    GL(n): diag(1,..,1,p,..,p) with p in the last n-1-i slots (0-based i).
    GSp(4): (0,1,2)(p) for the short root, (0,0,1)(p) for the long one.
    """
    if datum.name.upper().startswith("GL"):
        n = datum.rank
        mu = (0,) * (simple_index + 1) + (1,) * (n - simple_index - 1)
        return TorusElement(datum, mu, p)
    if datum.name == "GSp4":
        mu = (0, 1, 2) if simple_index == 0 else (0, 0, 1)
        return TorusElement(datum, mu, p)
    # generic fallback: minus a fundamental coweight, scaled to integrality.
    # <alpha_j, mu> = -c delta_ij with c > 0 contracts the chosen root and
    # centralizes the rest, which makes every suffix condition automatic;
    # verify_factorization still checks them downstream.
    rhs = [-int(j == simple_index) for j in range(datum.nsimple)]
    x = linalg.solve(datum.simple_roots, rhs)
    if x is None:
        raise FactorizationError(
            f"no step element found for group {datum.name!r} root {simple_index}"
        )
    den = math.lcm(*(c.denominator for c in x))
    return TorusElement(datum, tuple(int(c * den) for c in x), p)


class Step(NamedTuple):
    simple_index: int
    t: TorusElement


class ControllingDatum(NamedTuple):
    """A factorized controlling operator along a parabolic chain.

    chain[i] is the Levi subset before step i; chain[-1] is the full set.
    """

    datum: RootDatum
    levi: frozenset[int]
    p: int
    steps: tuple[Step, ...]
    chain: tuple[frozenset[int], ...]

    def total(self) -> TorusElement:
        t = TorusElement(self.datum, (0,) * self.datum.rank, self.p)
        for s in self.steps:
            t = t.times(s.t)
        return t


def greedy_factorization(
    datum: RootDatum,
    levi: Iterable[int],
    p: int,
    order: Sequence[int] | None = None,
) -> ControllingDatum:
    """Factor a controlling element for Q as a product of catalog steps.

    One step per simple root outside the Levi, taken in the given order
    (default: ascending index). The result always verifies; see
    verify_factorization for the conditions.
    """
    q = datum.check_levi(levi)
    added = sorted(datum.simple_indices() - q) if order is None else list(order)
    if sorted(added) != sorted(datum.simple_indices() - q):
        raise FactorizationError("order must enumerate the non-Levi simple roots")
    steps = []
    chain = [q]
    cur = set(q)
    for i in added:
        steps.append(Step(i, step_element(datum, i, p)))
        cur.add(i)
        chain.append(frozenset(cur))
    cd = ControllingDatum(datum, q, p, tuple(steps), tuple(chain))
    ok, msg = verify_factorization(cd)
    if not ok:
        raise FactorizationError(f"catalog step verification failed: {msg}")
    return cd


def verify_factorization(cd: ControllingDatum) -> tuple[bool, str]:
    """Check the factorization conditions, returning (ok, reason).

    Each step must lie in T^+ and contract its own root; every suffix
    product must lie in T_P^{++} for the parabolic it starts from.
    """
    datum = cd.datum
    if len(cd.chain) != len(cd.steps) + 1:
        return False, "chain length mismatch"
    for k, step in enumerate(cd.steps):
        if not in_T_plus(step.t):
            return False, f"step {k} not in T^+"
        if step.t.root_valuation(datum.simple_roots[step.simple_index]) >= 0:
            return False, f"step {k} does not contract alpha_{step.simple_index}"
        if cd.chain[k] | {step.simple_index} != cd.chain[k + 1]:
            return False, f"chain does not add alpha_{step.simple_index} at step {k}"
    for k in range(len(cd.steps)):
        suffix = cd.steps[k].t
        for later in cd.steps[k + 1:]:
            suffix = suffix.times(later.t)
        if not in_T_plus(suffix):
            return False, f"suffix product from step {k} not in T^+"
        if not in_T_plusplus(suffix, cd.chain[k]):
            return False, f"suffix product from step {k} not strict off its parabolic"
    return True, "ok"


class StepReport(NamedTuple):
    simple_index: int
    root: Vector
    mu: Vector
    h_crit: int
    valuation: object
    ok: bool

    def as_dict(self) -> dict:
        return {
            "simple_index": self.simple_index,
            "root": list(self.root),
            "mu": list(self.mu),
            "h_crit": self.h_crit,
            "valuation": str(self.valuation),
            "strict": self.ok,
        }


class SlopeReport(NamedTuple):
    group: str
    levi: tuple[int, ...]
    weight: Vector
    p: int
    steps: tuple[StepReport, ...]
    passed: bool

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "levi": list(self.levi),
            "weight": list(self.weight),
            "p": self.p,
            "steps": [s.as_dict() for s in self.steps],
            "noncritical": self.passed,
        }


def q_noncritical(
    datum: RootDatum,
    levi: Iterable[int],
    lam: Sequence[int],
    valuations: Sequence,
    p: int,
) -> SlopeReport:
    """Small-slope verdict along a factorized controlling operator.

    valuations[i] is the (normalized) valuation of the i-th step eigenvalue;
    the verdict holds iff v_i < h_crit at every step. Requires a dominant
    weight so the bounds are the intended ones.
    """
    q = datum.check_levi(levi)
    if not datum.is_dominant(lam):
        raise ValueError("weight must be dominant")
    cd = greedy_factorization(datum, q, p)
    if len(valuations) != len(cd.steps):
        raise ValueError(
            f"expected {len(cd.steps)} valuations (one per non-Levi simple root), "
            f"got {len(valuations)}"
        )
    reports = []
    for step, v in zip(cd.steps, valuations):
        h = h_crit(step.t, step.simple_index, lam)
        ok = v < h
        reports.append(
            StepReport(
                simple_index=step.simple_index,
                root=datum.simple_roots[step.simple_index],
                mu=step.t.mu,
                h_crit=h,
                valuation=v,
                ok=ok,
            )
        )
    return SlopeReport(
        group=datum.name,
        levi=tuple(sorted(q)),
        weight=tuple(lam),
        p=p,
        steps=tuple(reports),
        passed=all(r.ok for r in reports),
    )
