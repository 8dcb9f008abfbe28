import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from parahoric.manin import (
    ManinSystem,
    P1List,
    UnsupportedLevel,
    lift_to_sl2,
    mat_det,
    mat_mul,
    unimodular_pieces,
)


def test_p1_size_multiplicative():
    # |P^1(Z/M)| = M prod (1 + 1/q) over primes q | M
    assert len(P1List(33)) == 48
    assert len(P1List(15)) == 24
    assert len(P1List(11)) == 12


def test_p1_reps_match_normalizing_every_pair():
    """The divisor first coordinates reach every point: the reps equal the
    normal forms of all M^2 pairs (u, v) with gcd(u, v, M) = 1."""
    for M in range(2, 200):
        p1 = P1List(M)
        every = {p1.normalize(u, v) for u in range(M) for v in range(M) if gcd(gcd(u, v), M) == 1}
        assert p1.reps == sorted(every), M
    assert P1List(1).reps == [(0, 0)]


def test_p1_normal_form_is_the_least_point_of_the_unit_orbit():
    """normalize(u, v) is the least (s u mod M, s v mod M) over the units s
    of Z/M, found by brute force at every point for M <= 40."""
    for M in range(1, 41):
        p1 = P1List(M)
        units = [s for s in range(M) if gcd(s, M) == 1]
        for u in range(M):
            for v in range(M):
                if gcd(gcd(u, v), M) == 1:
                    least = min((s * u % M, s * v % M) for s in units)
                    assert p1.normalize(u, v) == least, (M, u, v)


def test_p1_normalization_is_orbit_invariant():
    p1 = P1List(33)
    for (u, v) in [(1, 5), (3, 7), (11, 3), (0, 1), (1, 0)]:
        i = p1.index(u, v)
        # scaling by a unit lands on the same representative
        for s in (2, 5, 7):
            assert p1.index(s * u % 33, s * v % 33) == i


def test_lift_to_sl2():
    for (u, v) in [(1, 5), (3, 7), (11, 3), (2, 3)]:
        m = lift_to_sl2(u, v, 33)
        assert mat_det(m) == 1
        assert (m[2] - u) % 33 == 0 and (m[3] - v) % 33 == 0


def test_manin_system_level_33():
    ms = ManinSystem(11, 3)
    assert ms.index == 48
    sp = ms.solved_presentation()
    assert len(sp.free_edges) == 8
    assert len(sp.steps) == 15
    # every coset resolves to a free edge through at most one transport
    seen = set()
    for x in range(ms.index):
        leader, kind, g = ms.value_resolution(x)
        seen.add(leader)
        if g is not None:
            assert ms.in_gamma0(g) or mat_det(g) == 1
    assert seen


def test_level_guards():
    with pytest.raises(ValueError):
        ManinSystem(11, 11)  # p | N
    with pytest.raises(ValueError):
        ManinSystem(11, 4)  # p not prime


def test_transport_is_gamma0_equivariant():
    ms = ManinSystem(11, 3)
    for g in ([1, 1, 0, 1], [1, 0, 33, 1], [7, 2, 66, 19]):
        x, m = ms.transport(tuple(g))
        assert ms.in_gamma0(m)


def test_unimodular_pieces_telescope():
    """Continued-fraction pieces chain from infinity to q with det 1."""
    def cusp(m, x):  # m x on P^1(Q), None for infinity
        num, den = (m[0], m[2]) if x is None else (m[0] * x + m[1], m[2] * x + m[3])
        return None if den == 0 else Fraction(num, den)
    for q in (Fraction(3, 7), Fraction(-5, 11), Fraction(22, 7)):
        pieces = unimodular_pieces(q.numerator, q.denominator)
        assert all(mat_det(m) == 1 for m in pieces)
        ends = [(cusp(m, 0), cusp(m, None)) for m in pieces]
        for (_, b), (c, _) in zip(ends, ends[1:]):
            assert b == c
        assert ends[0][0] is None  # the cusp at infinity
        assert ends[-1][1] == q


def test_unimodular_pieces_ignore_the_scale_of_the_pair():
    """A cusp is an unreduced integer pair: (k num, k den) gives the pieces
    of (num, den) for every nonzero k, negative k included, and den = 0 is
    the cusp at infinity, which has none."""
    rng = random.Random(19)
    for _ in range(200):
        num = rng.randint(-500, 500)
        den = rng.choice([-1, 1]) * rng.randint(1, 500)
        for k in (-3, -1, 2, 7):
            assert unimodular_pieces(k * num, k * den) == unimodular_pieces(num, den)
    for num in (1, -1, 5, -12):
        assert unimodular_pieces(num, 0) == []


def _supported_presentations(max_N, primes):
    for N in range(1, max_N):
        for p in primes:
            if N % p:
                ms = ManinSystem(N, p)
                try:
                    yield ms, ms.solved_presentation()
                except UnsupportedLevel:
                    continue


def test_elimination_program_is_ordered_at_every_supported_level():
    """At every supported level with N < 40 and p <= 7, each step reads only
    free edges and the targets of earlier steps, and the free edges, the
    step targets and the tail edge partition the edges."""
    levels = 0
    for ms, sp in _supported_presentations(40, (2, 3, 5, 7)):
        levels += 1
        known = set(sp.free_edges)
        for st in sp.steps:
            assert {y for y, _, _ in st.terms} <= known, (ms.N, ms.p, st.target)
            assert st.target not in known
            known.add(st.target)
        parts = sp.free_edges + [st.target for st in sp.steps] + [ms.leader[sp.tail.x0]]
        assert sorted(parts) == ms.edges, (ms.N, ms.p)
    assert levels == 52


def test_hecke_plan_terms_stay_in_sigma0():
    """Transported U_p terms keep the monoid shape the moment action needs."""
    ms = ManinSystem(11, 3)
    from parahoric.ocsymbols import up_deltas
    plan = ms.hecke_plan(up_deltas(3))
    assert len(plan) == ms.index
    for row in plan:
        assert row
        for (y, sgn, m) in row:
            assert 0 <= y < ms.index
            assert sgn in (1, -1)
            assert mat_det(m) == 3
            assert m[2] % 3 == 0 and m[0] % 3 != 0


# sha256 of repr of (reps, lifts, relations, U_p, T_ell and iota plans) at the
# six levels below. It pins the term order of every plan, which no output
# digest sees because the sums commute; a change that alters the plans on
# purpose re-records it.
COSET_LAYER_DIGEST = "60bef64732101f3e770043c57f4e04d3b69b97f5c3cdf7d4702f1f74f6c80b1f"


def test_coset_layer_is_pinned():
    from parahoric.ocsymbols import IOTA, hecke_deltas, up_deltas
    blobs = []
    for N, p, ell in ((11, 3, 2), (11, 5, 2), (5, 3, 2), (14, 3, 5), (2, 3, 5), (17, 7, 2)):
        ms = ManinSystem(N, p)
        blobs.append((ms.p1.reps, ms.lifts, ms.relations, ms.hecke_plan(up_deltas(p)),
                      ms.hecke_plan(hecke_deltas(ell)), ms.hecke_plan([IOTA])))
    assert hashlib.sha256(repr(blobs).encode()).hexdigest() == COSET_LAYER_DIGEST
