"""End-to-end acceptance checks.

One test per criterion; each prints a single [PASS] line on success (visible
with -s or on failure via the assertion message) and enforces its runtime
budget. Random sweeps are seeded, so the suite is deterministic.
"""
import random
import time
from fractions import Fraction

from bgg_reference import theta_kernel_dim_mod
from moment_reference import apply_moments, moment_matrix
from parahoric.induction import (
    NCoordinates,
    bgg_kernel,
    intertwining_check,
    levi_module_basis,
    star_action,
)
from parahoric.ocsymbols import (
    auto_eigensymbol,
    charpoly_up,
    classical_space,
    family_charpoly,
    lift_symbol,
    random_initial_lift_pair,
)
from parahoric.padics import hensel_lift_root, newton_polygon_of_poly
from parahoric.polynomials import Poly
from parahoric.rootdata import gl_datum, gsp4_datum
from parahoric.slopes import (
    TorusElement,
    greedy_factorization,
    h_crit,
    in_T_plus,
    in_T_plusplus,
    step_element,
)

import pytest


def report(n: int, label: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {n} over budget: {elapsed:.1f}s >= {budget}s"
    print(f"[PASS] criterion {n}: {label} ({elapsed:.2f}s)")


def test_criterion_1_slope_bounds_exact():
    t0 = time.monotonic()
    rng = random.Random(2024)
    for n in range(2, 7):
        d = gl_datum(n)
        for _ in range(50):
            lam = tuple(sorted((rng.randint(0, 20) for _ in range(n)), reverse=True))
            for i in range(n - 1):
                t = step_element(d, i, 7)
                assert h_crit(t, i, lam) == lam[i] - lam[i + 1] + 1
    gs = gsp4_datum()
    for _ in range(50):
        k2 = rng.randint(0, 15)
        k1 = k2 + rng.randint(0, 15)
        lam = (k1, k2, 0)
        s = greedy_factorization(gs, {0}, 7).steps[0]
        assert h_crit(s.t, s.simple_index, lam) == k2 + 1
        kl = greedy_factorization(gs, {1}, 7).steps[0]
        assert h_crit(kl.t, kl.simple_index, lam) == k1 - k2 + 1
    report(1, "GL(2..6) and GSp(4) slope bounds match the closed forms", t0, 1.0)


GL2_POS = [(1, -1)]
GL3_POS = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
GSP4_POS = [(1, -1, 0), (0, 2, -1), (1, 1, -1), (2, 0, -1)]


def _oracle_star(datum, pos_roots, lam, i):
    rho = [Fraction(sum(b[j] for b in pos_roots), 2) for j in range(len(lam))]
    shifted = [Fraction(x) + r for x, r in zip(lam, rho)]
    n = sum(a * b for a, b in zip(shifted, map(Fraction, datum.coroots[i])))
    refl = [x - n * a for x, a in zip(shifted, datum.simple_roots[i])]
    return tuple(x - r for x, r in zip(refl, rho))


def test_criterion_2_weyl_star_oracle():
    t0 = time.monotonic()
    cases = [
        (gl_datum(2), GL2_POS, 2),
        (gl_datum(3), GL3_POS, 3),
        (gsp4_datum(), GSP4_POS, 3),
    ]
    box = range(-5, 6)
    for datum, pos, rank in cases:
        lams = [()]
        for _ in range(rank):
            lams = [l + (x,) for l in lams for x in box]
        for lam in lams:
            for i in range(datum.nsimple):
                assert datum.weyl_star(lam, i) == _oracle_star(datum, pos, lam, i)
    report(2, "weyl_star equals the rho-shift oracle on the [-5,5] box", t0, 5.0)


def test_criterion_3_controlling_operator_containment():
    t0 = time.monotonic()
    rng = random.Random(7)
    d = gl_datum(4)
    simple = list(range(3))
    checked = 0
    while checked < 1000:
        mu = tuple(rng.randint(-4, 2) for _ in range(4))
        t = TorusElement(d, mu, 2)
        plus = all(d.pairing(a, mu) <= 0 for a in d.simple_roots)
        assert in_T_plus(t) is plus  # the T^+ iff-criterion
        if not plus:
            continue
        P = frozenset(i for i in simple if rng.random() < 0.4)
        Q = P | frozenset(i for i in simple if rng.random() < 0.4)
        strict_P = all(d.pairing(d.simple_roots[i], mu) < 0 for i in simple if i not in P)
        assert in_T_plusplus(t, P) is strict_P  # the T^{++} iff-criterion
        if in_T_plusplus(t, P):
            assert in_T_plusplus(t, Q)  # T_P^{++} inside T_Q^{++}
        checked += 1
    report(3, "T^+ / T^{++} criteria and containment over 10^3 samples", t0, 1.0)


def test_criterion_4_bgg_exactness_truncated():
    t0 = time.monotonic()
    for k in list(range(0, 9)) + [16, 20, 24]:
        for d in range(k, k + 7):
            rep = bgg_kernel(2, 0, (k, 0), d)
            assert rep.dim_kernel == k + 1, (k, d)
            assert rep.spaces_equal, (k, d)
    for lam in ((1, 0, 0), (2, 1, 0), (2, 0, 0)):
        for i in (0, 1):
            rep = bgg_kernel(3, i, lam, 6)
            assert rep.spaces_equal, (lam, i)
    # the GL(3) Levi module of dimension 27, built on its own wall bound
    t1 = time.monotonic()
    vecs, _ = levi_module_basis(3, {0, 1}, (4, 2, 0))
    assert len(vecs) == 27
    assert time.monotonic() - t1 < 1.0
    # GL(5) at d = 4: 1001 monomials in 375 weight blocks, on its own wall
    # bound; the kernel dimension is checked against a rank mod a prime
    t1 = time.monotonic()
    rep = bgg_kernel(5, 0, (1, 0, 0, 0, 0), 4)
    assert time.monotonic() - t1 < 0.5
    assert rep.spaces_equal
    assert rep.dim_kernel == theta_kernel_dim_mod(5, 0, (1, 0, 0, 0, 0), 4) == 671
    report(4, "theta kernels match parabolic models at truncation", t0, 120.0)


def test_criterion_5_intertwining_identity():
    t0 = time.monotonic()
    rng = random.Random(5)
    grid = [
        (2, (1, 0), (0, 1)),
        (2, (3, 0), (0, 2)),
        (3, (2, 1, 0), (0, 1, 1)),
        (3, (2, 0, 0), (0, 1, 2)),
    ]
    for n, lam, mu in grid:
        datum = gl_datum(n)
        t = TorusElement(datum, mu, 3)
        nc = NCoordinates(n)
        monos = nc.monomial_basis(3)
        for _ in range(100):
            coeffs = {m: Fraction(rng.randint(-9, 9)) for m in monos if rng.random() < 0.3}
            f = Poly(nc.variables, coeffs)
            assert intertwining_check(t, 0, lam, f)
    report(5, "theta transform law exact on random truncated elements", t0, 60.0)


def test_criterion_6_numerical_classicality():
    t0 = time.monotonic()
    space = classical_space(11, 3, 0)
    sym = auto_eigensymbol(space, B=40)
    rep = lift_symbol(space, sym, 10)
    assert rep.converged and rep.iterations <= 40
    assert rep.specialization_ok and rep.specialization_precision == 10
    alpha = hensel_lift_root([3, 1, 1], 3, r0=2, prec=10)
    prec = min(rep.eigenvalue_precision, 8)
    assert prec >= 8  # documented two-digit loss cap at M = 10
    assert (rep.eigenvalue - alpha) % 3**prec == 0
    crit = auto_eigensymbol(space, B=40, slope=1)
    with pytest.raises(ValueError, match="noncritical-slope precondition"):
        lift_symbol(space, crit, 10)
    report(6, "slope-0 lift classical, slope-1 refinement rejected", t0, 120.0)


def test_criterion_7_lift_uniqueness():
    t0 = time.monotonic()
    space = classical_space(11, 3, 0)
    sym = auto_eigensymbol(space, B=44)
    agree, worst = random_initial_lift_pair(space, sym, 10, seed=2718)
    assert agree, f"lifts disagree above the filtration moduli (worst {worst})"
    report(7, "independent random initial lifts agree at the moduli", t0, 120.0)


def _eta_product_coefficients(count: int) -> list[int]:
    """q-expansion of eta(z)^2 eta(11z)^2 = q prod (1-q^n)^2 (1-q^11n)^2."""
    # dedekind eta without the q^(1/24): prod (1 - q^n)
    def euler(scale: int) -> list[int]:
        out = [0] * count
        out[0] = 1
        for n in range(1, count):
            step = scale * n
            if step >= count:
                break
            prev = out[:]
            for i in range(count - step):
                if prev[i]:
                    out[i + step] -= prev[i]
        return out

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * count
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if i + j < count:
                        out[i + j] += x * y
        return out

    e1 = euler(1)
    e11 = euler(11)
    f = mul(mul(e1, e1), mul(e11, e11))
    return [0] + f[: count - 1]  # shift by the leading q


def test_criterion_8_spectral_consistency():
    t0 = time.monotonic()
    # independent oracle: a_3 of the level-11 newform from its eta product
    eta = _eta_product_coefficients(14)
    assert eta[1] == 1 and eta[2] == -2 and eta[3] == -1 and eta[13] == 4
    a3 = eta[3]
    oracle = newton_polygon_of_poly([3, -a3, 1], 3)  # X^2 + X + 3
    # root valuations of the Hecke polynomial = U_p slopes of the two
    # stabilizations; the Fredholm polygon reports them as segment slopes
    oracle_slopes = {v for v, _ in oracle.root_valuations()}
    assert oracle_slopes == {Fraction(0), Fraction(1)}

    data = charpoly_up(11, 3, 0, 12, xdeg=14)
    cert = {s for s, _ in data.certified_slopes()}
    assert oracle_slopes <= cert, f"certified slopes {cert} miss the oracle"

    fam = family_charpoly(11, 3, 0, 12, T=3, xdeg=8)
    ok, shared = fam.center_matches(data)
    assert ok, "disc-center coefficients disagree with the single-weight run"
    assert min(shared[1 : fam.xdeg + 1]) >= 10
    assert fam.breakpoint_constancy(0) == "constant"
    report(8, "U_p polygon certifies {0,1}; family center agrees", t0, 300.0)


def test_criterion_9_integrality_suite():
    t0 = time.monotonic()
    rng = random.Random(99)
    p = 3
    done = 0
    while done < 1000:
        a = rng.randint(1, 40)
        if a % p == 0:
            continue
        gamma = (a, rng.randint(-40, 40), p * rng.randint(-12, 12), rng.randint(-40, 40))
        if gamma[0] * gamma[3] - gamma[1] * gamma[2] == 0:
            continue
        k = rng.randint(0, 3)
        E = moment_matrix(gamma, k, 4, p)
        mu = [Fraction(rng.randint(-50, 50)) for _ in range(4)]
        for x in apply_moments(E, mu):
            assert x.denominator % p != 0
        done += 1
    d = gl_datum(3)
    nc = NCoordinates(3)
    monos = nc.monomial_basis(2)
    done = 0
    while done < 1000:
        mu = tuple(rng.randint(-3, 3) for _ in range(3))
        t = TorusElement(d, mu, p)
        if not in_T_plus(t):
            continue
        coeffs = {m: Fraction(rng.randint(-9, 9)) for m in monos if rng.random() < 0.5}
        f = Poly(nc.variables, coeffs)
        g = star_action(t, f)
        for c in g.coeffs.values():
            assert c.denominator == 1
        done += 1
    report(9, "monoid and torus actions preserve integral structures", t0, 30.0)
