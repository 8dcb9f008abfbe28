import random
from fractions import Fraction

import pytest
import sympy

from parahoric import linalg
from parahoric.induction import (
    NCoordinates,
    _levi_sample,
    apply_field,
    bgg_kernel,
    intertwining_check,
    intertwining_scalar,
    levi_blocks,
    levi_module_basis,
    levi_weyl_dimension,
    split_positions,
    star_action,
    theta_apply,
    theta_matrix,
    theta_preserves_parahoric,
    truncation_threshold,
    weyl_dimension,
)
from parahoric.polynomials import Poly, monomials_up_to_degree
from parahoric.rootdata import gl_datum
from parahoric.slopes import TorusElement


def random_poly(nc: NCoordinates, d: int, rng: random.Random) -> Poly:
    coeffs = {}
    for mono in nc.monomial_basis(d):
        if rng.random() < 0.4:
            coeffs[mono] = Fraction(rng.randint(-9, 9))
    return Poly(nc.variables, coeffs)


def test_gl2_theta_is_iterated_derivative():
    """On GL(2) the theta operator is (d/dz)^(k+1) up to sign."""
    nc = NCoordinates(2)
    z = nc.var((0, 1))
    k = 2
    f = z * z * z * z  # z^4
    g = theta_apply(2, 0, (k, 0), f)
    # (-d/dz)^3 z^4 = -24 z
    assert g == z.scale(Fraction(-24))


def test_gl2_kernel_dimension_grid():
    for k in range(0, 5):
        for d in range(k, k + 4):
            rep = bgg_kernel(2, 0, (k, 0), d)
            assert rep.dim_kernel == k + 1
            assert rep.spaces_equal


def test_bgg_report_example():
    rep = bgg_kernel(2, 0, (3, 0), 8)
    assert rep.dim_kernel == 4
    assert rep.dim_parabolic_model == 4
    assert rep.threshold == 4
    payload = rep.as_dict()
    assert payload["pass"] is True
    assert payload["dim_RQ"] == 4


def test_gl3_kernel_matches_parabolic_model():
    rng = random.Random(0)
    for lam in ((1, 0, 0), (2, 1, 0)):
        for i in (0, 1):
            rep = bgg_kernel(3, i, lam, 5, rng=rng)
            assert rep.spaces_equal, (lam, i)


def test_field_is_a_derivation():
    nc = NCoordinates(3)
    rng = random.Random(1)
    for _ in range(10):
        f = random_poly(nc, 3, rng)
        g = random_poly(nc, 3, rng)
        for i in (0, 1):
            lhs = apply_field(3, i, f * g)
            rhs = apply_field(3, i, f) * g + f * apply_field(3, i, g)
            assert lhs == rhs


def test_theta_matrix_rank_drop():
    m, basis = theta_matrix(2, 0, (1, 0), 4)
    dim = len(basis)
    assert dim == 5
    assert dim - linalg.rank(m) == 2  # kernel 1, z


def test_star_action_integrality_guard():
    d = gl_datum(2)
    nc = NCoordinates(2)
    z = nc.var((0, 1))
    expanding = TorusElement(d, (1, 0), 3)  # <alpha, mu> = 1 > 0
    with pytest.raises(ValueError):
        star_action(expanding, z)
    contracting = TorusElement(d, (0, 1), 3)
    assert star_action(contracting, z) == z.scale(Fraction(3))


def test_intertwining_scalar_value():
    d = gl_datum(2)
    t = TorusElement(d, (0, 1), 3)
    # alpha(t)^{-(k+1)} with v(alpha(t)) = -1 and k = 2
    assert intertwining_scalar(t, 0, (2, 0)) == Fraction(27)


def test_intertwining_identity_random():
    rng = random.Random(42)
    grid = [
        (2, (1, 0), (0, 1)),
        (2, (3, 0), (0, 2)),
        (3, (2, 1, 0), (0, 1, 1)),
        (3, (2, 0, 0), (0, 1, 2)),
    ]
    for n, lam, mu in grid:
        d = gl_datum(n)
        t = TorusElement(d, mu, 3)
        nc = NCoordinates(n)
        for _ in range(15):
            f = random_poly(nc, 3, rng)
            assert intertwining_check(t, 0, lam, f)


def test_levi_weyl_dimension():
    # GL(3), maximal Levi {0}: GL(2) x GL(1) blocks
    assert levi_weyl_dimension(3, {0}, (2, 0, 0)) == 3
    assert levi_weyl_dimension(3, {0, 1}, (2, 1, 0)) == 8  # adjoint of GL(3)


def test_theta_preserves_parahoric_truncation():
    rng = random.Random(9)
    ok = theta_preserves_parahoric(3, {0}, 1, (2, 1, 0), 5, rng)
    assert ok


def test_truncation_threshold_formula():
    assert truncation_threshold(2, 0, (3, 0)) == 4
    # exponent 2 plus the degree-1 field coefficients of GL(3)
    assert truncation_threshold(3, 0, (2, 1, 0)) == 3


def rank_based_levi_basis(n, levi, lam, rng):
    """The selection loop that keeps a sample iff the rank of all kept
    samples plus it is full, with sympy's rank as the independent oracle."""
    blocks = levi_blocks(n, levi)
    inside, _ = split_positions(n, levi)
    target = levi_weyl_dimension(n, levi, lam)
    vectors = []
    for _ in range(40 + 6 * target):
        cand = vectors + [_levi_sample(blocks, inside, lam, rng)]
        cm = sorted(set().union(*[set(q.coeffs) for q in cand]) | {(0,) * len(inside)})
        if sympy.Matrix([[q.coefficient(m) for m in cm] for q in cand]).rank() == len(cand):
            vectors = cand
        if len(vectors) == target:
            return vectors
    raise ArithmeticError("failed to reach the Weyl dimension; weight not Levi-dominant?")


@pytest.mark.parametrize("n, levi, lam", [
    (2, {0}, (3, 0)),
    (2, {0}, (8, 0)),
    (3, {0}, (2, 1, 0)),
    (3, {1}, (2, 1, 0)),
    (3, {0, 1}, (2, 1, 0)),
])
def test_levi_module_basis_matches_rank_based_selection(n, levi, lam):
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        got, _ = levi_module_basis(n, levi, lam, rng=rng)
        assert got == rank_based_levi_basis(n, levi, lam, ref)
        assert rng.getstate() == ref.getstate()  # the same draws were made


def test_gl2_weight_16_reports_the_recorded_failure():
    with pytest.raises(ArithmeticError) as exc:
        bgg_kernel(2, 0, (16, 0), 16, rng=random.Random(5))
    assert str(exc.value) == "failed to reach the Weyl dimension; weight not Levi-dominant?"


def test_weyl_dimension_raises_on_a_non_dominant_weight():
    with pytest.raises(ArithmeticError):
        weyl_dimension((0, 1))
