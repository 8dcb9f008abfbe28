import hashlib
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
    parahoric_truncation_basis,
    space_rows,
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


def _exact_values(n, levi, lam, d, seed):
    """sha256 of every exact value one parahoric case produces, as text: the
    Levi module polynomials and monomials, the rows of the truncated Q-model,
    and the theta matrix at the simple root of the Levi. str() prints an int
    and the equal Fraction alike, so the text pins values, not their types.
    Also returns the Levi module and theta values, then the model values,
    whose rows are the primitive integer kernel vectors of linalg."""
    (i,) = levi
    vecs, monos = levi_module_basis(n, levi, lam, rng=random.Random(seed))
    model, basis = parahoric_truncation_basis(n, levi, lam, d, rng=random.Random(seed))
    rows = space_rows(model, basis)
    mat, tbasis = theta_matrix(n, i, lam, d)
    text = "\n".join([
        repr(vecs), repr(monos), repr(basis), repr(tbasis),
        repr([[str(x) for x in row] for row in rows]),
        repr([[str(x) for x in row] for row in mat]),
    ])
    integral = [c for v in vecs for c in v.coeffs.values()] + [x for row in mat for x in row]
    kernel = [c for q in model for c in q.coeffs.values()]
    return hashlib.sha256(text.encode()).hexdigest(), integral, kernel


# sha256 of _exact_values, recorded while every Poly coefficient was a
# Fraction; (2, -1, 2) is s_1 * (2, 1, 0), and a negative last block entry
# makes det(h) appear to a negative power
EXACT_VALUE_DIGESTS = [
    (3, {0}, (2, 1, 0), 6,
     "c18dbe2159671bcd682f77dbce50c5cc6a8c424e53e8dfaeca80e03998f6c16d"),
    (3, {1}, (2, 1, 0), 6,
     "69a021de9dd825f9010990b0c4b37a76b4d93b98691f5d426dfbbcf51085d7d7"),
    (2, {0}, (5, 0), 9,
     "bd3117c98b4b4fae427839e09303df226fdc63647e49b44f8f66bb78f4aa32db"),
    (3, {0}, (2, -1, 1), 5,
     "e6e1a958252a11c8cdf42e398bb343b7bce0110072ebc3245787d52d2efc275f"),
    (3, {0}, (2, -1, 2), 5,
     "b35aa2e3382e1c78c1cddd7a166f39f14c1bbc5ad6a0665fbf8b333d974c180c"),
]


@pytest.mark.parametrize(
    "n, levi, lam, d, digest", EXACT_VALUE_DIGESTS,
    ids=[f"GL{n}-levi{min(levi)}-{lam}-d{d}".replace(" ", "")
         for n, levi, lam, d, _ in EXACT_VALUE_DIGESTS],
)
def test_exact_values_are_pinned(n, levi, lam, d, digest):
    got, integral, kernel = _exact_values(n, levi, lam, d, seed=3)
    assert got == digest
    assert not any(isinstance(x, float) for x in integral + kernel)
    if all(lam[j] >= lam[j + 1] for j in range(n - 1)):
        assert {type(x) for x in integral} == {int}


def sympy_theta_columns(n, i, lam, basis):
    """Columns of Theta_{alpha_i} on the monomials of basis, from sympy alone:
    l(X_{alpha_i}) is read off d/dt at t = 0 of (I - t E_{i,i+1}) Z and
    applied <lambda, alpha_i^vee> + 1 times to each monomial."""
    pos = [(a, b) for a in range(n) for b in range(a + 1, n)]
    z = {p: sympy.Symbol(f"z{p[0] + 1}{p[1] + 1}") for p in pos}
    t = sympy.Symbol("t")
    big_z = sympy.Matrix(n, n, lambda a, b: 1 if a == b else z.get((a, b), 0))
    e_i = sympy.zeros(n, n)
    e_i[i, i + 1] = 1
    moved = (sympy.eye(n) - t * e_i) * big_z
    field = {p: sympy.diff(moved[p], t).subs(t, 0) for p in pos}
    gens = [z[p] for p in pos]
    cols = []
    for m in basis:
        f = sympy.Mul(*(g ** k for g, k in zip(gens, m)))
        for _ in range(lam[i] - lam[i + 1] + 1):
            f = sympy.expand(sum(c * sympy.diff(f, z[p]) for p, c in field.items()))
        terms = sympy.Poly(f, *gens).as_dict() if f != 0 else {}
        assert set(terms) <= set(basis)
        cols.append([int(terms.get(mm, 0)) for mm in basis])
    return cols


# at (2, 1, 0) both exponents are 2, which cannot see the sign of the
# field; (2, 0, 0) has the odd exponents 3 and 1
@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 0, 0)])
@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("d", [2, 6])
def test_theta_matrix_matches_sympy(lam, i, d):
    mat, basis = theta_matrix(3, i, lam, d)
    assert basis == monomials_up_to_degree(3, d)
    assert [list(col) for col in zip(*mat)] == sympy_theta_columns(3, i, lam, basis)
