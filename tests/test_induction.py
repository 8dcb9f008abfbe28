import hashlib
import random
from fractions import Fraction

import pytest
import sympy

from levi_reference import coefficient_rows, sampled_levi_basis
from parahoric import induction, linalg
from parahoric.induction import (
    NCoordinates,
    apply_field,
    bgg_kernel,
    intertwining_check,
    intertwining_scalar,
    levi_module_basis,
    levi_weyl_dimension,
    parahoric_truncation_basis,
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
    for lam in ((1, 0, 0), (2, 1, 0)):
        for i in (0, 1):
            rep = bgg_kernel(3, i, lam, 5)
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
    ok = theta_preserves_parahoric(3, {0}, 1, (2, 1, 0), 5)
    assert ok


def test_theta_preserves_parahoric_on_gl4():
    """GL(4), Levi {0, 2}, alpha_2 outside it: s_2 * (2, 1, 0, 0) = (2, -1, 2, 0).
    The answer was recorded from the whole-basis rank test."""
    assert theta_preserves_parahoric(4, {0, 2}, 1, (2, 1, 0, 0), 4)


def test_theta_preserves_parahoric_rejects_the_unshifted_target(monkeypatch):
    """Against the model at lambda itself, not at s_i * lambda, some image
    leaves the target, and the per-block rank test says so."""
    class Unshifted:
        def __init__(self, n):
            pass

        def weyl_star(self, lam, i):
            return tuple(lam)

    monkeypatch.setattr(induction, "gl_datum", Unshifted)
    assert not theta_preserves_parahoric(3, {0}, 1, (2, 1, 0), 5)
    assert not theta_preserves_parahoric(4, {0, 2}, 1, (2, 1, 0, 0), 4)


def test_borel_model_is_every_polynomial():
    """The Borel puts no Levi condition on f: its model is the identity rows."""
    rows, basis = parahoric_truncation_basis(3, (), (2, 1, 0), 3)
    assert rows == [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]


def test_truncation_threshold_formula():
    assert truncation_threshold(2, 0, (3, 0)) == 4
    # exponent 2 plus the degree-1 field coefficients of GL(3)
    assert truncation_threshold(3, 0, (2, 1, 0)) == 3
    # at i = n - 2 the field is -d/dz_{i,i+1} alone, of degree 0
    assert truncation_threshold(3, 1, (2, 1, 0)) == 2
    assert truncation_threshold(4, 2, (3, 1, 1, 0)) == 2
    for n, i, lam, d in [
        (2, 0, (3, 0), 4), (3, 0, (2, 1, 0), 3), (3, 1, (2, 1, 0), 3),
        (4, 1, (3, 1, 1, 0), 2), (4, 2, (3, 1, 1, 0), 2),
    ]:
        assert bgg_kernel(n, i, lam, d).threshold == truncation_threshold(n, i, lam)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_apply_matches_theta_matrix(n):
    """The two public Theta entry points agree: theta_apply on a polynomial
    is theta_matrix applied to its coefficient vector, at every simple root."""
    nc = NCoordinates(n)
    lam = (3, 1) + (0,) * (n - 2)  # exponents 3, 2 and 1 where they exist
    rng = random.Random(n)
    for i in range(n - 1):
        mat, basis = theta_matrix(n, i, lam, 4)
        for _ in range(5):
            f = random_poly(nc, 4, rng)
            got = theta_apply(n, i, lam, f)
            assert set(got.coeffs) <= set(basis)
            want = linalg.matvec(mat, [f.coefficient(m) for m in basis])
            assert [got.coefficient(m) for m in basis] == want


@pytest.mark.parametrize("n, levi, lam", [
    (2, {0}, (3, 0)),
    (2, {0}, (8, 0)),
    (3, {0}, (2, 1, 0)),
    (3, {1}, (2, 1, 0)),
    (3, {0, 1}, (2, 1, 0)),
    (4, {0, 1}, (3, 1, 0, 0)),
    (4, {0, 2}, (3, 1, 2, 0)),
])
def test_levi_module_basis_matches_rank_based_selection(n, levi, lam):
    """The lowering-operator basis is independent, has the Weyl dimension,
    and spans what random samples kept by sympy's rank span."""
    got, monos = levi_module_basis(n, levi, lam)
    dim = levi_weyl_dimension(n, levi, lam)
    assert len(got) == dim
    assert set().union(*[set(q.coeffs) for q in got]) <= set(monos)
    assert sympy.Matrix(coefficient_rows(got)).rank() == dim
    ref = sampled_levi_basis(n, levi, lam, seed=0)
    assert sympy.Matrix(coefficient_rows(got + ref)).rank() == dim


def test_gl2_weight_16_passes():
    """The random samples could not span the weight-(16, 0) module; the
    lowering operators reach its dimension 17."""
    assert bgg_kernel(2, 0, (16, 0), 16).as_dict() == {
        "group": "GL2", "simple_index": 0, "weight": [16, 0], "degree_cap": 16,
        "threshold": 17, "dim_kernel": 17, "dim_RQ": 17, "pass": True,
    }


def test_weyl_dimension_raises_on_a_non_dominant_weight():
    with pytest.raises(ArithmeticError):
        weyl_dimension((0, 1))


def _exact_values(n, levi, lam, d):
    """sha256 of every exact value one parahoric case produces, as text: the
    Levi module polynomials and monomials, the rows of the truncated Q-model,
    and the theta matrix at the simple root of the Levi. str() prints an int
    and the equal Fraction alike, so the text pins values, not their types.
    Also returns the Levi module and theta values, then the model values,
    whose rows are the primitive integer kernel vectors of linalg."""
    (i,) = levi
    vecs, monos = levi_module_basis(n, levi, lam)
    rows, basis = parahoric_truncation_basis(n, levi, lam, d)
    mat, tbasis = theta_matrix(n, i, lam, d)
    text = "\n".join([
        repr(vecs), repr(monos), repr(basis), repr(tbasis),
        repr([[str(x) for x in row] for row in rows]),
        repr([[str(x) for x in row] for row in mat]),
    ])
    integral = [c for v in vecs for c in v.coeffs.values()] + [x for row in mat for x in row]
    kernel = [x for row in rows for x in row]
    return hashlib.sha256(text.encode()).hexdigest(), integral, kernel


# sha256 of _exact_values, recorded when the Levi module came to be built by
# lowering operators (MODEL_DIGESTS pins what must not change with it);
# (2, -1, 2) is s_1 * (2, 1, 0), and the two (2, -1, *) cases agree because
# det^(w_b) of a block is 1 on u(y) and left out
EXACT_VALUE_DIGESTS = [
    (3, {0}, (2, 1, 0), 6,
     "f395ade0793eb34ad446d7a917a865a095e953ef93b37c7c137b787395c5057e"),
    (3, {1}, (2, 1, 0), 6,
     "625f47be25c572826775b6ed4b0ba2bc242bde2c6c70e2e4c4deae9d1d32ae2e"),
    (2, {0}, (5, 0), 9,
     "ca03e6819b5e6c89248fd1174bdd827589b0bbb37fde4099b1ef49dc08609e90"),
    (3, {0}, (2, -1, 1), 5,
     "44fe0511f9ab0fb34658671395ba7e5ddc0c0089ed0398140b9c694762a6a3a4"),
    (3, {0}, (2, -1, 2), 5,
     "44fe0511f9ab0fb34658671395ba7e5ddc0c0089ed0398140b9c694762a6a3a4"),
]


@pytest.mark.parametrize(
    "n, levi, lam, d, digest", EXACT_VALUE_DIGESTS,
    ids=[f"GL{n}-levi{min(levi)}-{lam}-d{d}".replace(" ", "")
         for n, levi, lam, d, _ in EXACT_VALUE_DIGESTS],
)
def test_exact_values_are_pinned(n, levi, lam, d, digest):
    got, integral, kernel = _exact_values(n, levi, lam, d)
    assert got == digest
    assert {type(x) for x in integral + kernel} == {int}


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


# GL(4) has fields with two and three terms; (3, 1, 1, 0) has the exponents
# 3, 1 and 2
@pytest.mark.parametrize("lam", [(2, 1, 0, 0), (3, 1, 1, 0)])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_theta_matrix_matches_sympy_on_gl4(lam, i):
    mat, basis = theta_matrix(4, i, lam, 3)
    assert basis == monomials_up_to_degree(6, 3)
    assert [list(col) for col in zip(*mat)] == sympy_theta_columns(4, i, lam, basis)


# sha256 of the truncated Q-model rows and the theta matrices at each simple
# root of the Levi, recorded while the Levi module was spanned by random
# samples: the model and the kernel depend only on the module's span, so any
# construction of V_lambda must leave these unchanged
MODEL_DIGESTS = [
    (3, {0}, (2, 1, 0), 6,
     "950e2b1a2f905bd6ca6c4481fe06319475d9700f7c45a252998b29a1e0fc0e35"),
    (3, {1}, (2, 1, 0), 6,
     "857c55919384014d2cb60b8793ed9e8c425fc79d7287c70ed7bca5152dec4b75"),
    (2, {0}, (5, 0), 9,
     "1d094ff9d892b3f9148e2253e230e54a2870fc3a00db04e4da85e4fc0dda3671"),
    (3, {0}, (2, -1, 1), 5,
     "5c22b235b9b98eecbd7fad22225d12ee5bae77855299295e61b1d83be1c0f57f"),
    (3, {0}, (2, -1, 2), 5,
     "5c22b235b9b98eecbd7fad22225d12ee5bae77855299295e61b1d83be1c0f57f"),
    (3, {0, 1}, (2, 1, 0), 4,
     "44761b6318a93c617656c86f02ad9351b7e66d9cd506925a8bd3035cb4db859c"),
    (4, {0, 1}, (3, 1, 0, 0), 3,
     "5c6fdd4419e92d11e48937d9712e3d07fbd80dc85ce4d6840f48e13c505fa33b"),
    (4, {0, 2}, (3, 1, 2, 0), 3,
     "8e1023c95a0a8c6388044e5ad29720c69a6e84fd388d59ec5cbdef708e87fb59"),
]


@pytest.mark.parametrize(
    "n, levi, lam, d, digest", MODEL_DIGESTS,
    ids=[f"GL{n}-levi{''.join(map(str, sorted(levi)))}-{lam}-d{d}".replace(" ", "")
         for n, levi, lam, d, _ in MODEL_DIGESTS],
)
def test_models_and_theta_matrices_are_pinned(n, levi, lam, d, digest):
    model, basis = parahoric_truncation_basis(n, levi, lam, d)
    parts = [repr(basis), repr(model)]
    for i in sorted(levi):
        mat, tbasis = theta_matrix(n, i, lam, d)
        assert tbasis == basis
        parts.append(repr(mat))
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == digest
