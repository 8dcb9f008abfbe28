"""The BGG check runs one torus-weight block at a time; these tests compare
it with the dense whole-basis route of bgg_reference, and check that the
block invariants hold under python -O too."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import parahoric
from parahoric import induction

from bgg_reference import dense_bgg, dense_theta_matrix, dense_truncation_basis
from parahoric.induction import bgg_kernel, parahoric_truncation_basis, theta_matrix

# (n, i, lambda, d) for theta_matrix and bgg_kernel
BGG_GRID = (
    [(2, 0, (k, 0), d) for k in range(9) for d in sorted({max(k - 1, 0), k + 1, k + 3})]
    + [(2, 0, (5, 0), 9), (2, 0, (16, 0), 16)]
    + [(3, i, lam, d) for lam in [(1, 0, 0), (2, 1, 0), (2, 0, 0), (3, 1, 0)]
       for i in (0, 1) for d in (0, 2, 5, 8)]
    + [(4, i, lam, d) for lam in [(2, 1, 0, 0), (3, 1, 1, 0)]
       for i in (0, 1, 2) for d in (1, 3, 4)]
)

# (n, levi, lambda, d) for parahoric_truncation_basis: the Borel, every
# simple Levi of the BGG grid, and the Levis of MODEL_DIGESTS
MODEL_GRID = (
    [(n, frozenset({i}), lam, d) for n, i, lam, d in BGG_GRID]
    + [(2, frozenset(), (3, 0), 5), (3, frozenset(), (2, 1, 0), 4),
       (3, frozenset({0}), (2, -1, 1), 5), (3, frozenset({0}), (2, -1, 2), 5),
       (3, frozenset({0, 1}), (2, 1, 0), 4), (3, frozenset({0, 1}), (2, 1, 0), 6),
       (4, frozenset({0, 1}), (3, 1, 0, 0), 3), (4, frozenset({0, 2}), (3, 1, 2, 0), 3),
       (4, frozenset({0, 2}), (2, 1, 0, 0), 4)]
)


def _case_id(case):
    n, s, lam, d = case
    s = "".join(map(str, sorted(s))) if isinstance(s, frozenset) else s
    return f"GL{n}-{s}-{','.join(map(str, lam))}-d{d}"


@pytest.mark.parametrize("n, i, lam, d", BGG_GRID, ids=map(_case_id, BGG_GRID))
def test_block_route_matches_dense_reference(n, i, lam, d):
    assert repr(theta_matrix(n, i, lam, d)) == repr(dense_theta_matrix(n, i, lam, d))
    rep = bgg_kernel(n, i, lam, d)
    assert (rep.dim_kernel, rep.dim_parabolic_model, rep.spaces_equal) == dense_bgg(n, i, lam, d)


@pytest.mark.parametrize("n, levi, lam, d", MODEL_GRID, ids=map(_case_id, MODEL_GRID))
def test_block_models_match_dense_reference(n, levi, lam, d):
    got = parahoric_truncation_basis(n, levi, lam, d)
    assert repr(got) == repr(dense_truncation_basis(n, levi, lam, d))


def test_a_block_of_equal_dimension_and_another_span_fails(monkeypatch):
    """Block dimensions alone do not decide the verdict: a model block with
    the Theta kernel's dimension but another span makes the check fail."""
    base = induction._model_kernels

    def moved(*args):
        out = base(*args)
        assert out[(2, 1, -3)] == [[-1, 1]]  # z12 z13 z23^2 - z13^2 z23
        out[(2, 1, -3)] = [[1, 1]]
        return out

    before = bgg_kernel(3, 0, (2, 1, 0), 4)
    monkeypatch.setattr(induction, "_model_kernels", moved)
    after = bgg_kernel(3, 0, (2, 1, 0), 4)
    assert before.spaces_equal and not after.spaces_equal
    assert after.dim_kernel == after.dim_parabolic_model == before.dim_kernel


# each plants one entry that leaves its weight block, then runs a BGG check
PLANTED_ERRORS = {
    "theta-image": "Theta maps weight (2, -2, 0) outside weight (0, 0, 0)",
    "constraint-row": "a constraint row of the Q-model touches two weights",
}
PLANTED = {
    "theta-image": """
        base = induction._derivation

        def planted(n, i):
            images = base(n, i)
            def shifted(m):
                out = images(m)
                if m == (2, 0, 0):  # z12^2 -> z12 z23 has weight e1 - e3
                    out[(1, 0, 1)] = 5
                return out
            return shifted

        induction._derivation = planted
    """,
    "constraint-row": """
        base = induction.restrict_monomials

        def planted(n, levi, basis):
            out = base(n, levi, basis)
            j = basis.index((0, 1, 0))  # z13, weight e1 - e3
            # y12^2 c13 also lies in the image of z12^2 z13, of weight
            # 3 e1 - 2 e2 - e3, and y12^2 is outside the Levi module
            out[j] = out[j] + Poly(out[j].vars, {(2, 1, 0): 1})
            return out

        induction.restrict_monomials = planted
    """,
}


@pytest.mark.parametrize("plant", sorted(PLANTED))
def test_cross_block_entries_raise_under_python_O(plant):
    """A Theta image or a constraint row that leaves its weight block raises
    CertificationError; the check is a raise, so python -O keeps it."""
    script = textwrap.dedent("""
        from parahoric import induction
        from parahoric.padics import CertificationError
        from parahoric.polynomials import Poly
        print("debug", __debug__)
    """) + textwrap.dedent(PLANTED[plant]) + textwrap.dedent("""
        try:
            induction.bgg_kernel(3, 0, (1, 0, 0), 3)
        except CertificationError as exc:
            print("raised:", exc)
    """)
    src = str(Path(parahoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1:] == [f"raised: {PLANTED_ERRORS[plant]}"]
