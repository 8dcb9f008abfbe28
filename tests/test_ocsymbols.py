import functools
import gc
import hashlib
import math
import operator
import os
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import parahoric
from moment_reference import moment_matrix
from tuning_reference import tuned_initial_tables
from parahoric.distributions import (
    family_moment_matrix,
    integer_moment_matrix,
    solve_error_profile,
)
from parahoric.linalg import charpoly_berkowitz, matvec, nullspace, solve
from parahoric.manin import ManinSystem, UnsupportedLevel
from parahoric import ocsymbols
from parahoric.ocsymbols import (
    IOTA,
    ClassicalSpace,
    ColumnBundles,
    DivergenceError,
    MomentCache,
    auto_eigensymbol,
    build_tables_mod,
    charpoly_up,
    check_relations_mod,
    classical_space,
    family_charpoly,
    hecke_deltas,
    integer_eigenvalues,
    lift_symbol,
    oc_context,
    ordinary_eigensymbol,
    random_initial_lift_pair,
    up_apply_mod,
    up_deltas,
    up_model_matrix,
)
from parahoric.padics import CertificationError


def test_classical_dimension_level_33():
    space = classical_space(11, 3, 0)
    assert space.dimension == 9


def test_classical_dimension_weight_two():
    # free-group Euler characteristic: (r - 1)(k + 1) + 1 - 1 with r = 9
    space = classical_space(11, 3, 2)
    assert space.dimension == 24


def test_hecke_t2_spectrum_level_33():
    space = classical_space(11, 3, 0)
    cp = charpoly_berkowitz(space.hecke_matrix(2))
    # (x + 2)^4 (x - 1)^2 (x - 3)^3: doubled 11a oldforms plus Eisenstein
    expected = [Fraction(1)]
    for root, mult in ((-2, 4), (1, 2), (3, 3)):
        for _ in range(mult):
            expected = [
                (expected[i] if i < len(expected) else Fraction(0))
                - root * (expected[i - 1] if i >= 1 else Fraction(0))
                for i in range(len(expected) + 1)
            ]
    # expected is descending-degree; cp is ascending
    assert cp == expected[::-1]
    assert sorted(integer_eigenvalues(space.hecke_matrix(2), 3)) == [-2, 1, 3]


def test_hecke_commutes_with_up():
    space = classical_space(11, 3, 0)
    T2 = space.hecke_matrix(2)
    U3 = space.up_matrix()
    lhs = [[sum(T2[i][s] * U3[s][j] for s in range(9)) for j in range(9)]
           for i in range(9)]
    rhs = [[sum(U3[i][s] * T2[s][j] for s in range(9)) for j in range(9)]
           for i in range(9)]
    assert lhs == rhs


def test_ordinary_eigensymbol_unit_root():
    space = classical_space(11, 3, 0)
    sym = ordinary_eigensymbol(space, 2, -2, B=20)
    assert sym.slope == 0
    assert (sym.alpha**2 + sym.alpha + 3) % 3**18 == 0
    assert sym.alpha % 3 != 0


def test_ordinary_eigensymbol_rejects_missing_block():
    space = classical_space(11, 3, 0)
    with pytest.raises(ValueError):
        ordinary_eigensymbol(space, 2, 7, B=12)


def test_auto_eigensymbol_is_deterministic():
    space = classical_space(11, 3, 0)
    a = auto_eigensymbol(space, B=16)
    b = auto_eigensymbol(space, B=16)
    assert a.alpha == b.alpha and a.table == b.table


def test_critical_stabilization_rejected_by_lift():
    space = classical_space(11, 3, 0)
    sym = auto_eigensymbol(space, B=40, slope=1)
    with pytest.raises(ValueError, match="noncritical-slope precondition"):
        lift_symbol(space, sym, 8)


def test_lift_small_precision():
    space = classical_space(11, 3, 0)
    sym = auto_eigensymbol(space, B=30)
    rep = lift_symbol(space, sym, 6)
    assert rep.converged
    assert rep.specialization_ok
    assert (rep.eigenvalue**2 + rep.eigenvalue + 3) % 3**rep.eigenvalue_precision == 0
    assert rep.moment_precision == [6, 5, 4, 3, 2, 1]


def test_lift_requires_working_precision():
    space = classical_space(11, 3, 0)
    sym = auto_eigensymbol(space, B=12)
    with pytest.raises(ValueError, match="too small"):
        lift_symbol(space, sym, 20)


def test_independent_initial_lifts_agree():
    space = classical_space(11, 3, 0)
    sym = auto_eigensymbol(space, B=30)
    agree, worst = random_initial_lift_pair(space, sym, 5, seed=123)
    assert agree
    assert worst > 0


@pytest.mark.parametrize("N, p, k, M", [(11, 3, 0, 20), (11, 5, 0, 10), (5, 3, 2, 8), (5, 7, 2, 6)])
def test_tuned_tables_match_the_per_edge_probe_builds(N, p, k, M):
    """The tuned initial table from one bundled build agrees with the
    reference's probe builds and rebuild mod p^(K-D), the modulus of every
    tuning check and lift reading, on three random (higher, top) draws."""
    space = classical_space(N, p, k)
    sym = auto_eigensymbol(space, B=M + 24)
    cache, _ = parahoric.ocsymbols._lift_setup(space, sym, M)
    ctx, mod = cache.ctx, cache.mod
    low = mod // p**ctx.D
    rng = random.Random(N * p + k + M)
    for _ in range(3):
        higher = {e: [rng.randrange(mod) for _ in range(M - k - 1)] for e in ctx.sp.free_edges}
        top = rng.randrange(mod)
        got = parahoric.ocsymbols._tuned_initial_tables(cache, sym, higher, top)
        want = tuned_initial_tables(cache, sym, higher, top)
        assert [[c % low for c in row] for row in got] == [[c % low for c in row] for row in want]


def test_lift_builds_its_initial_table_once(monkeypatch):
    """Tuning the initial table reads every free edge's response from one
    table build; the lift iterations build none."""
    calls = []
    build = parahoric.ocsymbols.build_tables_mod

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(parahoric.ocsymbols, "build_tables_mod", counted)
    space = classical_space(11, 3, 0)
    sym = auto_eigensymbol(space, B=30)
    assert lift_symbol(space, sym, 6).converged
    assert len(calls) == 1


def test_tail_consistency_identity_at_weight_zero():
    """At k = 0 the tail functional vanishes identically on free data."""
    ctx = oc_context(11, 3, 0, 5)
    mod = 3**12
    cache = MomentCache(ctx, 12)
    rng = random.Random(5)
    free = {e: [rng.randrange(mod) for _ in range(5)] for e in ctx.sp.free_edges}
    tables = build_tables_mod(cache, free, 0)
    assert len(tables) == ctx.ms.index


def test_tail_consistency_is_a_condition_at_higher_weight():
    """At k > 0 generic free data violates the tail functional: the sink
    collects a nonzero defect instead of tripping the exactness assert."""
    ctx = oc_context(11, 3, 2, 5)
    mod = 3**12
    cache = MomentCache(ctx, 12)
    rng = random.Random(5)
    defects = []
    hit = 0
    for _ in range(4):
        free = {e: [rng.randrange(mod) for _ in range(5)] for e in ctx.sp.free_edges}
        sink: list = []
        build_tables_mod(cache, free, 0, defect_out=sink)
        defects.append(sink[0] % mod)
        if sink[0] % mod:
            hit += 1
    assert hit >= 3


@pytest.mark.parametrize("N", [2, 5, 11, 14])
def test_solve_deficit_is_the_largest_solve_loss(N):
    """S_sol = max(loss_profile) equals the worst deficit of the error
    profile read on the sentinel input 10^6 - j, the definition S_sol had
    before it became a property: the error-profile recursion commutes with
    a constant shift of its input."""
    big = 10**6
    deficits = set()
    for p in (3, 5, 7):
        if N % p == 0:
            continue
        ms = ManinSystem(N, p)
        try:
            W = ms.solved_presentation().tail.W
        except UnsupportedLevel:
            continue
        for k in (0, 2, 4):
            for mlen in (4, 8, 12):
                ctx = parahoric.ocsymbols._context(ms, [], k, mlen)
                floors = solve_error_profile(
                    integer_moment_matrix(W, k, mlen), p, [big - j for j in range(mlen)])
                want = max([0] + [(big - j) - floors[j]
                                  for j in range(mlen - 1) if floors[j] < big])
                assert ctx.S_sol == want, (N, p, k, mlen)
                deficits.add(want)
    assert len(deficits) > 1


def test_charpoly_up_known_polygon():
    # the slope-1 vertex of this level sits at x = 9, so the window must
    # reach past it before the hull shows the segment
    data = charpoly_up(11, 3, 0, 8, xdeg=10)
    cert = dict()
    for s, m in data.certified_slopes():
        cert[s] = cert.get(s, 0) + m
    assert cert.get(Fraction(0), 0) == 6
    assert cert.get(Fraction(1), 0) >= 3
    # constant coefficient of det(1 - XU) is 1
    assert data.coefficients[0].valuation == 0
    rows = data.csv_rows()
    assert rows[0] == ["record", "index", "value", "precision", "certified"]


def test_charpoly_zero_slope_count_matches_classical_ordinary_rank():
    """Overconvergent slope-0 multiplicity equals the classical one: the
    ordinary part is already classical, so the two polygons agree there."""
    from parahoric.padics import newton_polygon_of_poly

    data = charpoly_up(11, 3, 0, 8, xdeg=8)
    cp = charpoly_berkowitz(classical_space(11, 3, 0).up_matrix())
    # root valuations of det(xI - U) on the classical space
    poly = newton_polygon_of_poly(cp, 3)
    classical_zero = sum(m for v, m in poly.root_valuations() if v == 0)
    cert_zero = sum(m for s, m in data.certified_slopes() if s == 0)
    assert cert_zero == classical_zero


def test_family_center_matches_single_weight():
    fam = family_charpoly(11, 3, 0, 6, T=2, xdeg=6)
    single = charpoly_up(11, 3, 0, 6, xdeg=6)
    ok, shared = fam.center_matches(single)
    assert ok
    assert all(s >= 3 for s in shared[1:])


def test_family_breakpoint_constancy_states():
    fam = family_charpoly(11, 3, 0, 8, T=3, xdeg=8)
    assert fam.breakpoint_constancy(0) == "constant"
    # the slope-1 window cannot be closed at this truncation: honest tri-state
    assert fam.breakpoint_constancy(1) == "inconclusive"


def test_family_csv_rows_carry_layers():
    fam = family_charpoly(11, 3, 0, 5, T=2, xdeg=4)
    rows = fam.csv_rows()
    idx = {r[1] for r in rows if r[0] == "coefficient"}
    assert "1.0" in idx and "1.1" in idx
    assert all(r[3] for r in rows if r[0] == "coefficient")


def test_up_monoid_checks_survive_python_O():
    """The U_p plan precondition raises under python -O, which strips assert,
    for the matrices of the model and for the merged operator of the lift,
    also for a composite with a < 0 that its sign class would rewrite."""
    script = (
        "from parahoric.ocsymbols import MomentCache, oc_context\n"
        "ctx = oc_context(11, 3, 0, 4)\n"
        "print('debug', __debug__)\n"
        "for bad in ((1, 0, 3, 1), (-1, 0, 3, -1)):\n"
        "    planted = ctx._replace(up_plan=[[(0, 1, bad)]] + ctx.up_plan[1:])\n"
        "    for T in (1, 2):\n"
        "        for get in (lambda: MomentCache(ctx, 8, T).up(bad),\n"
        "                    lambda: MomentCache(planted, 8, T).up_operator()):\n"
        "            try:\n"
        "                get()\n"
        "            except ValueError:\n"
        "                print('rejected')\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["debug False"] + ["rejected"] * 8 + [""]


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    src = str(Path(parahoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)


def test_tail_consistency_check_survives_python_O():
    """At k = 2 generic free data violates the tail functional; without a
    defect sink the table build raises under python -O as well."""
    script = (
        "import random\n"
        "from parahoric.ocsymbols import MomentCache, build_tables_mod, oc_context\n"
        "ctx = oc_context(11, 3, 2, 5)\n"
        "cache = MomentCache(ctx, 12)\n"
        "rng = random.Random(5)\n"
        "print('debug', __debug__)\n"
        "free = {e: [rng.randrange(3**12) for _ in range(5)] for e in ctx.sp.free_edges}\n"
        "try:\n"
        "    build_tables_mod(cache, free, 0)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', exc)\n"
        "try:\n"
        "    build_tables_mod(cache, {e: [0] * 4 for e in ctx.sp.free_edges}, 0)\n"
        "except ValueError:\n"
        "    print('rejected length')\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "debug False", "raised tail consistency: nu_0 must vanish", "rejected length", "",
    ]


@functools.lru_cache(maxsize=None)
def _context(p, k):
    return oc_context(11, p, k, 4)


@given(
    st.sampled_from([3, 5]), st.sampled_from([0, 2]), st.integers(1, 3), st.integers(1, 12),
    st.integers(-20, 20), st.integers(-20, 20), st.integers(-6, 6), st.integers(-20, 20),
    st.randoms(use_true_random=False),
)
def test_cache_block_matrix_is_the_ring_action(p, k, T, K, a, b, c, d, rng):
    """The cache's integer block matrix on the plane layout equals the
    schoolbook product over (Z/p^K)[w]/(w^T) of family_moment_matrix planes."""
    a = a * p + 1
    c *= p
    if a * d == b * c:
        d += 1
    gamma = (a, b, c, d)
    ctx = _context(p, k)
    mlen, mod = ctx.mlen, p**K
    fam = family_moment_matrix(gamma, k, mlen, T, p, K)
    vec = [[rng.randrange(mod) for _ in range(T)] for _ in range(mlen)]   # [i][t]
    ring = []
    for j in range(mlen):
        acc = [0] * T
        for i, x in enumerate(vec):
            for s in range(T):
                for t in range(T - s):
                    acc[s + t] += fam[s][j][i] * x[t]
        ring.append([v % mod for v in acc])
    planes = [vec[i][t] for t in range(T) for i in range(mlen)]
    block = MomentCache(ctx, K, T).gamma(gamma)
    got = [sum(e * x for e, x in zip(row, planes)) % mod for row in block]
    assert got == [ring[j][t] for t in range(T) for j in range(mlen)]


def test_operator_matrices_are_kept_per_space():
    """Each operator is computed once per space and handed out read-only."""
    space = classical_space(11, 3, 0)
    T2 = space.hecke_matrix(2)
    assert space.hecke_matrix(2) is T2
    assert space.operator_matrix([(1, 0, 0, 2), (1, 1, 0, 2), (2, 0, 0, 1)]) is T2
    assert isinstance(T2, tuple) and all(isinstance(row, tuple) for row in T2)
    assert space.up_matrix() is not T2


def test_lift_checks_survive_python_O():
    """A corrupted eigensymbol table fails the classical-layer check of the
    initial lift under python -O as well, instead of lifting silently."""
    script = (
        "from parahoric.ocsymbols import auto_eigensymbol, classical_space, lift_symbol,"
        " oc_context\n"
        "space = classical_space(11, 3, 0)\n"
        "sym = auto_eigensymbol(space, B=30)\n"
        "sp = oc_context(11, 3, 0, 6).sp\n"
        "x = next(x for x in range(space.ms.index)"
        " if x not in sp.free_edges and x != sp.tail.x0)\n"
        "sym.table[x] = (sym.table[x][0] + 1,)\n"
        "print('debug', __debug__)\n"
        "try:\n"
        "    lift_symbol(space, sym, 6)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', exc)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["debug False", "raised classical layer mismatch", ""]


SERIES_CORRUPTION_SCRIPT = """
import series_reference as ref
from parahoric import ocsymbols
from parahoric.ocsymbols import _column_valuations, _read_series
from parahoric.padics import CertificationError

p, D, T, n = 3, 2, 2, 6
Kbig = n * (D + 1) + 16
kappas = [Kbig] * n


def engine(U, x):
    E = min([D] + _column_valuations(U, p, Kbig))
    _read_series(U, p, D, E, Kbig, kappas[:x])


def reference(U, x):
    ref.read_series(U, p, D, Kbig, kappas[:x])


def first_failure(read, U):
    for x in range(1, n + 1):
        try:
            read([list(row) for row in U], x)
        except CertificationError as exc:
            return f"r={x} {exc}"
    return "none"


def corrupt_trace(orig):
    def traces(a, count, mod):
        out = orig(a, count, mod)
        if count >= p:
            out[p - 1] = (out[p - 1][0] + 1,) + out[p - 1][1:]
        return out
    return traces


print("debug", __debug__)
clean = ref.scaled_matrix(7, n, T, p, D, Kbig)
diagonal = [[list(row) for row in plane] for plane in clean]
diagonal[0][0][0] = p ** (D - 1)
pair = [[list(row) for row in plane] for plane in clean]
pair[0][0][1] = p ** (D - 1)
pair[0][1][0] = p ** (D - 1)
for name, U in (("clean", clean), ("diagonal", diagonal), ("pair", pair)):
    print(name, first_failure(reference, U), "|", first_failure(engine, U))
ocsymbols.power_traces_mod = corrupt_trace(ocsymbols.power_traces_mod)
ref.power_traces_mod = corrupt_trace(ref.power_traces_mod)
print("trace", first_failure(reference, clean), "|", first_failure(engine, clean))
try:
    _read_series([list(row) for row in diagonal], p, D, D, Kbig, kappas)
except CertificationError as exc:
    print("wrong E", exc)
"""


def test_corrupted_series_fails_where_the_reference_does_under_python_O():
    """The U_p series, which reads its traces on U/p^E mod p^Kt, raises its
    p^(rD) and Newton-numerator failures at the same coefficient as the Kbig
    path of series_reference, with assert stripped. No integer matrix breaks
    a Newton numerator, so that case corrupts the p-th power trace instead."""
    tests = str(Path(__file__).resolve().parent)
    proc = _run_optimized(f"import sys\nsys.path.insert(0, {tests!r})\n"
                          + SERIES_CORRUPTION_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    lost = "scaled coefficient lost p^(rD)"
    newton = "Newton numerator lost required divisibility"
    assert proc.stdout.split("\n") == [
        "debug False",
        "clean none | none",
        f"diagonal r=1 {lost} | r=1 {lost}",
        f"pair r=2 {lost} | r=2 {lost}",
        f"trace r=3 {newton} | r=3 {newton}",
        "wrong E scaled model matrix lost p^E",
        "",
    ]


def _model_matrix_per_column(cache):
    """up_model_matrix as one table build and one U_p apply per unit column."""
    ctx = cache.ctx
    T, mlen = cache.T, ctx.mlen
    free = list(ctx.sp.free_edges)
    cosets = free + [ctx.sp.tail.x0]
    coords = [(r, i) for r in range(len(free)) for i in range(mlen)] + [(len(free), mlen - 1)]
    sink: list = []
    cols = []
    for r0, i0 in coords:
        fv = {e: [0] * (T * mlen) for e in free}
        if r0 < len(free):
            fv[free[r0]][i0] = 1
        tables = build_tables_mod(cache, fv, int(r0 == len(free)), defect_out=sink)
        img = up_apply_mod(cache, tables, cosets=cosets)
        cols.append([[img[r][t * mlen + i] for r, i in coords] for t in range(T)])
    return [[list(row) for row in zip(*(col[t] for col in cols))] for t in range(T)]


@pytest.mark.parametrize("N, p, k, T", [
    (11, 3, 0, 1), (11, 3, 0, 2), (11, 3, 0, 3), (11, 5, 2, 1), (11, 3, 2, 1), (3, 2, 0, 1),
])
def test_model_matrix_bundles_match_per_column_builds(N, p, k, T):
    """All columns packed into one bundled pass give the matrix that one
    table build and one U_p apply per column give."""
    ctx = oc_context(N, p, k, 6)
    K = ctx.mlen + 4 * (ctx.D + 1) + 16
    cache = MomentCache(ctx, K, T)
    got = up_model_matrix(cache)
    assert len(got) == T and all(len(plane) == ctx.n_model
                                 and all(len(row) == ctx.n_model for row in plane)
                                 for plane in got)
    assert got == _model_matrix_per_column(cache)


@pytest.mark.parametrize("N, p, k, T", [
    (11, 3, 0, 1), (11, 3, 0, 2), (11, 3, 0, 3), (11, 5, 2, 1), (11, 3, 2, 1), (3, 2, 0, 1),
])
def test_model_matrix_mod_K_matches_the_Kbig_build(N, p, k, T):
    """The table build and the U_p apply are ring operations mod p^K except
    for the exact division by p^D, so the model matrix built mod p^K agrees
    with the Kbig build mod p^(K - D), at the moduli the series path picks
    from (mlen, mlen - S + 2D) and above."""
    ctx = oc_context(N, p, k, 6)
    D = ctx.D
    Kbig = ctx.mlen + 4 * (D + 1) + 16
    ref = up_model_matrix(MomentCache(ctx, Kbig, T))
    for K in sorted({ctx.mlen, ctx.mlen - ctx.S_sol + 2 * D, ctx.mlen + 2 * D + 3}):
        got = up_model_matrix(MomentCache(ctx, K, T))
        low = p ** (K - D)
        assert [[[c % low for c in row] for row in plane] for plane in got] \
            == [[[c % low for c in row] for row in plane] for plane in ref]


@pytest.mark.parametrize("N, p, k, skipped, twisted", [(11, 3, 0, 9, 24), (11, 5, 2, 7, 36)])
def test_model_build_skips_only_unread_partners(N, p, k, skipped, twisted):
    """With the cosets the model's U_p rows read, the table build leaves out
    exactly the twisted partners outside them, and every other table is the
    one the full build gives."""
    ctx = oc_context(N, p, k, 5)
    K = 12
    cache = MomentCache(ctx, K)
    rows = list(ctx.sp.free_edges) + [ctx.sp.tail.x0]
    read = {y for x in rows for y, _, _ in ctx.up_plan[x]}
    rng = random.Random(N + p + k)
    free = {e: [rng.randrange(p**K) for _ in range(ctx.mlen)] for e in ctx.sp.free_edges}
    full = build_tables_mod(cache, free, 7, defect_out=[])
    part = build_tables_mod(cache, free, 7, defect_out=[], read=read)
    twist = [x for x in range(ctx.ms.index) if ctx.ms.value_resolution(x)[2] is not None]
    assert len(twist) == twisted
    assert [x for x, t in enumerate(part) if t is None] == [x for x in twist if x not in read]
    assert sum(t is None for t in part) == skipped
    assert all(t == f for t, f in zip(part, full) if t is not None)


@functools.lru_cache(maxsize=None)
def _bundle_context(p):
    return oc_context(11, p, 0, 4)


def _slot_values(kind, cols, lim, rng):
    if kind == "random":
        return [rng.randint(0, lim) for _ in range(cols)]
    if kind == "zero":
        return [0] * cols
    if kind == "lim":
        return [lim] * cols
    return [lim * ((c + (kind == "even")) % 2) for c in range(cols)]


@given(
    st.sampled_from([2, 3, 7, 24, 129]), st.sampled_from([2, 3, 5]),
    st.sampled_from([1, 2, 14, 27, 74]),
    st.sampled_from(["random", "zero", "lim", "even", "odd"]),
    st.sampled_from(["random", "zero", "lim", "even", "odd"]),
    st.randoms(use_true_random=False),
)
def test_packed_reduction_matches_per_slot_reduction(cols, p, K, pos_kind, neg_kind, rng):
    """ColumnBundles.reduce(pos, neg) is the bundle of (pos_s + off_s - neg_s)
    % mod, slot by slot, for slot values anywhere in [0, lim]: random, all 0,
    all lim, and lim in alternate slots. off_s is a multiple of mod, so that
    is (pos_s - neg_s) % mod."""
    ctx = _bundle_context(p)
    mod = p**K
    bun = ColumnBundles(MomentCache(ctx, K), cols)
    pos = _slot_values(pos_kind, cols, bun.lim, rng)
    neg = _slot_values(neg_kind, cols, bun.lim, rng)
    want = [(a - b) % mod for a, b in zip(pos, neg)]
    got = bun.reduce(bun.pack(pos), bun.pack(neg))
    assert bun.slots(got) == want
    assert got == bun.pack(want)


@given(
    st.sampled_from([1, 3, 24]), st.sampled_from([3, 5]), st.integers(1, 12),
    st.sampled_from(["random", "max"]), st.randoms(use_true_random=False),
)
def test_combine_merges_terms_by_source(cols, p, K, kind, rng):
    """combine, which sums the signed matrices of the terms that read one
    source before its product, gives slot by slot the sum of the terms mod
    p^K: for fan terms over three sources with mixed signs, and with every
    entry at p^K - 1 and one sign, where the slots reach the bound lim.
    With bundles, one term more than fan raises."""
    ctx = _bundle_context(p)
    mod = p**K
    bun = ColumnBundles(MomentCache(ctx, K), cols)
    width = bun.width

    def entry():
        return mod - 1 if kind == "max" else rng.randrange(mod)

    vals = {y: [[entry() for _ in range(cols)] for _ in range(width)] for y in range(3)}
    mats, terms = {}, []
    for i in range(ctx.fan):
        key = (1, i, 0, 1)
        mats[key] = [[entry() for _ in range(width)] for _ in range(width)]
        terms.append((rng.randrange(3), 1 if kind == "max" else rng.choice([1, -1]), key))
    got = bun.combine(terms, mats.__getitem__, {y: [bun.pack(v) for v in vals[y]]
                                                for y in vals})
    want = [[sum(sgn * sum(e * vals[y][i][c] for i, e in enumerate(mats[m][j]))
                 for y, sgn, m in terms) % mod for c in range(cols)]
            for j in range(width)]
    assert [bun.slots(x) for x in got] == want
    if cols > 1:
        with pytest.raises(CertificationError, match="slot bound"):
            bun.combine(terms + terms[:1], mats.__getitem__, {})


def test_bundle_width_at_benchmark_model_sizes(monkeypatch):
    """At the model sizes of the series, family and lift benchmark requests,
    every bundle of several columns is exactly as wide as 2 * lim + mod needs
    in whole bytes, which pins bundle memory and time."""
    made = []
    init = ColumnBundles.__init__

    def spy(self, cache, cols=1):
        init(self, cache, cols)
        if cols > 1:
            made.append(self)

    def lift(p, M):
        space = classical_space(11, p, 0)
        lift_symbol(space, auto_eigensymbol(space, B=M + 24), M)

    monkeypatch.setattr(ColumnBundles, "__init__", spy)
    for request in (lambda: charpoly_up(11, 3, 0, M=12, xdeg=14),
                    lambda: charpoly_up(11, 5, 2, M=8, xdeg=10),
                    lambda: family_charpoly(11, 3, 0, M=12, T=3, xdeg=8),
                    lambda: lift(3, 20), lambda: lift(5, 10)):
        made.clear()
        request()
        assert made
        assert all(b.layout.sb == (2 * b.lim + b.mod).bit_length() + 7 >> 3 for b in made)


def test_charpoly_golden_digest_survives_python_O():
    """charpoly --N 11 --p 5 --k 2 --M 5 --xdeg 6 prints its golden digest
    under python -O as well, where assert is stripped."""
    from test_cli import GOLDEN_JSON

    argv = ("charpoly", "--N", "11", "--p", "5", "--k", "2", "--M", "5", "--xdeg", "6")
    script = (
        "import contextlib, hashlib, io\n"
        "from parahoric.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main({[*argv, '--format', 'json']!r})\n"
        "print('debug', __debug__, code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [f"debug False 0 {dict(GOLDEN_JSON)[argv]}", ""]


MODULUS_GUARD_SCRIPT = """
import series_reference as ref
from parahoric.ocsymbols import _column_valuations, _read_series, _trace_digits
from parahoric.padics import CertificationError

p, D, T, n = 3, 2, 2, 6
Kbig = n * (D + 1) + 16
kappas = [2 + r for r in range(1, n + 1)]
U = ref.scaled_matrix(3, n, T, p, D, Kbig)
E = min([D] + _column_valuations(U, p, Kbig))
need = _trace_digits(p, D, E, Kbig, kappas)[1] + E + D
print("debug", __debug__, need < Kbig)
want = _read_series([list(row) for row in U], p, D, E, Kbig, kappas)
for K in (need - 1, need):
    UK = [[[c % p**K for c in row] for row in plane] for plane in U]
    try:
        got = _read_series(UK, p, D, E, Kbig, kappas, K)
    except CertificationError as exc:
        print("K - need", K - need, "raised", exc)
    else:
        print("K - need", K - need, "same", got[0] == want[0])
"""


def test_model_modulus_guard_survives_python_O():
    """The series reading raises, with assert stripped, when the model was
    built mod fewer digits than the traces read (K < Kt + E + D, below
    Kbig), and reads what the Kbig matrix gives at K = Kt + E + D."""
    tests = str(Path(__file__).resolve().parent)
    proc = _run_optimized(f"import sys\nsys.path.insert(0, {tests!r})\n"
                          + MODULUS_GUARD_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "debug False True",
        "K - need -1 raised model modulus below the digits the traces read",
        "K - need 0 same True",
        "",
    ]


def _brute_integer_eigenvalues(mat, bound):
    """integer_eigenvalues by brute force: the Fraction characteristic
    polynomial evaluated at every integer of [-bound, bound]."""
    cp = charpoly_berkowitz(mat)
    roots = []
    for a in range(-bound, bound + 1):
        val = Fraction(0)
        for c in reversed(cp):
            val = val * a + c
        if val == 0:
            roots.append(a)
    return roots


@pytest.mark.parametrize("k, ell", [(0, 2), (0, 5), (0, 7), (2, 2)])
def test_integer_eigenvalues_match_brute_force(k, ell):
    mat = _space(11, 3, k).hecke_matrix(ell)
    bound = ell ** (k + 1) + 1
    assert integer_eigenvalues(mat, bound) == _brute_integer_eigenvalues(mat, bound)


@given(
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 3)), min_size=1, max_size=4),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(0, 15),
    st.randoms(use_true_random=False),
)
def test_integer_eigenvalues_with_planted_repeated_roots(planted, b, c, bound, rng):
    """A block-triangular matrix with the planted integer eigenvalues, each
    repeated up to three times (so not simple mod any prime), above the
    companion block of x^2 - b x + c, conjugated by diag(1, 2, 4, ...) so
    that its entries are Fractions."""
    diag = [r for r, mult in planted for _ in range(mult)]
    n = len(diag) + 2
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = rng.randint(-3, 3)
    for i, r in enumerate(diag):
        mat[i][i] = r
    mat[n - 2][n - 2:] = [0, -c]
    mat[n - 1][n - 2:] = [1, b]
    mat = [[Fraction(x * 2**i, 2**j) for j, x in enumerate(row)] for i, row in enumerate(mat)]
    assert integer_eigenvalues(mat, bound) == _brute_integer_eigenvalues(mat, bound)


def test_integer_eigenvalues_need_an_integral_polynomial():
    with pytest.raises(CertificationError, match="not integral"):
        integer_eigenvalues([[Fraction(1, 2)]], 3)


def test_eigensymbol_search_with_large_bounds_is_fast(monkeypatch):
    """At (2, 3, 4) the search probes ell up to 47, where the bound
    ell^(k+1) + 1 is 229M; the integer roots come from Hensel lifts, not
    from a loop up to the bound."""
    spent = []

    def timed(mat, bound):
        t0 = time.perf_counter()
        out = integer_eigenvalues(mat, bound)
        spent.append(time.perf_counter() - t0)
        return out

    monkeypatch.setattr(parahoric.ocsymbols, "integer_eigenvalues", timed)
    with pytest.raises(ValueError) as exc:
        auto_eigensymbol(_space(2, 3, 4), B=30)
    assert str(exc.value) == "no rational eigensymbol of slope 0 found below ell = 50"
    assert len(spent) == 13
    assert sum(spent) < 1.0, spent


@functools.lru_cache(maxsize=None)
def _space(N, p, k):
    return classical_space(N, p, k)


def _operator_matrix_fraction(space, deltas):
    """ClassicalSpace.operator_matrix in Fraction arithmetic: the plan applied
    to one basis vector at a time, then one solve per vector."""
    d, index = space.k + 1, space.ms.index
    basis = [[Fraction(c, v[f]) for c in v] for v, f in zip(space.basis, space.free)]
    plan = space.ms.hecke_plan(list(deltas))
    A = [list(col) for col in zip(*basis)]
    cols = []
    for b in basis:
        img = []
        for x in range(index):
            acc = [Fraction(0)] * d
            for y, sgn, m in plan[x]:
                E = moment_matrix(m, space.k, d)
                acc = [a + sgn * sum(E[j][i] * b[y * d + i] for i in range(d))
                       for j, a in enumerate(acc)]
            img.extend(acc)
        coords = solve(A, img)
        assert coords is not None
        cols.append(coords)
    n = len(basis)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@pytest.mark.parametrize("N, p, k, ell", [(11, 3, 0, 2), (11, 5, 0, 2), (5, 3, 2, 2), (2, 3, 4, 5)])
def test_integer_operator_matrices_match_fraction_solve(N, p, k, ell):
    """Hecke, U_p and involution matrices from the integer apply equal those
    of the Fraction apply and solve, on the nullspace basis."""
    space = _space(N, p, k)
    for v, f in zip(space.basis, space.free):
        assert math.gcd(*v) == 1 and v[f] > 0
        assert [v[g] for g in space.free if g != f] == [0] * (space.dimension - 1)
    for deltas in (hecke_deltas(ell), up_deltas(p), [IOTA]):
        assert space.operator_matrix(deltas) == _operator_matrix_fraction(space, deltas)


def test_hecke_matrix_of_a_zero_space_is_empty():
    space = classical_space(11, 3, 1)
    assert space.dimension == 0
    assert space.hecke_matrix(2) == ()


def test_hecke_plans_are_built_once_per_lift(monkeypatch):
    """The eigensymbol search, its checks and the lift share one plan per
    operator: T_2, the involution and U_p."""
    calls = []
    plan = ManinSystem.hecke_plan

    def counted(self, deltas):
        calls.append(tuple(deltas))
        return plan(self, deltas)

    monkeypatch.setattr(ManinSystem, "hecke_plan", counted)
    space = classical_space(11, 3, 0)
    lift_symbol(space, auto_eigensymbol(space, B=30), 6)
    assert sorted(calls) == sorted({*calls}) and len(calls) == 3


def _up_apply_per_term(cache, tables):
    """The one-table up_apply_mod without the cache: each term's ring
    product with the family_moment_matrix planes of its own composite, into
    a positive or a negative accumulator, each coordinate reduced once. No
    sign class and no merging."""
    ctx, T, mod = cache.ctx, cache.T, cache.mod
    mlen = ctx.mlen
    out = []
    for terms in ctx.up_plan:
        acc = {1: [0] * (T * mlen), -1: [0] * (T * mlen)}
        for y, sgn, m in terms:
            planes = family_moment_matrix(m, ctx.k, mlen, T, ctx.p, cache.K)
            for t in range(T):
                for u in range(t + 1):
                    img = matvec(planes[t - u], tables[y][u * mlen:(u + 1) * mlen])
                    acc[sgn][t * mlen:(t + 1) * mlen] = map(
                        operator.add, acc[sgn][t * mlen:(t + 1) * mlen], img)
        out.append([(a - b) % mod for a, b in zip(acc[1], acc[-1])])
    return out


@pytest.mark.parametrize(
    "N, p, k, T",
    [(11, 3, 0, 1), (11, 5, 2, 1), (11, 3, 2, 1), (3, 2, 0, 1), (11, 3, 1, 1), (11, 3, 1, 2)],
    ids=["11-3-0", "11-5-2", "11-3-2", "3-2-0", "11-3-1", "11-3-1-T2"],
)
def test_one_table_up_apply_matches_per_term_products(N, p, k, T, monkeypatch):
    """The merged, packed U_p operator gives the U_p image of per-term ring
    products on random residue tables, odd k and T = 2 included. The cache
    builds one moment matrix per sign class +-m, once, and reuses it."""
    built = []

    def counted(m, *args):
        built.append(m)
        return family_moment_matrix(m, *args)

    monkeypatch.setattr(parahoric.ocsymbols, "family_moment_matrix", counted)
    ctx = oc_context(N, p, k, 8)
    K = ctx.mlen + 2 * ctx.D + 4
    mod = p**K
    cache = MomentCache(ctx, K, T)
    rng = random.Random(N * p + k + 100 * (T - 1))
    for _ in range(2):
        tables = [[rng.randrange(mod) for _ in range(T * ctx.mlen)]
                  for _ in range(ctx.ms.index)]
        assert up_apply_mod(cache, tables) == _up_apply_per_term(cache, tables)
    classes = {m if m[0] > 0 else tuple(-x for x in m)
               for terms in ctx.up_plan for _, _, m in terms}
    assert sorted(built) == sorted(classes)


def test_model_caches_free_without_the_cycle_collector():
    """The merged operator and the bundles it keeps hold no reference back
    to their cache, so a lift's cache, with its operator and moment
    matrices, is freed when its last name goes, not at a later collection."""
    ctx = oc_context(11, 3, 1, 6)
    cache = MomentCache(ctx, ctx.mlen + 2 * ctx.D + 4)
    tables = [[1] * ctx.mlen for _ in range(ctx.ms.index)]
    up_apply_mod(cache, tables)
    check_relations_mod(cache, tables)
    gone = weakref.ref(cache)
    gc.disable()
    try:
        del cache
        assert gone() is None
    finally:
        gc.enable()


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of repr((basis, free)) and of repr((alpha, B, table)) of
# auto_eigensymbol(space, B=30), recorded while rref returned Fractions and
# every caller rescaled them; (2, 3, 4) has no eigensymbol below ell = 50
CLASSICAL_DIGESTS = [
    ((11, 3, 0), "ce48e8f3eb84416ea45045a2e7d026d0198e462e75b1dd5551368cf1f9a4dea4",
     "7bcb09a6d479c4445582f1917c9a91cb41b0a53947610856161e733eed92c9a4"),
    ((11, 5, 0), "5d9ac219ee3cc7b3fd512872fa68ddc99344fd73b934ca42be2ca66607f29473",
     "a09939b0d142e3e45d1d46921ac2043211743551d9001c461f2f88c9cfc8b944"),
    ((5, 3, 2), "5fff8732c87dc3c2e3c90881dcda5395ed5d0ff1c09e521ae179d7b5ed1169eb",
     "4df7d12af7ce78f62ea77dee2ce930f38452bc292bafe7cae6c961d2eee702a4"),
    ((7, 3, 2), "3e0451b565973fefac256ff682121e271b840a4b2341306dcf626fea3f2bad18",
     "c2d9ae7ff7d7d2dad21797c2e62058822fa7ecfe5cc57a3829a23d79c6321b61"),
    ((2, 3, 4), "7411dfea388bffdb1a835489ffbcc7f81f2ed748239351d42f882a3deb27c48a", None),
    ((19, 3, 0), "c23eef1ca71b09cb8b563c8fdc595670a568dc0de86929279a7e9089d07f742d",
     "e5e900ffb257354001a1bac6134a3b7ded1f87f428c926c7695c6d696a79120b"),
]


@pytest.mark.parametrize("level, basis_digest, symbol_digest", CLASSICAL_DIGESTS,
                         ids=[str(level).replace(" ", "") for level, _, _ in CLASSICAL_DIGESTS])
def test_classical_bases_and_eigensymbols_are_pinned(level, basis_digest, symbol_digest):
    """The basis, its free columns and the eigensymbol table are exact
    outputs: a basis vector or a table scaled by a unit would still pass
    every spectral check, so their bytes are pinned."""
    space = _space(*level)
    assert _sha256((space.basis, space.free)) == basis_digest
    if symbol_digest is not None:
        sym = auto_eigensymbol(space, B=30)
        assert _sha256((sym.alpha, sym.B, sym.table)) == symbol_digest


def _block_charpoly_via_up_matrix(space, ell, a):
    """(trace, norm) of U_p on the plus block of T_ell = a: the whole-space
    up_matrix() restricted by one linalg.solve per block vector, then the
    Fraction Berkowitz charpoly x^2 - trace x + norm."""
    n = space.dimension
    Tl, iota, U = space.hecke_matrix(ell), space.involution_matrix(), space.up_matrix()
    block = nullspace(
        [[Tl[i][j] - (a if i == j else 0) for j in range(n)] for i in range(n)]
        + [[iota[i][j] - (i == j) for j in range(n)] for i in range(n)]
    )
    A = [list(row) for row in zip(*block)]
    cols = [solve(A, matvec(U, w)) for w in block]
    assert None not in cols
    cp = charpoly_berkowitz([list(row) for row in zip(*cols)])
    return -cp[1], cp[0]


@pytest.mark.parametrize("level", [level for level, _, digest in CLASSICAL_DIGESTS if digest]
                         + [(14, 3, 0), (6, 5, 2)], ids=str)
def test_eigensymbol_search_reads_only_the_block(level, monkeypatch):
    """The search never builds the whole-space U_p matrix: the block's
    (trace, norm) comes from one two-column apply and equals the old route
    through up_matrix()."""
    space = _space(*level)
    probes = []
    search = ocsymbols.ordinary_eigensymbol

    def record(space, probe_ell, probe_a, *args, **kwargs):
        probes.append((probe_ell, probe_a))
        return search(space, probe_ell, probe_a, *args, **kwargs)

    def refuse(self):
        raise AssertionError("the search built up_matrix()")

    with monkeypatch.context() as patch:
        patch.setattr(ocsymbols, "ordinary_eigensymbol", record)
        patch.setattr(ClassicalSpace, "up_matrix", refuse)
        sym = auto_eigensymbol(space, B=30)
    assert (sym.trace, sym.norm) == _block_charpoly_via_up_matrix(space, *probes[-1])


def test_block_check_survives_python_O():
    """A U_p image pushed off the block at a column that is no free column
    fails the block's coordinate check under python -O as well."""
    script = (
        "from parahoric.ocsymbols import ClassicalSpace, classical_space,"
        " ordinary_eigensymbol, up_deltas\n"
        "space = classical_space(11, 3, 0)\n"
        "print('clean', ordinary_eigensymbol(space, 2, -2, B=20).slope)\n"
        "q = next(q for q in range(space.ms.index) if q not in space.free)\n"
        "apply = ClassicalSpace.apply\n"
        "def corrupted(self, deltas, cols):\n"
        "    img = apply(self, deltas, cols)\n"
        "    if list(deltas) == up_deltas(self.ms.p):\n"
        "        img[q] = [c + 1 for c in img[q]]\n"
        "    return img\n"
        "ClassicalSpace.apply = corrupted\n"
        "print('debug', __debug__)\n"
        "try:\n"
        "    ordinary_eigensymbol(space, 2, -2, B=20)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', type(exc).__name__, exc)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "clean 0", "debug False", "raised CertificationError operator left the span", "",
    ]
