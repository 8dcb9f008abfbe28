import math
import timeit
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from parahoric.linalg import (
    charpoly_berkowitz,
    in_span,
    nullspace,
    power_schedule,
    power_traces_mod,
    primitive,
    rref,
    same_span,
    solve,
)


def ring_mul(x, y, T, mod):
    """Product in (Z/mod)[w]/(w^T) of coefficient tuples."""
    out = [0] * T
    for s in range(T):
        for t in range(T - s):
            out[s + t] += x[s] * y[t]
    return tuple(c % mod for c in out)


def schoolbook_traces(a, count, T, mod):
    """tr(a), tr(a^2), ... by repeated multiplication, cell by cell."""
    n = len(a)
    zero = (0,) * T
    cur = a
    traces = []
    for _ in range(count):
        tr = zero
        for i in range(n):
            tr = tuple((x + y) % mod for x, y in zip(tr, cur[i][i]))
        traces.append(tr)
        nxt = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for l in range(n):
                    prod = ring_mul(cur[i][l], a[l][j], T, mod)
                    acc = tuple((x + y) % mod for x, y in zip(acc, prod))
                row.append(acc)
            nxt.append(row)
        cur = nxt
    return traces


@st.composite
def ring_matrices(draw):
    n = draw(st.integers(1, 8))
    T = draw(st.sampled_from([1, 2, 3]))
    mod = draw(st.sampled_from([2, 3, 5])) ** draw(st.integers(1, 12))
    if draw(st.booleans()):
        # every cell at mod - 1 puts each packed slot at its largest value
        cells = [[(mod - 1,) * T for _ in range(n)] for _ in range(n)]
    else:
        cell = st.tuples(*[st.integers(0, mod - 1)] * T)
        cells = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return cells, T, mod


@given(ring_matrices(), st.integers(0, 17))
def test_power_traces_match_schoolbook_powers(data, count):
    cells, T, mod = data
    want = schoolbook_traces(cells, count, T, mod)
    planes = [[[c[t] for c in row] for row in cells] for t in range(T)]
    assert power_traces_mod(planes, count, mod) == want


@given(ring_matrices(), st.integers(1, 17), st.integers(-3, 3))
def test_power_traces_reduce_their_input(data, count, shift):
    """Planes with entries outside [0, mod), as an unreduced caller passes
    them, give the traces of their residues: no slot overflows."""
    cells, T, mod = data
    planes = [[[c[t] for c in row] for row in cells] for t in range(T)]
    far = [[[c + shift * mod**2 for c in row] for row in plane] for plane in planes]
    assert power_traces_mod(far, count, mod) == power_traces_mod(planes, count, mod)


def test_power_schedule_reads_every_trace_with_few_products():
    """For every count up to 400, each product multiplies two powers already
    computed, each m in 1..count is a computed power or the sum of two, the
    products never outnumber baby-step/giant-step's (s = isqrt(count) baby
    steps a^2 .. a^s, then one giant step per further multiple of s), and
    the schedule costs under a millisecond."""
    for count in range(401):
        products, reads = power_schedule(count)
        powers = {1}
        for c, x, y in products:
            assert x in powers and y in powers and c == x + y, (count, c, x, y)
            powers.add(c)
        assert len(reads) == count
        for m, (x, y) in enumerate(reads, 1):
            assert x + y == m and x in powers and (y == 0 or y in powers), (count, m)
        s = math.isqrt(count)
        bsgs = (s - 1) + max(0, (count - 1) // s - 1) if count else 0
        assert len(products) <= bsgs, count
        cost = min(timeit.repeat(lambda: power_schedule(count), number=1, repeat=5))
        assert cost < 1e-3, (count, cost)
    assert [c for c, _, _ in power_schedule(14)[0]] == [2, 4, 6, 7]
    assert [c for c, _, _ in power_schedule(10)[0]] == [2, 4, 5]
    assert len(power_schedule(8)[0]) == 3


def fraction_rref(rows):
    """Gauss-Jordan over Fraction, row by row: the reference for rref."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def sympy_rref(rows, nc):
    red, pivots = sympy.Matrix(len(rows), nc, [x for row in rows for x in row]).rref()
    out = [[Fraction(int(x.p), int(x.q)) for x in red.row(i)] for i in range(red.rows)]
    return out, list(pivots)


entries = st.one_of(
    st.integers(-9, 9),
    st.just(0),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    # large denominators and numerators
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


@st.composite
def rational_matrices(draw):
    nc = draw(st.integers(1, 6))
    nr = draw(st.integers(0, 8))           # includes 0 rows and more rows than columns
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    for i in draw(st.sets(st.integers(0, max(nr - 1, 0)), max_size=2)):
        if i < nr:
            rows[i] = [0] * nc             # zero rows
    if nr >= 2 and draw(st.booleans()):
        # a dependent row, so the rank falls short of min(nr, nc)
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * Fraction(x) + b * Fraction(y) for x, y in zip(rows[0], rows[1])])
    return rows, nc


@given(rational_matrices())
@example(([], 3))
def test_rref_matches_fraction_gauss_jordan_and_sympy(data):
    """One primitive int row per pivot, positive at its pivot; divided by
    the pivots and padded with zero rows it is the RREF over Q."""
    rows, nc = data
    red, pivots = rref(rows)
    assert len(red) == len(pivots)
    for row, c in zip(red, pivots):
        assert all(type(x) is int for x in row)
        assert row[c] > 0 and math.gcd(*row) == 1
    got = ([[Fraction(x, row[c]) for x in row] for row, c in zip(red, pivots)]
           + [[Fraction(0)] * nc for _ in range(len(rows) - len(red))], pivots)
    assert got == fraction_rref(rows)
    assert got == sympy_rref(rows, nc)


@given(rational_matrices())
def test_nullspace_is_the_primitive_sympy_kernel(data):
    """sympy's kernel vector of each free column (1 there, 0 at the other
    free columns) times the lcm of its denominators is the returned vector."""
    rows, nc = data
    got = nullspace(rows)
    if not rows:
        assert got == []  # no row, no column count
        return
    want = []
    for vec in sympy.Matrix(len(rows), nc, [x for row in rows for x in row]).nullspace():
        den = math.lcm(*(int(x.q) for x in vec))
        want.append([int(x * den) for x in vec])
    assert got == want
    assert len(got) == nc - len(fraction_rref(rows)[1])
    free = [max(q for q, c in enumerate(v) if c) for v in got]
    for v, f in zip(got, free):
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1
        assert v[f] > 0 and [v[g] for g in free if g != f] == [0] * (len(free) - 1)
        assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in rows)


@given(st.lists(st.one_of(st.integers(-9, 9), st.just(0), st.integers(-10**30, 10**30)),
                max_size=8))
@example([])
@example([0, 0])
def test_primitive_of_ints_is_the_rational_route(values):
    """On ints, primitive is what the rational route gives: times the lcm of
    the denominators, as numerators, over their gcd."""
    fracs = [Fraction(x) for x in values]
    den = math.lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (den // x.denominator) for x in fracs]
    g = math.gcd(*ints)
    got = primitive(values)
    assert got == ([x // g for x in ints] if g > 1 else ints)
    assert all(type(x) is int for x in got)


SPAN_CASES = [
    (same_span, [[0, 0]], [], True),
    (same_span, [], [[0, 0]], True),
    (same_span, [], [], True),
    (same_span, [[1, 2], [2, 4]], [[Fraction(1, 2), 1]], True),
    (same_span, [[1, 0], [0, 1]], [[1, 1], [1, -1]], True),
    (same_span, [[1, 0]], [[0, 1]], False),
    (same_span, [[1, 0], [0, 1]], [[1, 1]], False),
    (in_span, [], [0, 0], True),
    (in_span, [[0, 0]], [1, 0], False),
    (in_span, [[1, 2]], [Fraction(-1, 3), Fraction(-2, 3)], True),
    (in_span, [[1, 2], [3, 4]], [5, 7], True),
    (in_span, [[1, 2, 3]], [1, 2, 4], False),
]


@pytest.mark.parametrize("func, a, b, want", SPAN_CASES)
def test_span_comparisons(func, a, b, want):
    assert func(a, b) is want


def test_exact_routines_build_no_fraction(monkeypatch):
    """rref, nullspace, same_span and in_span run in ints even on Fraction
    input; solve builds Fractions for its answer only."""
    rows = [[Fraction(1, 2), 3, 0, 1], [2, Fraction(-4, 3), 1, 0],
            [Fraction(5, 2), Fraction(5, 3), 1, 1]]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    red, pivots = rref(rows)
    kernel = nullspace(rows)
    assert same_span(rows, red) and in_span(rows, kernel[0]) is False
    assert built == []
    assert solve(rows, [1, 2, 3]) is not None and built


@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_charpoly_berkowitz_matches_sympy(rows):
    """det(X I - A), low degree first, for ints and Fractions; an integer
    matrix keeps int coefficients, since the algorithm divides nowhere."""
    got = charpoly_berkowitz(rows)
    want = sympy.Matrix(len(rows), len(rows), [x for row in rows for x in row]).charpoly()
    assert got == [Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())]
    if all(isinstance(x, int) for row in rows for x in row):
        assert all(isinstance(c, int) for c in got)
