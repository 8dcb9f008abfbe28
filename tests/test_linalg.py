from hypothesis import given
from hypothesis import strategies as st

from parahoric.linalg import power_traces_mod


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
    if T == 1:
        got = power_traces_mod([[c[0] for c in row] for row in cells], count, mod)
        assert got == [t[0] for t in want]
    else:
        assert power_traces_mod(cells, count, mod) == want
