"""The U_p series runs its power traces and Newton's identities on U/p^E mod
p^Kt. These tests hold it to the Kbig reading path it replaced
(series_reference): the same floors, readings and polygon on engine
requests, including requests where the representative budget binds, and on
synthetic matrices with a column of valuation D - 1 (so E < D). A test in
test_ocsymbols checks that both raise the same certification failures, at
the same coefficient, under python -O. The engine builds the model matrix
mod p^K, K at most Kbig, in one or two builds; a test here records those
moduli. Another checks that the columns the engine drops before its traces
(their floor reached mlen - S) change no reading."""
from math import factorial

import pytest

import series_reference as ref
from parahoric import ocsymbols
from parahoric.ocsymbols import _certified_series, _column_valuations, _read_series, oc_context
from parahoric.padics import valuation

# (N, p, k, M, T, xdeg, pad)
DEFAULT_REQUESTS = [
    # the series and family workloads of the benchmark
    (11, 3, 0, 12, 1, 14, 4),
    (11, 5, 2, 8, 1, 10, 4),
    (11, 3, 0, 12, 3, 8, 2),
    # the charpoly requests of the golden CLI digests
    (11, 3, 0, 6, 1, 6, 4),
    (11, 3, 0, 6, 2, 4, 2),
    (11, 3, 0, 6, 3, 4, 2),
    (3, 2, 0, 6, 1, 4, 4),
    (11, 3, 2, 5, 1, 6, 4),
    (11, 5, 2, 5, 1, 6, 4),
    (2, 3, 0, 4, 4, 20, 2),  # with (3, 2, 0, M=4, xdeg=40) below
]
RING_REQUESTS = [(11, 3, 0, 6, T, 6, 2) for T in (1, 2, 3, 4)]
# the representative budget Kbig - nloss_r - rD, not the truncation bound,
# sets the precision of some coefficients
BUDGET_REQUESTS = [
    (11, 3, 0, 4, 1, 40, 4),
    (3, 2, 0, 4, 1, 40, 4),
    (5, 3, 0, 4, 1, 24, 4),
]


def _same_readings(got, want):
    readings, polygon = got
    ref_readings, ref_polygon = want
    assert readings == ref_readings
    assert polygon.all_points == ref_polygon.all_points


@pytest.mark.parametrize("req", DEFAULT_REQUESTS + RING_REQUESTS + BUDGET_REQUESTS)
def test_series_matches_kbig_reference(req):
    got = _certified_series(*req)
    want = ref.certified_series(*req)
    assert got[:4] == want[:4]
    _same_readings(got[4:], want[4:])


# columns of the benchmark requests whose floor reaches mlen - S
SETTLED = {(11, 3, 0, 12, 1, 14, 4): 17, (11, 5, 2, 8, 1, 10, 4): 13}


@pytest.mark.parametrize("req", DEFAULT_REQUESTS + RING_REQUESTS + BUDGET_REQUESTS)
def test_settled_columns_change_no_reading(req, monkeypatch):
    """Dropping the columns whose floor reached mlen - S, with their rows,
    leaves the floors, every reading and the polygon as the full model
    matrix gives them."""
    settled = ocsymbols._settled_columns
    dropped = []

    def recorded(*args):
        cols = settled(*args)
        dropped.extend(cols)
        return cols

    monkeypatch.setattr(ocsymbols, "_settled_columns", recorded)
    got = _certified_series(*req)
    monkeypatch.setattr(ocsymbols, "_settled_columns", lambda *args: [])
    want = _certified_series(*req)
    assert got[:4] == want[:4]
    _same_readings(got[4:], want[4:])
    assert len(dropped) == SETTLED.get(req, len(dropped))


@pytest.mark.parametrize("req", BUDGET_REQUESTS)
def test_budget_requests_reach_the_budget(req):
    """Some certified precision is the representative budget, below the
    truncation bound, so the grid covers the rows that bound Kt by Kbig."""
    N, p, k, M, T, xdeg, pad = req
    ctx = oc_context(N, p, k, M + pad)
    xdeg, _, floors, trunc, readings, _ = _certified_series(*req)
    Kbig = M + pad + xdeg * (ctx.D + 1) + 16
    binding = [r for r in range(1, xdeg + 1)
               if readings[r][0].precision
               == Kbig - valuation(factorial(r), p) - r * ctx.D
               < trunc + sum(floors[: r - 1])]
    assert binding


@pytest.mark.parametrize("p, D, T, seed", [
    (2, 1, 1, 0), (2, 3, 2, 1), (3, 1, 3, 2), (3, 2, 1, 3), (5, 2, 2, 4), (7, 1, 1, 5),
])
def test_read_series_below_D_matches_reference(p, D, T, seed):
    """A column of valuation D - 1 gives E = D - 1; the readings still match
    the Kbig path, with the truncation bound and the budget each binding."""
    n = 7
    Kbig = n * (D + 1) + 16
    U = ref.scaled_matrix(seed, n, T, p, D, Kbig, low_column=seed % n)
    E = min([D] + _column_valuations(U, p, Kbig))
    assert E == D - 1
    kappas = [Kbig if r % 2 else 2 + r for r in range(1, n + 1)]
    got = _read_series([list(row) for row in U], p, D, E, Kbig, kappas)
    _same_readings(got, ref.read_series(U, p, D, Kbig, kappas))
    assert sum(c.certified for row in got[0][1:] for c in row) >= n


def test_model_build_moduli(monkeypatch):
    """Every model build of the series path is mod p^K with mlen <= K <= Kbig
    and K >= mlen - S + 2D, a request takes one or two builds, and the grid
    has requests of both kinds."""
    builds = []
    build = ocsymbols.up_model_matrix

    def recorded(cache):
        builds.append(cache.K)
        assert cache.mod == cache.ctx.p**cache.K
        return build(cache)

    monkeypatch.setattr(ocsymbols, "up_model_matrix", recorded)
    counts = set()
    for req in DEFAULT_REQUESTS + RING_REQUESTS + BUDGET_REQUESTS:
        N, p, k, M, T, xdeg, pad = req
        ctx = oc_context(N, p, k, M + pad)
        mlen, D, S = ctx.mlen, ctx.D, ctx.S_sol
        Kbig = mlen + min(xdeg, ctx.n_model) * (D + 1) + 16
        builds.clear()
        _certified_series(*req)
        assert 1 <= len(builds) <= 2, (req, builds)
        assert builds == sorted(set(builds)), (req, builds)
        for K in builds:
            assert mlen <= K <= Kbig and K >= mlen - S + 2 * D, (req, K)
        counts.add(len(builds))
    assert counts == {1, 2}
