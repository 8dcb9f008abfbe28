"""The lift's initial-table tuning with one table build per free edge, for
tests to compare the package's one bundled build with: a build of the given
data, one probe build per free edge with a unit added at moment k+1, and a
rebuild from the tuned data. Nothing in the package imports this module.
"""
from __future__ import annotations

from parahoric.ocsymbols import Eigensymbol, MomentCache, build_tables_mod
from parahoric.padics import VAL_INF, CertificationError, valuation


def tuned_initial_tables(
    cache: MomentCache, sym: Eigensymbol, higher: dict[int, list[int]], top: int
) -> list[list[int]]:
    """Relation-exact initial table whose classical layer equals sym, tuned
    at the first free edge of least response valuation."""
    ctx, mod = cache.ctx, cache.mod
    p, k, D = ctx.p, sym.k, ctx.D
    sD = p**D
    free = ctx.sp.free_edges

    def assemble(tune: dict[int, int]) -> list[list[int]]:
        fv = {e: list(sym.table[e]) + list(higher[e]) for e in free}
        for e, t in tune.items():
            fv[e][k + 1] = (fv[e][k + 1] + t) % mod
        return build_tables_mod(cache, fv, top)

    base = assemble({})
    x0 = ctx.sp.tail.x0
    target = sym.table[x0][k] * sD % mod
    delta = (target - base[x0][k]) % mod
    if delta:
        best_e, best_coef, best_v = None, None, VAL_INF
        for e in free:
            coef = (assemble({e: 1})[x0][k] - base[x0][k]) % mod
            v = valuation(coef, p)
            if v < best_v:
                best_e, best_coef, best_v = e, coef, v
        if valuation(delta, p) < best_v:
            raise CertificationError("tuning target is outside the reachable lattice")
        t = (delta // p**best_v) * pow(best_coef // p**best_v, -1, mod) % mod
        base = assemble({best_e: t})
        if (base[x0][k] - target) % (mod // p**D):
            raise CertificationError("tuning failed to pin the tail moment")
    for x in range(ctx.ms.index):
        for j in range(k + 1):
            if (base[x][j] - sym.table[x][j] * sD) % (mod // p**D):
                raise CertificationError("classical layer mismatch")
    return base
