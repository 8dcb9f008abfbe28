"""Coset bookkeeping for modular symbols on Gamma_0(N p).

P^1(Z/M) normalization follows Stein, Algorithms 8.29 and 8.32. Values of a
symbol are indexed by cosets; the two- and three-term relations carry
Gamma_0(M) twists only, so every transport stays in the Hecke monoid.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .padics import CertificationError

Mat2 = tuple[int, int, int, int]  # (a, b, c, d) row-major

IDENTITY: Mat2 = (1, 0, 0, 1)
S_MAT: Mat2 = (0, -1, 1, 0)


class UnsupportedLevel(ValueError):
    """The solved presentation needs a torsion-free level with an unfolded tail."""


def mat_mul(m1: Mat2, m2: Mat2) -> Mat2:
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(m: Mat2) -> int:
    return m[0] * m[3] - m[1] * m[2]


def mat_inv(m: Mat2) -> Mat2:
    if mat_det(m) != 1:
        raise ValueError("only determinant-one inverses supported")
    a, b, c, d = m
    return (d, -b, -c, a)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class P1List:
    """Canonical representatives for P^1(Z/M): each point is named by the
    least pair in its orbit under the units of Z/M. See Stein, Algorithm 8.32."""

    def __init__(self, M: int):
        if M < 1:
            raise ValueError("M must be positive")
        self.M = M
        # a unit s with s u = gcd(u, M) mod M gives (u : v) = (gcd(u, M) : s v),
        # so first coordinates 0 and the divisors of M reach every point
        seen = set()
        for u in [0] + [g for g in range(1, M) if M % g == 0]:
            for v in range(M):
                if gcd(gcd(u, v), M) == 1:
                    seen.add(self.normalize(u, v))
        self.reps: list[tuple[int, int]] = sorted(seen)
        self._index = {uv: i for i, uv in enumerate(self.reps)}

    def normalize(self, u: int, v: int) -> tuple[int, int]:
        """The least (s u, s v) mod M over the units s of Z/M: (0, 1) if u = 0,
        else (g, least s v) for g = gcd(u, M) = x u + y M, since the units
        with s u = g are the units among x + j A, A = M/g, j < g."""
        M = self.M
        if M == 1:
            return (0, 0)
        u %= M
        v %= M
        if gcd(gcd(u, v), M) != 1:
            raise ValueError(f"({u}:{v}) is not a point of P^1(Z/{M})")
        if u == 0:
            return (0, 1)
        g, x, _ = xgcd(u, M)
        A = M // g
        best = M
        for s in range(x % A, M, A):
            if gcd(s, M) == 1 and s * v % M < best:
                best = s * v % M
        if best == M:
            raise CertificationError("no unit sends u to gcd(u, M)")
        return (g, best)

    def index(self, u: int, v: int) -> int:
        return self._index[self.normalize(u, v)]

    def __len__(self) -> int:
        return len(self.reps)


def lift_to_sl2(u: int, v: int, M: int) -> Mat2:
    """A determinant-one integer matrix with bottom row (u, v) mod M."""
    if M == 1:
        return IDENTITY
    u %= M
    v %= M
    if (u, v) == (0, 1):
        return IDENTITY
    if (u, v) == (1, 0):
        return S_MAT
    c, d = u, v
    if c == 0:
        c = M
    if d == 0:
        d = M
    guard = 0
    while gcd(c, d) != 1:
        d += M
        guard += 1
        if guard > M:
            raise CertificationError("coprime lift failed")
    g, x, y = xgcd(c, d)
    m = (y, -x, c, d)
    if g != 1 or mat_det(m) != 1:
        raise CertificationError("lift to SL(2, Z) is not unimodular")
    return m


U_MAT: Mat2 = mat_mul(S_MAT, (1, 1, 0, 1))  # order three up to sign


class TriangleSlot(NamedTuple):
    coset: int
    gamma: Mat2      # g_x U^k g_y^{-1}, an element of Gamma_0(M)


class Triangle(NamedTuple):
    slots: tuple[TriangleSlot, TriangleSlot, TriangleSlot]


class ProgramStep(NamedTuple):
    """v_target = sum of sign * (v_source | matrix) over the listed terms."""

    target: int
    terms: tuple[tuple[int, int, Mat2], ...]  # (source leader coset, sign, matrix)


class IdentityTail(NamedTuple):
    """Data of the folded identity triangle: v0 | (W - 1) = v_w | gamma_w_inv."""

    x0: int
    partner: int
    w_coset: int
    gamma_w_inv: Mat2
    W: Mat2


class SolvedPresentation(NamedTuple):
    free_edges: list[int]            # leader cosets carrying free values
    steps: list[ProgramStep]         # topologically ordered eliminations
    tail: IdentityTail


class ManinSystem:
    """Coset structure for Gamma_0(Np) with p prime to N."""

    def __init__(self, N: int, p: int):
        if N < 1:
            raise ValueError("N must be >= 1")
        if not is_prime(p):
            raise ValueError("p must be prime")
        if N % p == 0:
            raise ValueError("p must not divide N")
        self.N = N
        self.p = p
        self.M = N * p
        self.p1 = P1List(self.M)
        self.lifts: list[Mat2] = [lift_to_sl2(u, v, self.M) for (u, v) in self.p1.reps]
        self._build_orbits()

    @property
    def index(self) -> int:
        return len(self.p1)

    def coset_of_matrix(self, m: Mat2) -> int:
        return self.p1.index(m[2] % self.M, m[3] % self.M)

    def in_gamma0(self, m: Mat2) -> bool:
        return mat_det(m) == 1 and m[2] % self.M == 0

    def transport(self, g: Mat2) -> tuple[int, Mat2]:
        """Write g = gamma g_y; returns (y, gamma)."""
        y = self.coset_of_matrix(g)
        gamma = mat_mul(g, mat_inv(self.lifts[y]))
        if not self.in_gamma0(gamma):
            raise CertificationError("transport left Gamma_0(M)")
        return y, gamma

    def _triangle_slots(self, x: int) -> list[TriangleSlot]:
        """The U orbit of coset x as slots: g_x U^k = gamma_k g_(y_k) for
        k = 0, 1, 2."""
        g = self.lifts[x]
        slots = []
        for _ in range(3):
            slots.append(TriangleSlot(*self.transport(g)))
            g = mat_mul(g, U_MAT)
        return slots

    def _build_orbits(self) -> None:
        """S pairs, U orbits, and the Manin relations they give: each row of
        self.relations lists terms (coset, sign, m) with sum sign * (v_coset | m)
        = 0, the S rows v_x + v_{xS} | gamma^{-1} first, then one row per U
        orbit, elliptic orbits included."""
        n = self.index
        # S pairs: v_{xS} = -v_x | gamma with gamma = g_x S g_{xS}^{-1}
        self.s_partner: list[int] = [-1] * n
        self.s_twist: list[Mat2] = [IDENTITY] * n  # for partner slots
        self.torsion_s: list[int] = []
        self.relations: list[list[tuple[int, int, Mat2]]] = []
        for x in range(n):
            gs = mat_mul(self.lifts[x], S_MAT)
            y, gamma = self.transport(gs)
            self.s_partner[x] = y
            if y == x:
                self.torsion_s.append(x)
            self.s_twist[x] = gamma
            self.relations.append([(x, 1, IDENTITY), (y, 1, mat_inv(gamma))])
        # leader of each S edge
        self.leader: list[int] = [min(x, self.s_partner[x]) for x in range(n)]
        self.edges: list[int] = sorted({self.leader[x] for x in range(n)})
        # U triangles
        seen = set()
        self.triangles: list[Triangle] = []
        self.torsion_u: list[int] = []
        for x in range(n):
            if x in seen:
                continue
            slots = self._triangle_slots(x)
            orbit = [s.coset for s in slots]
            self.relations.append([(s.coset, 1, mat_inv(s.gamma)) for s in slots])
            if len(set(orbit)) == 1:
                self.torsion_u.append(x)
                seen.update(orbit)
                continue
            if len(set(orbit)) != 3:
                raise CertificationError("U orbit of size 2 cannot happen")
            seen.update(orbit)
            self.triangles.append(Triangle(tuple(slots)))

    def value_resolution(self, coset: int) -> tuple[int, int, Mat2 | None]:
        """(leader, sign, twist): v_coset = sign * v_leader | twist (twist None = Id)."""
        ld = self.leader[coset]
        if ld == coset:
            return coset, 1, None
        # coset is the S image of its leader
        return ld, -1, self.s_twist[ld]

    # solved presentation

    def solved_presentation(self) -> SolvedPresentation:
        if self.torsion_s or self.torsion_u:
            raise UnsupportedLevel(
                f"level {self.M} has elliptic points; the solved presentation "
                "needs nu_2 = nu_3 = 0"
            )
        x0 = self.p1.index(0, 1)
        partner = self.s_partner[x0]
        if partner != self.p1.index(1, 0):
            raise CertificationError("S does not pair (0:1) with (1:0)")
        tail_edge = self.leader[x0]

        others = []
        for tri in self.triangles:
            cosets = {s.coset for s in tri.slots}
            if x0 in cosets or partner in cosets:
                if not (x0 in cosets and partner in cosets):
                    raise UnsupportedLevel("tail cosets split across triangles")
            else:
                others.append(tri)
        if len(others) == len(self.triangles):
            raise UnsupportedLevel("no folded identity triangle at this level")

        tail = self._tail_data(x0, partner)

        # Dual graph: non-identity triangles joined along shared S-edges. Every
        # edge class borders two triangle slots, except the one pendant edge
        # whose partner slot sits in the identity triangle. A breadth-first
        # spanning tree rooted at the pendant owner gives the elimination
        # program: each triangle solves for the edge shared with its parent,
        # and in reverse BFS order it comes after its children, whose parent
        # edges are its other tree edges.
        occ: dict[int, list[int]] = {}
        for ti, tri in enumerate(others):
            leaders = [self.leader[s.coset] for s in tri.slots]
            if len(set(leaders)) < 3:
                raise UnsupportedLevel("folded non-identity triangle")
            if tail_edge in leaders:
                raise UnsupportedLevel("tail edge reappears outside its triangle")
            for ld in leaders:
                occ.setdefault(ld, []).append(ti)
        pendants = sorted(e for e, ts in occ.items() if len(ts) == 1)
        w_edge = self.leader[tail.w_coset]
        if pendants != [w_edge]:
            raise UnsupportedLevel("expected exactly one pendant edge, at the tail triangle")

        root = occ[w_edge][0]
        parent_edge: dict[int, int] = {root: w_edge}
        order = [root]
        for u in order:  # BFS: order grows while it is read
            for e in sorted(self.leader[s.coset] for s in others[u].slots):
                for v in occ[e]:
                    if v not in parent_edge:
                        parent_edge[v] = e
                        order.append(v)
        if len(order) < len(others):
            raise UnsupportedLevel("triangle adjacency graph is disconnected")

        tree_edges = {parent_edge[v] for v in order[1:]}
        free = sorted(e for e, ts in occ.items() if len(ts) == 2 and e not in tree_edges)

        determined: set[int] = set(free)
        steps: list[ProgramStep] = []
        for u in reversed(order):
            steps.append(self._solve_triangle(others[u], parent_edge[u], determined))
            determined.add(parent_edge[u])

        if determined | {tail_edge} != set(self.edges):
            raise CertificationError("elimination program misses an edge")
        return SolvedPresentation(free_edges=free, steps=steps, tail=tail)

    def _tail_data(self, x0: int, partner: int) -> IdentityTail:
        # the identity triangle from base x0, so slot 0 carries the identity twist
        s0, s1, s2 = self._triangle_slots(x0)
        if s0.coset != x0 or s0.gamma != IDENTITY:
            raise CertificationError("identity triangle does not start at (0:1)")
        if s2.coset != partner or s1.coset in (x0, partner):
            raise CertificationError("identity triangle does not fold onto the tail")
        # v_{partner} = -v_{x0} | s_twist[x0]
        # relation: v_{x0} + v_w|g1^{-1} - v_{x0} | (s_twist g2^{-1}) = 0
        W = mat_mul(self.s_twist[x0], mat_inv(s2.gamma))
        if W[2] % self.M != 0 or W[2] != 0:
            raise UnsupportedLevel("tail twist is not upper triangular")
        if abs(W[0]) != 1 or abs(W[3]) != 1:
            raise UnsupportedLevel("tail twist is not unipotent up to sign")
        return IdentityTail(
            x0=x0,
            partner=partner,
            w_coset=s1.coset,
            gamma_w_inv=mat_inv(s1.gamma),
            W=W,
        )

    def _solve_triangle(self, tri: Triangle, target: int, determined: set[int]) -> ProgramStep:
        """Solve the triangle relation for the leader 'target'."""
        target_term: tuple[int, Mat2] | None = None
        other_terms: list[tuple[int, int, Mat2]] = []
        for s in tri.slots:
            ld, sign, twist = self.value_resolution(s.coset)
            m = mat_inv(s.gamma) if twist is None else mat_mul(twist, mat_inv(s.gamma))
            if ld == target:
                if target_term is not None:
                    raise CertificationError("folded triangle escaped detection")
                target_term = (sign, m)
            else:
                if ld not in determined:
                    raise CertificationError("elimination order broken")
                other_terms.append((ld, sign, m))
        if target_term is None:
            raise CertificationError("triangle does not contain its target edge")
        tsign, tmat = target_term
        tinv = mat_inv(tmat)
        terms = []
        for ld, sign, m in other_terms:
            terms.append((ld, -sign * tsign, mat_mul(m, tinv)))
        if not all(self.in_gamma0(m) for _, _, m in terms):
            raise CertificationError("solved triangle term left Gamma_0(M)")
        return ProgramStep(target=target, terms=tuple(terms))

    # path decomposition

    def hecke_plan(self, deltas: Sequence[Mat2]) -> list[list[tuple[int, int, Mat2]]]:
        """For each coset x: terms (y, sign, m) with the operator value at path x
        equal to sum sign * (v_y | m).

        The path of x is {g 0 -> g oo} = {oo -> a/c} - {oo -> b/d} for
        g = delta g_x = (a, b, c, d). Each piece of the cusp (a, c), sign +1,
        then of (b, d), sign -1, transports to gamma g_y and gives the term
        (y, sign, gamma^{-1} delta), in the Sigma_0 monoid when the deltas are.
        """
        plan: list[list[tuple[int, int, Mat2]]] = []
        for x in range(self.index):
            terms: list[tuple[int, int, Mat2]] = []
            for delta in deltas:
                a, b, c, d = mat_mul(delta, self.lifts[x])
                for cusp, sign in (((a, c), 1), ((b, d), -1)):
                    for piece in unimodular_pieces(*cusp):
                        y, gamma = self.transport(piece)
                        terms.append((y, sign, mat_mul(mat_inv(gamma), delta)))
            plan.append(terms)
        return plan


def unimodular_pieces(num: int, den: int) -> list[Mat2]:
    """Determinant-one matrices whose basic paths compose to {oo -> num/den};
    none for den = 0, the cusp oo.

    The floor quotients of Euclid's algorithm on (num, den) are those on
    (k num, k den) for every nonzero k, negative k included, so the pair
    need not be reduced.
    """
    # convergents p_i/q_i of the floor continued fraction, two at a time from
    # (p_-2, q_-2, p_-1, q_-1) = (0, 1, 1, 0); piece i has the columns
    # (p_i, q_i) and (p_{i-1}, q_{i-1}), signed to determinant one
    p0, q0, p1, q1 = 0, 1, 1, 0
    pieces = []
    while den:
        a = num // den
        num, den = den, num - a * den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        m = (p1, p0, q1, q0)
        if mat_det(m) == -1:
            m = (-p1, p0, -q1, q0)
        if mat_det(m) != 1:
            raise CertificationError("continued-fraction piece is not unimodular")
        pieces.append(m)
    return pieces
