"""Split root data, Weyl dot action, and standard parabolic combinatorics.

Weights live in the character lattice X = Z^rank, cocharacters in its dual,
and the pairing is the dot product. Only split data are supported: a datum
is (simple roots, simple coroots) with an integral Cartan matrix.
"""
from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import linalg
from .padics import CertificationError

Vector = tuple[int, ...]

class RootDatum:
    def __init__(self, name: str, rank: int, simple_roots: tuple[Vector, ...],
                 coroots: tuple[Vector, ...]):
        self.name, self.rank, self.simple_roots, self.coroots = name, rank, simple_roots, coroots
        if len(self.simple_roots) != len(self.coroots):
            raise ValueError("need one coroot per simple root")
        for v in self.simple_roots + self.coroots:
            if len(v) != self.rank:
                raise ValueError("root/coroot length must equal rank")
        k = len(self.simple_roots)
        for i in range(k):
            if self.pairing(self.simple_roots[i], self.coroots[i]) != 2:
                raise ValueError(f"<alpha_{i}, alpha_{i}^vee> must be 2")
            for j in range(k):
                if i != j and self.pairing(self.simple_roots[i], self.coroots[j]) > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
        if k and linalg.rank(self.simple_roots) != k:
            raise ValueError("simple roots must be linearly independent")
        cartan = [[self.pairing(a, cv) for cv in self.coroots] for a in self.simple_roots]
        if not _finite_type(cartan):
            raise ValueError(f"the Cartan matrix {cartan} is not of finite type")

    def _key(self) -> tuple:
        return self.name, self.rank, self.simple_roots, self.coroots

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return "RootDatum(name=%r, rank=%r, simple_roots=%r, coroots=%r)" % self._key()

    # basic pairings and actions

    @staticmethod
    def pairing(weight: Sequence[int], coweight: Sequence[int]) -> int:
        if len(weight) != len(coweight):
            raise ValueError("length mismatch in pairing")
        return sum(int(a) * int(b) for a, b in zip(weight, coweight))

    @property
    def nsimple(self) -> int:
        return len(self.simple_roots)

    def simple_indices(self) -> frozenset[int]:
        return frozenset(range(self.nsimple))

    def reflect(self, v: Sequence[int], i: int) -> Vector:
        """Simple reflection s_i on the character lattice."""
        n = self.pairing(v, self.coroots[i])
        return tuple(int(x) - n * a for x, a in zip(v, self.simple_roots[i]))

    def weyl_star(self, lam: Sequence[int], i: int) -> Vector:
        """Dot action of s_i: lambda - (<lambda, alpha_i^vee> + 1) alpha_i."""
        n = self.pairing(lam, self.coroots[i]) + 1
        return tuple(int(x) - n * a for x, a in zip(lam, self.simple_roots[i]))

    # positive roots

    def simple_coordinates(self, beta: Sequence[int]) -> tuple[Fraction, ...] | None:
        """Coordinates of beta in the simple-root basis, or None."""
        if not self.simple_roots:
            return None
        sol = linalg.solve(list(zip(*self.simple_roots)), beta)
        return tuple(sol) if sol is not None else None

    def _is_positive(self, beta: Vector) -> bool:
        coords = self.simple_coordinates(beta)
        if coords is None:
            return False
        return all(c >= 0 for c in coords) and any(c > 0 for c in coords)

    @cached_property
    def positive_roots(self) -> tuple[Vector, ...]:
        """Reflection closure of the simple roots, positivity-filtered.

        The datum is of finite type (checked on construction), so its root
        system is finite and the closure ends.
        """
        roots: set[Vector] = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            beta = frontier.pop()
            for i in range(self.nsimple):
                g = self.reflect(beta, i)
                if g in roots:
                    continue
                if self._is_positive(g):
                    roots.add(g)
                    frontier.append(g)
        return tuple(sorted(roots))

    @cached_property
    def rho(self) -> tuple[Fraction, ...]:
        """Half sum of the positive roots."""
        tot = [Fraction(0)] * self.rank
        for beta in self.positive_roots:
            for i, x in enumerate(beta):
                tot[i] += x
        return tuple(t / 2 for t in tot)

    # dominance

    def is_dominant(self, lam: Sequence[int]) -> bool:
        return all(self.pairing(lam, cv) >= 0 for cv in self.coroots)

    def is_regular_dominant(self, lam: Sequence[int]) -> bool:
        return all(self.pairing(lam, cv) > 0 for cv in self.coroots)

    # parabolic combinatorics; a standard parabolic is a set of simple indices

    def check_levi(self, levi: Iterable[int]) -> frozenset[int]:
        s = frozenset(levi)
        if not s <= self.simple_indices():
            raise ValueError("Levi subset out of range")
        return s

    def levi_positive_roots(self, levi: Iterable[int]) -> tuple[Vector, ...]:
        """Positive roots supported on the given simple-root subset."""
        s = self.check_levi(levi)
        out = []
        for beta in self.positive_roots:
            coords = self.simple_coordinates(beta)
            if coords is None:
                raise CertificationError(f"positive root {beta} is outside the root lattice")
            if all(c == 0 for i, c in enumerate(coords) if i not in s):
                out.append(beta)
        return tuple(out)

    def nonlevi_positive_roots(self, levi: Iterable[int]) -> tuple[Vector, ...]:
        inside = set(self.levi_positive_roots(levi))
        return tuple(b for b in self.positive_roots if b not in inside)

    def parabolic_chains(
        self, lower: Iterable[int], upper: Iterable[int] | None = None
    ) -> list[list[frozenset[int]]]:
        """All maximal chains of standard parabolics from lower to upper.

        Each chain adds one simple index at a time, so there are
        |upper - lower|! of them.
        """
        lo = self.check_levi(lower)
        hi = self.simple_indices() if upper is None else self.check_levi(upper)
        if not lo <= hi:
            raise ValueError("lower parabolic must be contained in upper")
        added = sorted(hi - lo)
        chains = []
        for perm in itertools.permutations(added):
            cur = set(lo)
            chain = [frozenset(cur)]
            for i in perm:
                cur.add(i)
                chain.append(frozenset(cur))
            chains.append(chain)
        return chains

    def weight_space_dim(self, levi: Iterable[int], center_dim: int = 0) -> int:
        """Dimension of the parahoric weight space for the parabolic Q.

        rank - |Delta_Q| counts the X*(T/center of L_Q)-directions; subtracting
        the dimension of a fixed central torus gives the disc dimension.
        """
        s = self.check_levi(levi)
        d = self.rank - len(s) - center_dim
        if d < 0:
            raise ValueError("center dimension too large")
        return d

    def describe(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "simple_roots": [list(v) for v in self.simple_roots],
            "coroots": [list(v) for v in self.coroots],
            "num_positive_roots": len(self.positive_roots),
        }


def _finite_type(cartan: list[list[int]]) -> bool:
    """Is the matrix a generalized Cartan matrix whose principal minors are
    all positive (Kac, Infinite-dimensional Lie algebras, Thm 4.3)?

    Such a matrix is symmetrizable: d_i a_ij = d_j a_ji for a positive D,
    fixed along the Dynkin graph, makes D A symmetric and positive definite,
    which Sylvester's criterion reads off the elimination pivots in O(k^3).
    """
    k = len(cartan)
    d: list[Fraction | None] = [None] * k
    for root in range(k):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(k):
                if cartan[i][j] and cartan[j][i] and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    stack.append(j)
    b = [[d[i] * cartan[i][j] for j in range(k)] for i in range(k)]
    if any(b[i][j] != b[j][i] for i in range(k) for j in range(i)):
        return False
    for c in range(k):
        if b[c][c] <= 0:
            return False
        for i in range(c + 1, k):
            f = b[i][c] / b[c][c]
            b[i] = [x - f * y for x, y in zip(b[i], b[c])]
    return True


# catalog

def gl_datum(n: int) -> RootDatum:
    """GL(n) with simple roots e_i - e_{i+1}; coroots look the same."""
    if n < 1:
        raise ValueError("n must be positive")
    roots = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    return RootDatum(name=f"GL{n}", rank=n, simple_roots=tuple(roots), coroots=tuple(roots))


def gsp4_datum() -> RootDatum:
    """GSp(4) with similitude character; weights are (k1, k2; c)."""
    a1, a2 = (1, -1, 0), (0, 2, -1)
    a1v, a2v = (1, -1, 0), (0, 1, 0)
    return RootDatum(name="GSp4", rank=3, simple_roots=(a1, a2), coroots=(a1v, a2v))


_GL_RE = re.compile(r"^GL(\d+)$", re.IGNORECASE)


def datum_by_name(name: str) -> RootDatum:
    m = _GL_RE.match(name.strip())
    if m:
        return gl_datum(int(m.group(1)))
    if name.strip().lower() == "gsp4":
        return gsp4_datum()
    raise ValueError(f"unknown group name: {name!r}")


def datum_from_json(text: str) -> RootDatum:
    """Load a custom datum from {'name','rank','simple_roots','coroots'}."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("root datum JSON must be an object")
    for key in ("name", "rank", "simple_roots", "coroots"):
        if key not in obj:
            raise ValueError(f"missing field {key!r} in root datum JSON")

    def vectors(key: str) -> tuple[Vector, ...]:
        vs = obj[key]
        if not (isinstance(vs, list) and all(
                isinstance(v, list) and all(type(x) is int for x in v) for v in vs)):
            raise ValueError(f"{key} must be a list of integer vectors")
        return tuple(tuple(v) for v in vs)

    if type(obj["rank"]) is not int:
        raise ValueError("rank must be an integer")
    return RootDatum(name=str(obj["name"]), rank=obj["rank"],
                     simple_roots=vectors("simple_roots"), coroots=vectors("coroots"))


def parse_levi(datum: RootDatum, text: str) -> frozenset[int]:
    """Parse a parabolic name: 'borel', 'full', 'siegel', 'klingen', or '0,1'."""
    t = text.strip().lower()
    if t in ("b", "borel", "none", "empty"):
        return frozenset()
    if t in ("g", "full", "all"):
        return datum.simple_indices()
    if datum.name == "GSp4":
        if t == "siegel":
            return frozenset({0})
        if t == "klingen":
            return frozenset({1})
    if re.fullmatch(r"\d+(,\d+)*", t):
        return datum.check_levi(int(x) for x in t.split(","))
    raise ValueError(f"cannot parse parabolic {text!r}")
