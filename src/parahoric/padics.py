"""p-adic valuations, Newton polygons, slope counting and Hensel lifting.

Arithmetic elsewhere in the package is exact: integers, Fractions and
residues mod p^K. valuation reads the p-adic valuation of an exact number;
NewtonPolygon carries a certification flag on every point, so a slope read
from a polygon says whether the stored precision determines it.
CertificationError is raised wherever an invariant behind certification
fails, under python -O as well.
"""
from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple, Sequence

INF = math.inf          # height of a zero coefficient in a Newton polygon
VAL_INF = 10**9         # valuation(0): an int, so residue arithmetic stays in ints


def default_precision() -> int:
    raw = os.environ.get("PARAHORIC_PRECISION", "20")
    try:
        m = int(raw)
    except ValueError as e:
        raise ValueError(f"PARAHORIC_PRECISION must be an integer, got {raw!r}") from e
    if m < 1:
        raise ValueError("PARAHORIC_PRECISION must be positive")
    return m


class AmbiguityError(ValueError):
    """The requested slope datum is not determined at the stored precision."""


class CertificationError(ArithmeticError):
    """An invariant behind a certified result failed; the result is not trusted."""


def valuation(x: int | Fraction, p: int) -> int:
    """p-adic valuation of an int or Fraction; VAL_INF for 0."""
    if x == 0:
        return VAL_INF
    n, d = x.numerator, x.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


# Newton polygons

class PolygonPoint(NamedTuple):
    index: int
    height: object          # int/Fraction, or a lower bound if not certified
    certified: bool


class Segment(NamedTuple):
    start: tuple[int, object]
    end: tuple[int, object]
    slope: Fraction
    length: int             # horizontal run = number of roots
    certified: bool


class NewtonPolygon:
    """Lower convex hull of (index, valuation) with certification flags.

    Uncertified points enter at their minimal possible height; a segment is
    certified only if both defining vertices are certified points.
    """

    def __init__(self, points: Sequence[PolygonPoint]):
        finite = sorted((p for p in points if p.height != INF), key=lambda q: q.index)
        self.points = tuple(finite)
        self.all_points = tuple(sorted(points, key=lambda q: q.index))
        self.notes: list[str] = []
        if len(finite) < 2:
            self.vertices: tuple[PolygonPoint, ...] = tuple(finite)
            self.segments: tuple[Segment, ...] = ()
            if not finite:
                self.notes.append("no finite coefficients; polygon is empty")
            else:
                self.notes.append("single finite coefficient; no segments")
            return
        hull: list[PolygonPoint] = []
        for q in finite:
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                lhs = (Fraction(b.height) - Fraction(a.height)) * (q.index - a.index)
                rhs = (Fraction(q.height) - Fraction(a.height)) * (b.index - a.index)
                if lhs >= rhs:
                    hull.pop()
                else:
                    break
            hull.append(q)
        self.vertices = tuple(hull)
        segs = []
        for a, b in zip(hull, hull[1:]):
            segs.append(
                Segment(
                    start=(a.index, a.height),
                    end=(b.index, b.height),
                    slope=(Fraction(b.height) - Fraction(a.height)) / (b.index - a.index),
                    length=b.index - a.index,
                    certified=a.certified and b.certified,
                )
            )
        self.segments = tuple(segs)

    @classmethod
    def from_valuations(cls, vals: Sequence, certified: Sequence[bool] | None = None) -> "NewtonPolygon":
        pts = []
        for i, v in enumerate(vals):
            c = True if certified is None else bool(certified[i])
            pts.append(PolygonPoint(i, v, c))
        return cls(pts)

    def slopes(self) -> list[tuple[Fraction, int]]:
        """(slope, multiplicity) pairs, ascending; convexity gives ascent."""
        return [(s.slope, s.length) for s in self.segments]

    def root_valuations(self) -> list[tuple[Fraction, int]]:
        """Root valuations of the underlying polynomial: negatives of slopes."""
        return [(-s.slope, s.length) for s in reversed(self.segments)]

    def certified_slopes(self) -> list[tuple[Fraction, int]]:
        out = []
        for s in self.segments:
            if not s.certified:
                break
            out.append((s.slope, s.length))
        return out

    def slope_le_count(self, h) -> int:
        """Number of slopes <= h counted with multiplicity.

        Raises AmbiguityError when an uncertified segment could hide slopes
        below the cutoff.
        """
        h = Fraction(h)
        count = 0
        for s in self.segments:
            if s.slope <= h:
                if not s.certified:
                    raise AmbiguityError(
                        f"segment of slope {s.slope} is not certified at this precision"
                    )
                count += s.length
            else:
                break
        return count

    def as_dict(self) -> dict:
        return {
            "vertices": [[v.index, str(v.height)] for v in self.vertices],
            "slopes": [[str(sl), m] for sl, m in self.slopes()],
            "certified": [s.certified for s in self.segments],
            "notes": list(self.notes),
        }


def newton_polygon_of_poly(coeffs: Sequence, p: int) -> NewtonPolygon:
    """Polygon of an exact integer/rational polynomial sum a_i X^i."""
    pts = []
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            pts.append(PolygonPoint(i, INF, True))
        else:
            pts.append(PolygonPoint(i, valuation(c, p), True))
    return NewtonPolygon(pts)


def hensel_lift_root(coeffs: Sequence[int], p: int, r0: int, prec: int) -> int:
    """Lift a simple root mod p to a root mod p^prec by Newton iteration.

    coeffs are integers (ascending). Requires f(r0) = 0 and f'(r0) != 0 mod p.
    """

    def f(x: int, mod: int) -> int:
        tot = 0
        for c in reversed(coeffs):
            tot = (tot * x + c) % mod
        return tot

    def fprime(x: int, mod: int) -> int:
        tot = 0
        for i in range(len(coeffs) - 1, 0, -1):
            tot = (tot * x + i * coeffs[i]) % mod
        return tot

    if f(r0, p) % p != 0:
        raise ValueError("r0 is not a root mod p")
    if fprime(r0, p) % p == 0:
        raise ValueError("root is not simple mod p; Hensel lifting does not apply")
    r = r0 % p
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p ** k
        r = (r - f(r, mod) * pow(fprime(r, mod), -1, mod)) % mod
    if f(r, p**prec):
        raise CertificationError("Hensel iterate is not a root mod p^prec")
    return r % p**prec

