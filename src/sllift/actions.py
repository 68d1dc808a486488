"""Distances on affine and projective space mod q under SL_n(Z).

Points are primitive vectors mod q (affine) or their unit-scaling classes
(projective); the distance between two points is the smallest max norm of an
integer unimodular matrix carrying one to the other.  All scans walk the
matrices shell by shell (exact max norm m = 1, 2, ...), each shell built
once per process by oracle.iter_shell in iter_sl order and stored by row
position, so the first hit is the minimum.  A shell is classified in one
pass of C-level iterators: the images gamma * x are zipped from one map per
row position over a memo of <row, x> mod q kept for one scan (the matrices
of a scan share few distinct rows, so each dot product is taken once).  A
distance takes the index of the first image in the target's unit orbit and
rebuilds its witness from it; a profile maps the images to points through
one dict built per call, in blocks of one image per point, and keeps the
new points of each block.  Norms are stored exactly; logarithms are
presentation only.

A profile walks one source per orbit of the signed permutation matrices P
and counts its norms once per orbit member.  That is exact: gamma ->
P gamma P^-1 keeps SL_n(Z) and the max norm and carries gamma x = y to
(P gamma P^-1)(P x) = P y (up to a unit in projective space, which P
commutes with), so the first-hit norms from P x are those from x, target
for target.  A profile reads only the sorted multiset of norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import compress, count, islice, permutations, product
from operator import mul

from .errors import BudgetExceeded, InvalidInput
from .oracle import iter_shell

def units_mod(q: int) -> tuple[int, ...]:
    return tuple(u for u in range(q) if math.gcd(u, q) == 1)


def canonical_rep(coords, q: int) -> tuple[int, ...]:
    """Lexicographically least element of the unit-scaling orbit of coords."""
    coords = tuple(c % q for c in coords)
    return min(tuple(u * c % q for c in coords) for u in units_mod(q))


def _primitive(q: int, coords) -> tuple[int, ...]:
    """coords reduced mod q; raises InvalidInput unless primitive mod q >= 1."""
    if q < 1:
        raise InvalidInput(f"need q >= 1, got {q}")
    coords = tuple(int(c) % q for c in coords)
    if math.gcd(q, *coords) != 1:
        raise InvalidInput(f"{coords} is not primitive mod {q}")
    return coords


@dataclass(frozen=True)
class PointA:
    """Primitive vector mod q (affine point), stored as canonical residues."""

    q: int
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _primitive(self.q, self.coords))


@dataclass(frozen=True)
class PointP:
    """Projective point mod q: the unit-scaling orbit, stored canonically."""

    q: int
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", canonical_rep(_primitive(self.q, self.coords), self.q))


@dataclass(frozen=True)
class DistanceRecord:
    """Outcome of a minimal-norm scan between two points.

    min_max_norm is None when no witness exists within searched_up_to;
    log_q_exponent is log(min_max_norm) / log(q), derived, never asserted.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    q: int
    min_max_norm: int | None
    witness: tuple[tuple[int, ...], ...] | None
    searched_up_to: int
    log_q_exponent: float | None


@cache
def _shell(n: int, m: int) -> tuple:
    """All SL_n(Z) matrices with max norm exactly m, in iter_sl order, stored
    by row position: entry k holds row k of every matrix.

    Kept per process: every scan walks the shells from m = 1 again."""
    return tuple(zip(*iter_shell(n, m)))


class _RowImages(dict):
    """row -> <row, coords> mod q, each taken on first lookup and kept for one
    scan: shells share rows, so every distinct row costs one dot product."""

    def __init__(self, coords, q):
        self.coords, self.q = coords, q

    def __missing__(self, row):
        image = self[row] = sum(map(mul, row, self.coords)) % self.q
        return image


def _images(images: _RowImages, shell):
    """gamma * coords for every gamma of a by-row shell (_shell), in shell
    order, each a tuple read from the memo images."""
    return zip(*[map(images.__getitem__, rows) for rows in shell])


def _exponent(v: int, q: int) -> float:
    return 0.0 if v == 1 else math.log(v) / math.log(q)


def _dist(x, y, t_max, targets) -> DistanceRecord:
    """First hit of gamma * x in targets, the coordinates of y's class."""
    if x.q != y.q or len(x.coords) != len(y.coords):
        raise InvalidInput("points live in different spaces")
    images = _RowImages(x.coords, x.q)
    for m in range(1, t_max + 1):
        shell = _shell(len(x.coords), m)
        hit = next(compress(count(), map(targets.__contains__, _images(images, shell))), None)
        if hit is not None:
            witness = tuple(rows[hit] for rows in shell)
            return DistanceRecord(x.coords, y.coords, x.q, m, witness, t_max, _exponent(m, x.q))
    return DistanceRecord(x.coords, y.coords, x.q, None, None, t_max, None)


def dist_affine(x: PointA, y: PointA, t_max: int) -> DistanceRecord:
    """Minimal max norm of gamma in SL_n(Z) with gamma * x = y mod q."""
    return _dist(x, y, t_max, {y.coords})


def dist_projective(x: PointP, y: PointP, t_max: int) -> DistanceRecord:
    """Minimal max norm of gamma with gamma * x = u * y mod q for a unit u."""
    return _dist(x, y, t_max, {tuple(u * c % y.q for c in y.coords) for u in units_mod(y.q)})


def affine_points(n: int, q: int) -> list[tuple[int, ...]]:
    """All primitive vectors mod q, lexicographically ordered."""
    return [t for t in product(range(q), repeat=n) if math.gcd(q, *t) == 1]


def projective_points(n: int, q: int) -> list[tuple[int, ...]]:
    """Canonical representatives of the unit-scaling classes, ordered."""
    return sorted({canonical_rep(t, q) for t in affine_points(n, q)})


def _signed_permutations(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The 2^n n! signed permutation matrices, as row tuples."""
    return [
        tuple(tuple(s if j == i else 0 for j in range(n)) for i, s in zip(perm, signs))
        for perm in permutations(range(n))
        for signs in product((1, -1), repeat=n)
    ]


def _first_norms(images: _RowImages, point_of: dict, size: int, n: int, t_max: int) -> dict:
    """point -> least m whose shell carries the scan's source to it, over the
    shells m = 1..t_max.  Each shell is classified in blocks of size images
    (size = the number of points), and the walk stops after the first block
    that completes the points: a point's norm is that of the first shell
    that reaches it, so stopping anywhere after that changes nothing."""
    found: dict[tuple[int, ...], int] = {}
    for m in range(1, t_max + 1):
        reached = map(point_of.__getitem__, _images(images, _shell(n, m)))
        while block := set(islice(reached, size)):
            found.update(dict.fromkeys(block.difference(found), m))
            if len(found) == size:
                return found
    return found


def _all_distances(space: str, n: int, q: int, t_max: int):
    """The points, and the multiset of min norms over all ordered pairs.

    Only the sorted-first point of each signed-permutation orbit is walked;
    its norms count once per orbit member (see the module docstring).
    """
    point_of = {v: canonical_rep(v, q) if space == "P" else v for v in affine_points(n, q)}
    points = sorted(set(point_of.values()))
    symmetries = _signed_permutations(n)
    walked: set[tuple[int, ...]] = set()
    norms = []
    for src in points:
        if src in walked:
            continue
        images = _RowImages(src, q)
        orbit = {point_of[tuple(map(images.__getitem__, p))] for p in symmetries}
        walked |= orbit
        found = _first_norms(images, point_of, len(points), n, t_max)
        if len(found) < len(points):
            missing = next(p for p in points if p not in found)
            raise BudgetExceeded(f"pair ({src}, {missing}) unresolved within norm {t_max}")
        norms.extend(list(found.values()) * len(orbit))
    return points, norms


def diameter_profile(space: str, n: int, q: int, t_max: int) -> dict:
    """Exact max and quantiles of the pairwise min norms, with exponents.

    Quantile p is the smallest norm covering at least p of all ordered
    pairs (source = target pairs included, at norm 1).
    """
    if space not in ("A", "P"):
        raise InvalidInput("space must be 'A' or 'P'")
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    if q < 2:
        raise InvalidInput(f"need q >= 2, got {q}")
    if space == "A" and n == 1 and q > 2:  # phi(q) >= 2 points, and no norm joins two
        raise InvalidInput(f"SL_1(Z) = {{1}} fixes every point, so the affine line mod {q} has no diameter")
    points, norms = _all_distances(space, n, q, t_max)
    values = sorted(norms)
    total = len(values)

    def quantile(p: float) -> int:
        return values[min(total - 1, max(0, math.ceil(p * total) - 1))]

    diameter = values[-1]
    quants = {"50": quantile(0.50), "90": quantile(0.90), "99": quantile(0.99)}
    return {
        "space": space,
        "n": n,
        "q": q,
        "size": len(points),
        "pairs": total,
        "diameter_norm": diameter,
        "quantile_norms": quants,
        "exponents": {
            "diameter": _exponent(diameter, q),
            **{k: _exponent(v, q) for k, v in quants.items()},
        },
    }


def projective_bad_pair(q: int) -> DistanceRecord:
    """Scan e = (1, 0) against (1, q/2) in the projective plane mod even q,
    up to norm 8q.

    Unit scaling fixes the second coordinate q/2, so every witness must
    carry an entry of size at least q/2; the record measures how tight
    that is.
    """
    if q < 2 or q % 2 != 0:
        raise InvalidInput(f"need even q >= 2, got {q}")
    return dist_projective(PointP(q, (1, 0)), PointP(q, (1, q // 2)), 8 * q)
