"""Distances on affine and projective space mod q under SL_n(Z).

Points are primitive vectors mod q (affine) or their unit-scaling classes
(projective); the distance between two points is the smallest max norm of an
integer unimodular matrix carrying one to the other.  All scans walk the
matrices shell by shell (exact max norm m = 1, 2, ...), each shell built
once per process by oracle.iter_shell in iter_sl order, so the first hit is
the minimum.  A shell is stored by row position as integer row ids, from a
registry per n that numbers each row when its shell is first built.  A scan
keeps one list of row images <row, x> mod q, by id, extended before each
shell by one comprehension over the rows registered since the last, so each
dot product is taken once per scan.  Each matrix's image gamma * x is then
read as the integer code sum_k image_k q^(n-1-k) in one pass of C-level
iterators over the shell's ids.  A distance takes the index of the first
code among the codes of the target's unit orbit and decodes its witness
through the registry; a profile maps the codes to the codes of points
through one dict built per call, in blocks of one image per point, and
keeps the new points of each block.  Norms are stored exactly; logarithms
are presentation only.

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
from itertools import compress, count, islice, permutations, product, repeat
from operator import add, mul

from .errors import BudgetExceeded, InvalidInput, as_int, as_ints
from .oracle import iter_shell


def units_mod(q: int) -> tuple[int, ...]:
    return tuple(u for u in range(q) if math.gcd(u, q) == 1)


def _orbit(coords, q: int, units) -> list[tuple[int, ...]]:
    """u * coords mod q for each u in units, in order."""
    return [tuple(u * c % q for c in coords) for u in units]


def canonical_rep(coords, q: int) -> tuple[int, ...]:
    """Lexicographically least element of the unit-scaling orbit of coords."""
    q = as_int(q, 1, "q")
    return min(_orbit(as_ints(coords), q, units_mod(q)))


def _classes(n: int, q: int) -> dict:
    """affine point -> its canonical_rep, each unit orbit built once for all
    its members."""
    units, classes = units_mod(q), {}
    for v in affine_points(n, q):
        if v not in classes:
            orbit = _orbit(v, q, units)
            classes.update(dict.fromkeys(orbit, min(orbit)))
    return classes


def _primitive(q: int, coords) -> tuple[int, tuple[int, ...]]:
    """(q, coords reduced mod q); raises InvalidInput unless all are integers
    (as_int, as_ints) and coords is primitive mod q >= 1."""
    q = as_int(q, 1, "q")
    coords = tuple(c % q for c in as_ints(coords))
    if math.gcd(q, *coords) != 1:
        raise InvalidInput(f"{coords} is not primitive mod {q}")
    return q, coords


@dataclass(frozen=True)
class PointA:
    """Primitive vector mod q (affine point), stored as canonical residues."""

    q: int
    coords: tuple[int, ...]

    def __post_init__(self):
        q, coords = _primitive(self.q, self.coords)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True)
class PointP:
    """Projective point mod q: the unit-scaling orbit, stored canonically."""

    q: int
    coords: tuple[int, ...]

    def __post_init__(self):
        q, coords = _primitive(self.q, self.coords)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coords", canonical_rep(coords, q))


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


class _RowIds(dict):
    """row -> id for every row of the n x n shells built so far, the ids
    given in the order the rows are first met; rows[id] is the row."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def __missing__(self, row):
        self.rows.append(row)
        id_ = self[row] = len(self.rows) - 1
        return id_


@cache
def _row_ids(n: int) -> _RowIds:
    """The registry of n x n rows, kept per process with the shells."""
    return _RowIds()


@cache
def _shell(n: int, m: int) -> tuple:
    """All SL_n(Z) matrices with max norm exactly m, in iter_sl order, as
    (positions, size): positions[k] holds the id of row k of every matrix,
    and size is the registry's length once the shell's rows are in it.

    Kept per process: every scan walks the shells from m = 1 again."""
    ids = _row_ids(n)
    positions = tuple(tuple(map(ids.__getitem__, rows)) for rows in zip(*iter_shell(n, m)))
    return positions or ((),) * n, len(ids.rows)  # an empty shell keeps its n positions


def _code(v, q: int) -> int:
    """sum v_k q^(n-1-k): a vector of residues mod q as one integer, which
    orders vectors as their tuples do."""
    code = 0
    for c in v:
        code = code * q + c
    return code


def _dots(rows, x, q: int) -> list[int]:
    """<row, x> mod q for each row."""
    if len(x) == 2:  # the plane, unpacked: about 4x the generic comprehension
        a, b = x
        return [(r * a + s * b) % q for r, s in rows]
    return [sum(map(mul, row, x)) % q for row in rows]


class _Scan:
    """gamma * x mod q, as codes (_code), for the matrices of the shells, for
    one source x.  images[i] is <rows[i], x> mod q; before each shell the
    list is extended over the rows registered since the last, so each row's
    dot product is taken once per scan."""

    def __init__(self, x, q: int):
        self.x, self.q, self.rows = x, q, _row_ids(len(x)).rows
        self.images = []

    def codes(self, shell):
        """The code of gamma * x for every gamma of a shell (_shell), in
        order, read position by position in Horner's scheme."""
        positions, size = shell
        images = self.images
        if size > len(images):
            images += _dots(self.rows[len(images) : size], self.x, self.q)
        codes = map(images.__getitem__, positions[0])
        for ids in positions[1:]:
            codes = map(add, map(mul, codes, repeat(self.q)), map(images.__getitem__, ids))
        return codes


def _exponent(v: int, q: int) -> float:
    return 0.0 if v == 1 else math.log(v) / math.log(q)


def _dist(x, y, t_max, targets) -> DistanceRecord:
    """First hit of gamma * x in targets, the codes of y's class."""
    if x.q != y.q or len(x.coords) != len(y.coords):
        raise InvalidInput("points live in different spaces")
    t_max = as_int(t_max, 0, "t_max")
    scan = _Scan(x.coords, x.q)
    for m in range(1, t_max + 1):
        shell = _shell(len(x.coords), m)
        hit = next(compress(count(), map(targets.__contains__, scan.codes(shell))), None)
        if hit is not None:
            witness = tuple(scan.rows[ids[hit]] for ids in shell[0])
            return DistanceRecord(x.coords, y.coords, x.q, m, witness, t_max, _exponent(m, x.q))
    return DistanceRecord(x.coords, y.coords, x.q, None, None, t_max, None)


def dist_affine(x: PointA, y: PointA, t_max: int) -> DistanceRecord:
    """Minimal max norm of gamma in SL_n(Z) with gamma * x = y mod q."""
    return _dist(x, y, t_max, {_code(y.coords, y.q)})


def dist_projective(x: PointP, y: PointP, t_max: int) -> DistanceRecord:
    """Minimal max norm of gamma with gamma * x = u * y mod q for a unit u."""
    return _dist(x, y, t_max, {_code(v, y.q) for v in _orbit(y.coords, y.q, units_mod(y.q))})


def affine_points(n: int, q: int) -> list[tuple[int, ...]]:
    """All primitive vectors mod q, lexicographically ordered."""
    return [t for t in product(range(q), repeat=n) if math.gcd(q, *t) == 1]


def projective_points(n: int, q: int) -> list[tuple[int, ...]]:
    """Canonical representatives of the unit-scaling classes, ordered."""
    return sorted(set(_classes(n, q).values()))


def _first_norms(scan: _Scan, point_of: dict, size: int, n: int, t_max: int) -> dict:
    """point -> least m whose shell carries the scan's source to it, over the
    shells m = 1..t_max, points by code.  Each shell is classified in blocks
    of size images (size = the number of points), and the walk stops after
    the first block that completes the points: a point's norm is that of the
    first shell that reaches it, so stopping anywhere after that changes
    nothing."""
    found: dict[int, int] = {}
    for m in range(1, t_max + 1):
        reached = map(point_of.__getitem__, scan.codes(_shell(n, m)))
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
    classes = _classes(n, q) if space == "P" else {v: v for v in affine_points(n, q)}
    points = sorted(set(classes.values()))
    point_of = {_code(v, q): _code(p, q) for v, p in classes.items()}
    # the 2^n n! signed permutations P, as (P x)_k = signs[k] * x[perm[k]]
    symmetries = list(product(permutations(range(n)), product((1, -1), repeat=n)))
    walked: set[int] = set()
    norms = []
    for src in points:
        if _code(src, q) in walked:
            continue
        orbit = {point_of[_code([s * src[j] % q for j, s in zip(perm, signs)], q)] for perm, signs in symmetries}
        walked |= orbit
        found = _first_norms(_Scan(src, q), point_of, len(points), n, t_max)
        if len(found) < len(points):
            missing = next(p for p in points if _code(p, q) not in found)
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
    n, q, t_max = as_int(n, 1, "n"), as_int(q, 2, "q"), as_int(t_max, 0, "t_max")
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
    q = as_int(q, 2, "q")
    if q % 2:
        raise InvalidInput(f"need even q, got {q}")
    return dist_projective(PointP(q, (1, 0)), PointP(q, (1, q // 2)), 8 * q)
