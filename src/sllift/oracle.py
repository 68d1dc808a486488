"""Exact exhaustive enumeration over bounded-height SL_n(Z).

Counts, minimal-norm congruence lifts, and growth tables, all ground truth:
partial scans raise rather than return wrong numbers.

Enumeration contract: every entry is fixed except the last two of the last
row.  With c the maximal minors of the first n - 1 rows, those two satisfy
c_{n-1} v_{n-1} + c_n v_n = 1 - <head, c>, where head is the rest of the
last row: a two-variable linear Diophantine equation, solved exactly on the
two residue ladders from one solution line (_line, one extended gcd) per c,
as only the right-hand side depends on head.  Its solutions are none, one
arithmetic progression, or the full grid when both cofactors vanish, always
in ascending (v_{n-1}, v_n) order, so matrices come out in lexicographic
row-major order.
The cofactors are linear in row n - 1: c = K(P) r, with P the first n - 2
rows and r row n - 1.  The walk builds the map K once per prefix P (n
maximal_minors calls) and gets each r's c from n dot products.  Two cases
build no map: at n = 3, c is the cross product of the first row and r,
written out, and at n = 2 the prefix is empty and c = (-r_1, r_0).
Entries constrained mod q range over their residue ladders x_ij + qZ
intersected with [-cap, cap].

Without a congruence (q = 0), counts use the symmetry gamma -> D gamma P,
where P is a signed column permutation and D negates the last row when
det P = -1.  It keeps det 1 and every row's cap, so only primitive, sorted,
non-negative first rows are enumerated, each weighted by its orbit size.
At n = 2 that reduction leaves closed forms, used instead of the walk:
count_sl takes 4 + 16 times the coprime pairs in [1, t1] x [1, t2], summed
by Moebius inversion; norm_count_table (t1 = t2) reads every threshold off
a totient prefix.  One cached sieve gives both mu and that prefix, at the
power of two above the threshold, and at least 256 (docs/decisions.md).

At n >= 3 a count needs only how many last rows complete each c, so
count_sl sums weight * H(c), with H(c) the number of last rows v in the
ladders with <v, c> = 1, memoised within the call.  _hits reads the same
_line per c and adds each head's span on it, listing no solution.
At q = 0 the last row's box is invariant under signed permutations of its
entries, so H is keyed by sorted |c|; and (prefix, r, v) -> (prefix, -r, -v)
keeps det 1 and every box, so row n - 1 runs over the half of its box
after the zero row, with twice the weight.  norm_count_table at n >= 3 is
one such count per threshold.  The walk stays the reference the tests
compare counts against.

A norm shell (max norm exactly m, q = 0) at n = 2 is built from its face,
the primitive rows with an entry +-m: each is a first row completed by any
second row in the box, or a second row under a first row strictly inside
it, two _solve2 calls per face row, and the shell is sorted into iter_sl
order (docs/decisions.md).  At every other n it is iter_sl at cap m,
filtered to the matrices with an entry +-m (iter_shell).

A minimal lift norm doubles a cap from the least value every entry
reaches, and walks each cap once for its least lift (_least_lift):
primitive first rows come in increasing max norm, each is completed in
ladders cut below the best lift found, and the walk stops at the first
row whose norm reaches it.  So the first cap with a lift gives the exact
minimum (docs/decisions.md).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, combinations_with_replacement, product
from operator import mul

from . import intmat
from .errors import BudgetExceeded, InvalidInput
from .intmat import IntMatrix
from .residue import ext_gcd, small_primes

DEFAULT_BUDGET = 10**9


def current_budget() -> int:
    """Effective candidate budget; SLLIFT_BUDGET overrides the default."""
    env = os.environ.get("SLLIFT_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env, 10)
    except ValueError:
        budget = None
    if budget is None or budget < 0:
        raise InvalidInput(f"SLLIFT_BUDGET must be a non-negative decimal integer, got {env!r}")
    return budget


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: dimension, per-row caps, optional congruence."""

    n: int
    caps: tuple[int, ...]
    q: int = 0
    x: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput(f"need n >= 1, got {self.n}")
        caps = tuple(int(c) for c in self.caps)
        if len(caps) != self.n or any(c < 1 for c in caps):
            raise InvalidInput(f"need {self.n} positive caps, got {self.caps}")
        object.__setattr__(self, "caps", caps)
        if self.q < 0:
            raise InvalidInput(f"need q >= 0, got {self.q}")
        if (self.q > 0) != (self.x is not None):
            raise InvalidInput("congruence needs both q > 0 and a target x")
        if self.x is not None:
            rows = self.x.rows if isinstance(self.x, IntMatrix) else self.x
            rows = tuple(tuple(int(v) % self.q for v in r) for r in rows)
            if len(rows) != self.n or any(len(r) != self.n for r in rows):
                raise InvalidInput("target x must be n x n")
            if intmat.det(IntMatrix(rows)) % self.q != 1 % self.q:
                raise InvalidInput("target x must have det = 1 mod q")
            object.__setattr__(self, "x", rows)


def _ladder(center: int, q: int, cap: int) -> range:
    """Integers congruent to center mod q (all integers if q = 0) in [-cap, cap]."""
    if q == 0:
        return range(-cap, cap + 1)
    first = -cap + ((center + cap) % q)
    return range(first, cap + 1, q)


def _ladders(spec: EnumSpec):
    return [
        [
            _ladder(spec.x[i][j] if spec.q else 0, spec.q, spec.caps[i])
            for j in range(spec.n)
        ]
        for i in range(spec.n)
    ]


def _ladder_size(lad: range) -> int:
    """len(lad) for steps >= 1, exact at sizes beyond len()'s C ssize_t range."""
    return max(0, (lad.stop - lad.start + lad.step - 1) // lad.step)


def _fixed_parts(lads) -> int:
    """Number of fixed parts the kernel walks in the ladders lads: the product
    of the ladder sizes of every entry except the last two of the last row,
    which it solves."""
    return math.prod(map(_ladder_size, chain(*lads[:-1], lads[-1][:-2])))


def candidate_count(spec: EnumSpec) -> int:
    """Number of fixed parts the kernel walks for spec (_fixed_parts)."""
    return _fixed_parts(_ladders(spec))


def _check_size(size: int) -> None:
    limit = current_budget()
    if size > limit:
        raise BudgetExceeded(f"candidate space {size} exceeds budget {limit}")


def _check_budget(spec: EnumSpec) -> None:
    _check_size(candidate_count(spec))


def _cofactor_map(prefix) -> tuple[tuple[int, ...], ...]:
    """Rows of K with K r = maximal_minors(prefix + (r,)) for every row r.

    Those cofactors are linear in r, so column k of K is the cofactor vector
    of prefix + (e_k,): one maximal_minors call per column.
    """
    units = IntMatrix.identity(len(prefix) + 2).rows
    return tuple(zip(*(intmat.maximal_minors(IntMatrix(prefix + (e,))) for e in units)))


def _line(a: int, b: int, lad1: range, lad2: range):
    """The solution line of a*u + b*v = r on lad1 x lad2, for every r at once.

    Returns None when a scaled coefficient A = a * lad1.step or
    B = b * lad2.step is 0, else (lad2, base, g, s, t, p, w): with i and j
    the indices of u in lad1 and v in the returned lad2, and k = (r - base) / g,
    the solutions are (i, j) = (s*k + p*m, t*k + w*m) for integer m, none
    unless g divides r - base.  lad2 comes back reversed when A and B have
    the same sign, so that the steps p and w are both positive: u and v then
    both move forward along their ladders as m grows.
    """
    A, B = a * lad1.step, b * lad2.step
    if A == 0 or B == 0:
        return None
    if (A > 0) == (B > 0):
        lad2, B = lad2[::-1], -B
    g, s, t = ext_gcd(A, B)
    return lad2, a * lad1.start + b * lad2.start, g, s, t, abs(B) // g, abs(A) // g


def _solve2(a: int, b: int, r: int, lad1: range, lad2: range, line=None):
    """Pairs (u, v) in lad1 x lad2 with a*u + b*v = r, in ascending order.

    Returns None, or (grid, (us, vs)) with non-empty ranges us and vs: the
    pairs are product(us, vs) when grid is true and zip(us, vs) otherwise.
    Off the axes the pairs are the span of _line's solution line inside the
    box, sliced out of the ladders; a caller that varies only r may pass
    that line, _line(a, b, lad1, lad2), to skip recomputing it.
    """
    if not lad1 or not lad2:
        return None
    if (line := line or _line(a, b, lad1, lad2)) is None:  # a or b scales to 0
        r -= a * lad1.start + b * lad2.start
        a *= lad1.step
        b *= lad2.step
        if a == b == 0:
            return (True, (lad1, lad2)) if r == 0 else None
        k, rem = divmod(r, a or b)
        if rem or not 0 <= k < len(lad1 if a else lad2):
            return None
        return True, ((lad1[k : k + 1], lad2) if a else (lad1, lad2[k : k + 1]))
    lad2, base, g, s, t, p, w = line
    k, rem = divmod(r - base, g)
    if rem:
        return None
    i, j = s * k, t * k
    lo = max(-(i // p), -(j // w))
    hi = min((len(lad1) - 1 - i) // p, (len(lad2) - 1 - j) // w)
    if lo > hi:
        return None
    return False, (lad1[i + p * lo : i + p * hi + 1 : p], lad2[j + w * lo : j + w * hi + 1 : w])


def _pairs(solution):
    """The pairs of a _solve2 result, ascending; none for None."""
    if not solution:
        return ()
    grid, axes = solution
    return product(*axes) if grid else zip(*axes)


def _size(solution) -> int:
    grid, axes = solution
    return math.prod(map(len, axes)) if grid else len(axes[0])


def _orbit_size(row) -> int:
    """Number of distinct signed permutations of a sorted non-negative row."""
    size = math.factorial(len(row)) << sum(1 for v in row if v)
    for v in set(row):
        size //= math.factorial(row.count(v))
    return size


def _first_rows(lads, weighted: bool = False):
    """(weight, row) for every primitive first row, in lexicographic order
    with weight 1, unless weighted (q = 0 only): then over orbit
    representatives, weighted by orbit size.  A generator, so a walk that
    stops at its first hit builds no more rows than it reads."""
    if weighted:  # the first row's ladders are range(-cap, cap + 1)
        firsts = combinations_with_replacement(range(lads[0][0].stop), len(lads))
        return ((_orbit_size(f), f) for f in firsts if math.gcd(*f) == 1)
    return ((1, f) for f in product(*lads[0]) if math.gcd(*f) == 1)


def _cofactors(lads, weighted: bool = False):
    """(weight, rows, c) for the first n - 1 rows of every matrix walked in
    the ladders lads (n >= 2), with c their cofactor vector:
    det(rows + (v,)) = <v, c>.  The first row runs over _first_rows; at
    n = 2 it is all of rows, and c = (-r_1, r_0) needs no map; at n = 3,
    c is the cross product first x r, written out; above, c = K r with K
    the prefix's _cofactor_map.

    When weighted (q = 0) at n >= 3, row n - 1 runs over the half of its
    box after the zero row, with twice the weight: the map
    (prefix, r, v) -> (prefix, -r, -v) keeps det = 1 and the symmetric
    boxes, product order puts -r at the mirrored index, and r = 0 gives
    c = 0, which no last row completes."""
    n = len(lads)
    if n == 2:
        for weight, r in _first_rows(lads, weighted):
            yield weight, (r,), (-r[1], r[0])
        return
    lasts, double = list(product(*lads[n - 2])), 1
    if weighted:
        lasts, double = lasts[len(lasts) // 2 + 1 :], 2
    if n == 3:
        for weight, first in _first_rows(lads, weighted):
            a0, a1, a2 = first
            weight *= double
            for r in lasts:
                r0, r1, r2 = r
                yield weight, (first, r), (a1 * r2 - a2 * r1, a2 * r0 - a0 * r2, a0 * r1 - a1 * r0)
        return
    middle = [list(product(*lads[i])) for i in range(1, n - 2)]
    for weight, first in _first_rows(lads, weighted):
        weight *= double
        for rest in product(*middle):
            prefix = (first,) + rest
            k = _cofactor_map(prefix)
            for r in lasts:
                yield weight, prefix + (r,), tuple(sum(map(mul, row, r)) for row in k)


def _hits(c, last) -> int:
    """H(c): the number of last rows v in the ladders last with <v, c> = 1,
    the total size of the solutions _walk lists under c, without listing them.

    Each head adds the length hi - lo + 1 of its span on the one _line of
    the last two entries, as _solve2 clips it.  When a scaled coefficient
    of the last two entries is 0, each head's _solve2 result is sized instead.
    """
    a, b, lad1 = c[-2], c[-1], last[-2]
    # <head, c> for every head, in order, from each entry's multiples of its coefficient
    dots = map(sum, product(*([v * x for x in lad] for v, lad in zip(c, last[:-2]))))
    if (line := _line(a, b, lad1, last[-1])) is None:
        return sum(_size(sol) for dot in dots if (sol := _solve2(a, b, 1 - dot, lad1, last[-1])))
    lad2, base, g, s, t, p, w = line
    top1, top2, rhs, total = len(lad1) - 1, len(lad2) - 1, 1 - base, 0
    for dot in dots:
        k, rem = divmod(rhs - dot, g)
        if rem:
            continue
        k1, k2 = s * k, t * k
        lo, lo2, hi, hi2 = -(k1 // p), -(k2 // w), (top1 - k1) // p, (top2 - k2) // w
        if lo2 > lo:
            lo = lo2
        if hi2 < hi:
            hi = hi2
        if hi >= lo:
            total += hi - lo + 1
    return total


def _walk(lads):
    """(rows, head, solution) for every fixed part of the ladders lads (one
    row of ladders per matrix row) with solutions, in lexicographic order:
    each pair of solution completes the matrix rows + (head + pair,).
    The one loop that lists solutions: only the right-hand side
    1 - <head, c> depends on head, so one _line per c serves every head."""
    n, last = len(lads), lads[-1]
    if n == 1:
        if 1 in last[0]:
            yield (), (), (True, (range(1, 2),))
        return
    lad1, lad2 = last[-2], last[-1]
    for _, rows, c in _cofactors(lads):
        a, b = c[-2], c[-1]
        line = _line(a, b, lad1, lad2)
        for head in product(*last[:-2]):
            if solution := _solve2(a, b, 1 - sum(map(mul, head, c)), lad1, lad2, line):
                yield rows, head, solution


def _face2(m: int) -> list:
    """The SL_2(Z) matrices of max norm exactly m, unordered.

    A face row is primitive with an entry +-m.  Each matrix has one as its
    first row, under any second row in the box, or else as its second row,
    under a first row strictly inside the box: two _solve2 calls per face row.
    """
    box, inner = range(-m, m + 1), range(1 - m, m)
    sides = [(s, v) for s in (-m, m) for v in box] + [(u, s) for u in inner for s in (-m, m)]
    shell = []
    for a, b in sides:
        if math.gcd(a, b) != 1:
            continue
        shell += [((a, b), row) for row in _pairs(_solve2(-b, a, 1, box, box))]
        shell += [(row, (a, b)) for row in _pairs(_solve2(b, -a, 1, inner, inner))]
    return shell


@cache
def _n2_sieve(size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(mu(0..size), N_2(0..size)) as shared tuples, from one pass over
    the primes; mu(0) is unused, and N_2(T) = 32 (phi(1) + ... + phi(T)) - 12
    sums exact[k] = 32 phi(k), less 12 at k = 1.  For threshold t callers pass
    the power of two above t, at least 256 (below that a sieve costs about
    what its call does), so thresholds 1..T in any order cost O(log T) sieves."""
    mu = [1] * (size + 1)
    exact = list(range(0, 32 * size + 1, 32))
    for p in small_primes(size + 1):
        mu[p::p] = [-v for v in mu[p::p]]
        mu[p * p :: p * p] = [0] * (size // (p * p))
        exact[p::p] = [v - v // p for v in exact[p::p]]
    exact[1] -= 12
    return tuple(mu), tuple(accumulate(exact))


def _count_sl2(t1: int, t2: int) -> int:
    """count_sl at n = 2 and q = 0: 4 + 16 #{coprime (b, d) in [1, t1] x [1, t2]},
    the pairs counted as sum of mu(e) floor(t1/e) floor(t2/e) (_n2_sieve's mu)."""
    top = min(t1, t2)
    mu = _n2_sieve(1 << max(8, top.bit_length()))[0]
    return 4 + 16 * sum(mu[e] * (t1 // e) * (t2 // e) for e in range(1, top + 1))


def count_sl(spec: EnumSpec) -> int:
    """Exact count of gamma in SL_n(Z) within the caps (and congruence).

    At n >= 3 the sum of weight * H(c) (module docstring), with H memoised
    for this call only.
    """
    _check_budget(spec)
    n, q = spec.n, spec.q
    if n == 2 and q == 0:
        return _count_sl2(*spec.caps)
    if n <= 2:  # each c comes once and has one head: nothing to share
        return sum(_size(sol) for _, _, sol in _walk(_ladders(spec)))
    lads, hits, total = _ladders(spec), {}, 0
    for weight, _, c in _cofactors(lads, q == 0):
        key = c if q else tuple(sorted(map(abs, c)))  # the box is symmetric at q = 0
        h = hits.get(key)
        if h is None:
            h = hits[key] = _hits(key, lads[-1])
        total += weight * h
    return total


def iter_sl(spec: EnumSpec):
    """Every matching matrix as row tuples, in lexicographic row-major order.

    The budget check happens eagerly, before the first matrix is produced.
    """
    _check_budget(spec)
    return (
        rows + (head + pair,)
        for rows, head, sol in _walk(_ladders(spec))
        for pair in _pairs(sol)
    )


def iter_shell(n: int, m: int):
    """Every SL_n(Z) matrix of max norm exactly m, in iter_sl order.

    The shell is exactly iter_sl at cap m less iter_sl at cap m - 1: at
    n = 2 built from its face (_face2) and sorted, at every other n iter_sl
    at cap m filtered to the matrices with an entry +-m.  The budget is
    checked eagerly on what the builder walks: at n = 2 its 8m face rows,
    otherwise the cap-m box, by iter_sl itself.
    """
    spec = EnumSpec(n=n, caps=(m,) * n)
    if n == 2:  # iter_sl order is the lexicographic order of the row tuples
        _check_size(8 * m)
        return iter(sorted(_face2(m)))
    return (g for g in iter_sl(spec) if m in map(abs, chain(*g)))


# No caller in src; kept because perfbench/spans.py wraps it by name (BOUNDARIES).
def exists_sl(spec: EnumSpec) -> bool:
    """Whether at least one matching matrix exists: iter_sl's first, so the
    budget is iter_sl's and the walk stops at its first solution."""
    return next(iter_sl(spec), None) is not None


def _levels(lads):
    """(s, rows) pairs in increasing s: every row of the ladders lads is in
    exactly one rows, whose s is its max norm.  The ladders' values are
    taken in order of absolute value, and each brings the rows it
    completes: itself beside the values taken before it."""
    taken = [[] for _ in lads]
    for s, j, v in sorted((abs(v), j, v) for j, lad in enumerate(lads) for v in lad):
        axes = list(taken)  # product copies its axes, so later values stay out
        axes[j] = (v,)
        yield s, product(*axes)
        taken[j].append(v)


def _least_norm(solution) -> int:
    """Least max norm of the pairs of a _solve2 result."""
    return min(max(map(abs, pair)) for pair in _pairs(solution))


def _cut(rows, cap: int):
    """Each residue ladder of rows cut to [-cap, cap]."""
    return [[_ladder(lad.start, lad.step, cap) for lad in row] for row in rows]


def _least_lift(lads, cap: int) -> int | None:
    """Least max norm of a matrix in the ladders lads, all cut at cap, or
    None if there is none.

    Primitive first rows come in increasing norm (_levels), and the walk
    stops at the first level that reaches the best found.  The other rows
    are walked in their ladders cut at min(cap, best - 1), and each fixed
    part below best offers max(its norm, the least max norm of its
    solutions), which is never below the level.  At n = 2 the fixed part is
    the first row and its work one _solve2, as in _walk.
    """
    n, best, rest = len(lads), cap + 1, lads[1:]
    for s, firsts in _levels(lads[0]):
        if s >= best:
            break
        if n == 2:
            lad1, lad2 = rest[0]
            for a, b in firsts:
                if math.gcd(a, b) == 1 and (solution := _solve2(-b, a, 1, lad1, lad2)):
                    best = max(s, _least_norm(solution))  # below best, as the ladders are cut
                    if best == s:
                        return s
                    rest = _cut(rest, best - 1)
                    lad1, lad2 = rest[0]
            continue
        for first in firsts:  # _walk yields nothing under a first row not primitive
            below = [[range(v, v + 1) for v in first]] + rest
            for rows, head, solution in _walk(below):
                # a walk's ladders stay as cut when it began, so check against best
                least = max(max(map(abs, chain(first, *rows, head))), _least_norm(solution))
                if least < best:
                    if least == s:
                        return s
                    best = least
                    rest = _cut(rest, best - 1)
    return best if best <= cap else None


def min_lift_norm(x: IntMatrix, q: int, t_max: int) -> int | None:
    """Least T <= t_max admitting a lift of x mod q with max norm <= T.

    The cap T starts at the least value every entry's residue ladder
    reaches and doubles until a lift appears.  x is validated once; each
    cap's ladders are built once, budgeted as iter_sl budgets that cap,
    then walked once for their least lift norm (_least_lift), so the first
    cap with a lift gives the exact answer and memory follows the answer,
    not t_max.  Returns None when no lift exists by t_max.
    """
    n = x.nrows
    if x.ncols != n:
        raise InvalidInput("x must be square")
    if q < 1:
        raise InvalidInput(f"need q >= 1, got {q}")
    if t_max < 1:
        raise InvalidInput(f"need t_max >= 1, got {t_max}")
    if q == 1:
        return 1
    if intmat.det(x) % q != 1 % q:
        raise InvalidInput("x must have det = 1 mod q")

    t = max(min(r % q, -r % q) for row in x.rows for r in row)  # the least T every entry reaches
    if t > t_max:
        return None
    while True:
        lads = [[_ladder(v, q, t) for v in row] for row in x.rows]
        _check_size(_fixed_parts(lads))
        least = _least_lift(lads, t)
        if least is not None or t >= t_max:
            return least
        t = min(2 * t, t_max)


def norm_count_table(n: int, t_list) -> list[tuple[int, int, float | None]]:
    """Rows (T, exact count within norm T, count / T^(n^2 - n)).

    The thresholds are budgeted once, at the largest (if > 0), before any
    count.  At n = 2, one or many, they are then read off one cached totient
    prefix (_n2_sieve); otherwise each distinct threshold is one count_sl.
    """
    t_list = [int(t) for t in t_list]
    if any(t < 0 for t in t_list):
        raise InvalidInput("thresholds must be >= 0")
    exponent = n * n - n
    t_max = max(t_list, default=0)
    if t_max > 0:
        _check_budget(EnumSpec(n=n, caps=(t_max,) * n))
    if n == 2:
        counts = _n2_sieve(1 << max(8, t_max.bit_length()))[1]
    else:
        counts = {t: count_sl(EnumSpec(n=n, caps=(t,) * n)) if t else 0 for t in set(t_list)}
    return [(t, counts[t], counts[t] / t**exponent if t else None) for t in t_list]
