"""Exact exhaustive enumeration over bounded-height SL_n(Z).

Counts, minimal-norm congruence lifts, and growth tables, all ground truth:
partial scans raise rather than return wrong numbers.

Enumeration contract: every entry is fixed except the last two of the last
row.  With c the maximal minors of the first n - 1 rows, those two satisfy
c_{n-1} v_{n-1} + c_n v_n = 1 - <head, c>, where head is the rest of the
last row: a two-variable linear Diophantine equation, solved exactly on the
two residue ladders with one extended gcd per c (only the right-hand side
depends on head).  Its solutions are none, one arithmetic progression, or
the full grid when both cofactors vanish, always in ascending
(v_{n-1}, v_n) order, so matrices come out in lexicographic row-major order.
The cofactors are linear in row n - 1: c = K(P) r, with P the first n - 2
rows and r row n - 1.  The walk builds the map K once per prefix P (n
maximal_minors calls, or at n = 3 the cross-product matrix of the first
row) and gets each r's c from n dot products.  At n = 2 the prefix is empty
and c = (-r_1, r_0), with no map built.
Entries constrained mod q range over their residue ladders x_ij + qZ
intersected with [-cap, cap].

Without a congruence (q = 0), counts use the symmetry gamma -> D gamma P,
where P is a signed column permutation and D negates the last row when
det P = -1.  It keeps det 1 and every row's cap, so only primitive, sorted,
non-negative first rows are enumerated, each weighted by its orbit size.
At n = 2 that reduction leaves closed forms, used instead of the walk:
count_sl takes 4 + 16 times the coprime pairs in [1, t1] x [1, t2], summed
by Moebius inversion; norm_count_table (t1 = t2) reads every threshold off
one totient prefix (docs/decisions.md).

At n >= 3 a count needs only how many last rows complete each c, so
count_sl sums weight * H(c), with H(c) the number of last rows v in the
ladders with <v, c> = 1, memoised within the call.  At q = 0 the last
row's box is invariant under signed permutations of its entries, so H is
keyed by sorted |c|.  norm_count_table at n >= 3 is one such count per
threshold.  The walk stays the reference the tests compare counts against.

A norm shell (max norm exactly m, q = 0) is the cap-m walk cut down per
fixed part: one with an entry +-m keeps every solved pair, any other keeps
only the pairs with u or v = +-m, found by a divisibility check on each
side of the square (iter_shell).
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
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
        return int(env, 10)
    except ValueError:
        raise InvalidInput(f"SLLIFT_BUDGET must be a decimal integer, got {env!r}") from None


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


def candidate_count(spec: EnumSpec) -> int:
    """Number of fixed parts the kernel walks: the product of the ladder
    sizes of every entry except the last two of the last row, which it solves."""
    lads = _ladders(spec)
    return math.prod(map(_ladder_size, chain(*lads[:-1], lads[-1][:-2])))


def _check_budget(spec: EnumSpec) -> None:
    limit = current_budget()
    size = candidate_count(spec)
    if size > limit:
        raise BudgetExceeded(f"candidate space {size} exceeds budget {limit}")


def _cofactor_map(prefix) -> tuple[tuple[int, ...], ...]:
    """Rows of K with K r = maximal_minors(prefix + (r,)) for every row r.

    Those cofactors are linear in r, so column k of K is the cofactor vector
    of prefix + (e_k,): one maximal_minors call per column.  At n = 3 they
    are the cross product first x r, and K is the first row's cross-product
    matrix.
    """
    if len(prefix) == 1:
        a0, a1, a2 = prefix[0]
        return ((0, -a2, a1), (a2, 0, -a0), (-a1, a0, 0))
    units = IntMatrix.identity(len(prefix) + 2).rows
    return tuple(zip(*(intmat.maximal_minors(IntMatrix(prefix + (e,))) for e in units)))


def _index_span(k0: int, step: int, size: int) -> tuple[int, int]:
    """Least and greatest m with 0 <= k0 + step * m < size (step != 0)."""
    lo, hi = -k0, size - 1 - k0
    if step < 0:
        lo, hi = hi, lo
    return -(-lo // step), hi // step


def _solve2(a: int, b: int, r: int, lad1: range, lad2: range, gcd=None):
    """Pairs (u, v) in lad1 x lad2 with a*u + b*v = r, in ascending order.

    Returns None, or (grid, (us, vs)) with non-empty ranges us and vs: the
    pairs are product(us, vs) when grid is true and zip(us, vs) otherwise.
    Writing u and v by their ladder indices keeps the equation linear, so
    one extended gcd gives every solution and the box clips it.  A caller
    that varies only r may pass that gcd,
    ext_gcd(a * lad1.step, b * lad2.step), to skip recomputing it.
    """
    if not lad1 or not lad2:
        return None
    r -= a * lad1.start + b * lad2.start
    a *= lad1.step
    b *= lad2.step
    if a == 0 or b == 0:
        if a == b == 0:
            return (True, (lad1, lad2)) if r == 0 else None
        k, rem = divmod(r, a or b)
        if rem or not 0 <= k < len(lad1 if a else lad2):
            return None
        return True, ((lad1[k : k + 1], lad2) if a else (lad1, lad2[k : k + 1]))
    g, s, t = gcd or ext_gcd(a, b)
    if r % g:
        return None
    # indices (s*r/g + p*m, t*r/g + w*m); p > 0 so u ascends with m
    p, w = b // g, -a // g
    if p < 0:
        p, w = -p, -w
    k1, k2 = s * (r // g), t * (r // g)
    lo1, hi1 = _index_span(k1, p, len(lad1))
    lo2, hi2 = _index_span(k2, w, len(lad2))
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo > hi:
        return None
    count = hi - lo + 1
    u0, du = lad1.start + lad1.step * (k1 + p * lo), lad1.step * p
    v0, dv = lad2.start + lad2.step * (k2 + w * lo), lad2.step * w
    return False, (range(u0, u0 + du * count, du), range(v0, v0 + dv * count, dv))


def _pairs(solution):
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


def _first_rows(spec: EnumSpec, lads, weighted: bool = False):
    """(weight, row) for every primitive first row, in lexicographic order
    with weight 1, unless weighted (q = 0 only): then over orbit
    representatives, weighted by orbit size.  A generator, so a walk that
    stops at its first hit builds no more rows than it reads."""
    if weighted:
        firsts = combinations_with_replacement(range(spec.caps[0] + 1), spec.n)
        return ((_orbit_size(f), f) for f in firsts if math.gcd(*f) == 1)
    return ((1, f) for f in product(*lads[0]) if math.gcd(*f) == 1)


def _cofactors(spec: EnumSpec, lads, weighted: bool = False):
    """(weight, rows, c) for the first n - 1 rows of every walked matrix
    (n >= 3, lads = _ladders(spec)), with c their cofactor vector:
    det(rows + (v,)) = <v, c>.  The first row runs over _first_rows."""
    n = spec.n
    middle = [list(product(*lads[i])) for i in range(1, n - 2)]
    lasts = list(product(*lads[n - 2]))
    for weight, first in _first_rows(spec, lads, weighted):
        for rest in product(*middle):
            prefix = (first,) + rest
            k = _cofactor_map(prefix)
            for r in lasts:
                yield weight, prefix + (r,), tuple(sum(map(mul, row, r)) for row in k)


def _completions(c, last):
    """(head, solution) for every head with solutions: head runs over the
    ladders of the last row's first n - 2 entries in lexicographic order,
    and solution solves <c, head + (v_{n-1}, v_n)> = 1 on the last two.
    Only the right-hand side depends on head, so one extended gcd serves all.
    """
    a, b, lad1, lad2 = c[-2], c[-1], last[-2], last[-1]
    gcd = ext_gcd(a * lad1.step, b * lad2.step)
    for head in product(*last[:-2]):
        solution = _solve2(a, b, 1 - sum(map(mul, head, c)), lad1, lad2, gcd)
        if solution:
            yield head, solution


def _walk(spec: EnumSpec):
    """(rows, head, solution) for every fixed part with solutions, in
    lexicographic order: each pair of solution completes the matrix
    rows + (head + pair,)."""
    n, lads = spec.n, _ladders(spec)
    last = lads[-1]
    if n == 1:
        if 1 in last[0]:
            yield (), (), (True, (range(1, 2),))
        return
    if n == 2:  # the prefix is empty and c = (-r_1, r_0): one head, nothing to share
        lad1, lad2 = last
        for _, r in _first_rows(spec, lads):
            solution = _solve2(-r[1], r[0], 1, lad1, lad2)
            if solution:
                yield (r,), (), solution
        return
    for _, rows, c in _cofactors(spec, lads):
        for head, solution in _completions(c, last):
            yield rows, head, solution


def _line(b: int, r: int, m: int):
    """The v in [-m, m] with b * v = r, ascending."""
    if b == 0:
        return range(-m, m + 1) if r == 0 else ()
    v, rem = divmod(r, b)
    return (v,) if not rem and -m <= v <= m else ()


def _rim(a: int, b: int, r: int, m: int) -> list:
    """Pairs (u, v) in [-m, m]^2 with a*u + b*v = r and |u| = m or |v| = m,
    ascending: one divisibility check per side of the square, unless a
    coefficient vanishes and the side is all solutions or none."""
    pairs = [(s, v) for s in (-m, m) for v in _line(b, r - a * s, m)]
    pairs += [(u, s) for s in (-m, m) for u in _line(a, r - b * s, m) if -m < u < m]
    return sorted(pairs)


def _shell_walk(spec: EnumSpec):
    """(rows, head, pairs) for every fixed part of _walk (q = 0, every cap m)
    whose completions include one of max norm exactly m, in _walk's order,
    with pairs the ascending completions that reach norm m: all of them when
    the fixed part has an entry +-m, else only those on the rim (_rim)."""
    n, m, lads = spec.n, spec.caps[0], _ladders(spec)
    lad1, lad2 = lads[-1][-2:]
    heads = list(product(*lads[-1][:-2]))
    if n == 2:
        prefixes = (((r,), (-r[1], r[0])) for _, r in _first_rows(spec, lads))
    else:
        prefixes = ((rows, c) for _, rows, c in _cofactors(spec, lads))
    for rows, c in prefixes:
        a, b = c[-2], c[-1]
        face = any(m in row or -m in row for row in rows)
        gcd = ext_gcd(a, b) if face else None
        for head in heads:
            r = 1 - sum(map(mul, head, c))
            if face or m in head or -m in head:
                solution = _solve2(a, b, r, lad1, lad2, gcd)
                pairs = _pairs(solution) if solution else ()
            else:
                pairs = _rim(a, b, r, m)
            if pairs:
                yield rows, head, pairs


def _mobius(limit: int) -> list[int]:
    """mu(k) for 0 <= k <= limit (mu(0) unused), sieved prime by prime."""
    mu = [1] * (limit + 1)
    for p in small_primes(limit + 1):
        mu[p::p] = [-v for v in mu[p::p]]
        mu[p * p :: p * p] = [0] * len(range(p * p, limit + 1, p * p))
    return mu


def _count_sl2(t1: int, t2: int) -> int:
    """count_sl at n = 2 and q = 0: 4 + 16 #{coprime (b, d) in [1, t1] x [1, t2]},
    the pairs counted as sum of mu(e) floor(t1/e) floor(t2/e)."""
    top = min(t1, t2)
    mu = _mobius(top)
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
        return sum(_size(sol) for _, _, sol in _walk(spec))
    lads, hits, total = _ladders(spec), {}, 0
    for weight, _, c in _cofactors(spec, lads, q == 0):
        key = c if q else tuple(sorted(map(abs, c)))  # the box is symmetric at q = 0
        h = hits.get(key)
        if h is None:
            h = hits[key] = sum(_size(sol) for _, sol in _completions(key, lads[-1]))
        total += weight * h
    return total


def iter_sl(spec: EnumSpec):
    """Every matching matrix as row tuples, in lexicographic row-major order.

    The budget check happens eagerly, before the first matrix is produced.
    """
    _check_budget(spec)
    return (
        rows + (head + pair,)
        for rows, head, sol in _walk(spec)
        for pair in _pairs(sol)
    )


def iter_shell(n: int, m: int):
    """Every SL_n(Z) matrix of max norm exactly m, in iter_sl order.

    The cap-m walk keeps only what reaches norm m (_shell_walk), so the
    shell is exactly iter_sl at cap m less iter_sl at cap m - 1.  The budget
    is checked eagerly on the cap-m box, as iter_sl checks it.
    """
    spec = EnumSpec(n=n, caps=(m,) * n)
    _check_budget(spec)
    if n == 1:
        return iter([((1,),)] if m == 1 else [])
    return (rows + (head + pair,) for rows, head, pairs in _shell_walk(spec) for pair in pairs)


def exists_sl(spec: EnumSpec) -> bool:
    """Whether at least one matching matrix exists."""
    _check_budget(spec)
    return next(_walk(spec), None) is not None


def min_lift_norm(x: IntMatrix, q: int, t_max: int) -> int | None:
    """Least T <= t_max admitting a lift of x mod q with max norm <= T.

    T starts at the least value every entry's residue ladder reaches and
    doubles until a lift appears; then it bisects over the achievable ladder
    values in that last doubling window, so memory follows the answer, not
    t_max.  Returns None when no lift exists by t_max.
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

    residues = {v % q for row in x.rows for v in row}
    t = max(min(r, q - r) for r in residues)  # the least T every entry reaches
    if t > t_max:
        return None

    def exists(t: int) -> bool:
        return exists_sl(EnumSpec(n=n, caps=(t,) * n, q=q, x=x.rows))

    low = t - 1  # no lift has max norm <= low
    while True:
        if exists(t):
            # the last step has a lift as t does, so the bisection never probes it
            steps = sorted({abs(v) for r in residues for v in _ladder(r, q, t) if abs(v) > low})
            return steps[bisect.bisect_left(steps, True, hi=len(steps) - 1, key=exists)]
        if t >= t_max:
            return None
        low, t = t, min(2 * t, t_max)


def norm_count_table(n: int, t_list) -> list[tuple[int, int, float | None]]:
    """Rows (T, exact count within norm T, count / T^(n^2 - n)).

    The thresholds are budgeted once, at the largest (if > 0), before any
    count.  At n = 2, one or many, they are then read off one totient prefix,
    N_2(T) = 32 (phi(1) + ... + phi(T)) - 12; otherwise each distinct
    threshold is one count_sl.
    """
    t_list = [int(t) for t in t_list]
    if any(t < 0 for t in t_list):
        raise InvalidInput("thresholds must be >= 0")
    exponent = n * n - n
    t_max = max(t_list, default=0)
    if t_max > 0:
        _check_budget(EnumSpec(n=n, caps=(t_max,) * n))
    if n == 2 and t_max > 0:  # exact[k] = 32 phi(k), less 12 at k = 1
        exact = list(range(0, 32 * t_max + 1, 32))
        for p in small_primes(t_max + 1):
            exact[p::p] = [v - v // p for v in exact[p::p]]
        exact[1] -= 12
        counts = list(accumulate(exact))
    else:
        counts = {t: count_sl(EnumSpec(n=n, caps=(t,) * n)) if t else 0 for t in set(t_list)}
    return [(t, counts[t], counts[t] / t**exponent if t else None) for t in t_list]
