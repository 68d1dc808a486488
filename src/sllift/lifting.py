"""Constructive lifting of SL_n(Z/qZ) elements to SL_n(Z).

Pipeline: lift_rows lifts the first n-1 rows so they extend to SL_n(Z)
(the first extendable candidate of one stream: the signed lift, then
random offsets, skipping without minors those whose rows are dependent
mod 2) and returns their maximal minors;
complete_rows turns those into a short last row (extended gcd, then size
reduction by one fraction-free solve built on the same minors); lift
corrects that row mod q by coefficients from one elimination over Z/qZ.
The entry and exit checks are exact: intmat.sl_class reads x mod q, and
det(gamma) = 1 over Z and gamma = x mod q entrywise are checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce

from . import intmat
from .errors import InvalidInput, NotExtendable, NotExtendableModQ, SearchExhausted, as_int, as_ints
from .intmat import IntMatrix
from .residue import ext_gcd, signed

# Multiplier C in the entry bound C*log2(q+2) for the row-lift search.
DEFAULT_GROWTH_C = 16

_TRIES_PER_LEVEL = 16


@dataclass(frozen=True)
class LiftCertificate:
    """A verified lift: gamma = x mod q, det(gamma) = 1, with norm stats."""

    gamma: IntMatrix
    q: int
    n: int
    first_rows_max: int
    last_row_max: int
    trials_used: int
    seed: int


# No caller in src; kept because perfbench/spans.py wraps it by name (BOUNDARIES).
def is_extendable(b: IntMatrix) -> bool:
    """Whether b is the top of some SL_n(Z) matrix (gcd of maximal minors 1)."""
    return reduce(math.gcd, intmat.maximal_minors(b)) == 1


def _row_candidates(base: list[list[int]], q: int, seed: int):
    """Row lifts congruent to base mod q, in search order.

    First base itself: the common case needs no perturbation, and its minors
    are those of every lift mod q.  Then base + qX with X uniform in [0, M)
    for M = 2, 4, ... up to bound = DEFAULT_GROWTH_C * log2(q+2),
    _TRIES_PER_LEVEL draws per level, so every candidate keeps
    max|B| <= q/2 + q(bound - 1).
    """
    yield IntMatrix(base)
    rng = random.Random(seed)
    bound = max(2, math.ceil(DEFAULT_GROWTH_C * math.log2(q + 2)))
    level = 2
    while True:
        for _ in range(_TRIES_PER_LEVEL):
            yield IntMatrix([[x + q * rng.randrange(level) for x in row] for row in base])
        if level >= bound:
            break
        level = min(2 * level, bound)


def _dependent_mod2(b: IntMatrix) -> bool:
    """Whether the rows of b are linearly dependent mod 2 (rank over GF(2)
    below the row count), by elimination on one bitmask per row."""
    pivots = {}
    for row in b.rows:
        mask = sum(1 << k for k, x in enumerate(row) if x & 1)
        while mask:
            top = mask.bit_length()
            if top not in pivots:
                pivots[top] = mask
                break
            mask ^= pivots[top]
        else:
            return True
    return False


def lift_rows(a: IntMatrix, q: int, seed: int) -> tuple[IntMatrix, tuple[int, ...], int]:
    """Lift (n-1) x n rows mod q to integer rows extending to SL_n(Z).

    Returns (B, maximal_minors(B), trials_used), B = A0 + qX the first
    candidate of _row_candidates (A0 the entrywise signed lift) whose minors
    have gcd 1.  All candidates agree mod q, so their minors share a factor
    with q exactly when the first candidate's do; once the first has
    settled that, a later candidate whose rows are dependent mod 2 (so 2
    divides every minor) is refused without computing its minors.
    """
    seed, q = as_int(seed, name="seed"), as_int(q, 1, "q")
    base = [[signed(x, q) for x in row] for row in intmat.as_matrix(a, 1).rows]
    trials = 0
    for trials, b in enumerate(_row_candidates(base, q, seed), 1):
        if trials > 1 and _dependent_mod2(b):
            continue
        minors = intmat.maximal_minors(b)
        g = reduce(math.gcd, minors)
        if g == 1:
            return b, minors, trials
        if math.gcd(g, q) != 1:
            raise NotExtendableModQ(f"row minors share a factor with q={q}")
    raise SearchExhausted(f"no extendable row lift found for q={q} (trials={trials})")


def complete_rows(b: IntMatrix, c: tuple[int, ...]) -> tuple[int, ...]:
    """Last row v with det(stack(B, v)) = 1 and max|v| <= (n/2) max|B| + 1,
    given c = maximal_minors(B) (lift_rows returns them).

    Solves <v0, c> = 1 by iterated extended gcd, then size-reduces v0
    against the rows of B, which reads its projection off c.
    """
    b, c = intmat.as_matrix(b, 1), as_ints(c)
    g, coeffs = c[0], [1]
    for ci in c[1:]:
        g, s, t = ext_gcd(g, ci)
        coeffs = [s * x for x in coeffs]
        coeffs.append(t)
    if g != 1:
        raise NotExtendable(f"gcd of maximal minors is {g}")
    v = intmat.size_reduce(coeffs, b, c)
    if sum(x * y for x, y in zip(v, c)) != 1:
        raise AssertionError("completion lost the determinant")
    return v


def lift(x: IntMatrix, q: int, seed: int = 0) -> LiftCertificate:
    """Lift x in SL_n(Z/qZ) (intmat.sl_class) to a certified gamma in SL_n(Z).

    First n-1 rows and their minors come from lift_rows, the last row from
    complete_rows on those minors, corrected modulo q by signed multiples of
    the lifted rows; the row-combination coefficients come from
    intmat.solve_mod (entries below q throughout) and their last coordinate
    always vanishes for valid inputs.
    """
    seed = as_int(seed, name="seed")
    q, xq = intmat.sl_class(x, q)
    n = xq.nrows
    if n < 2:
        raise InvalidInput(f"need n >= 2, got {n}")
    if q == 1:
        gamma = IntMatrix.identity(n)
        return LiftCertificate(gamma, q, n, 1, 1, 0, seed)

    top = IntMatrix(xq.rows[: n - 1])
    b, minors, trials = lift_rows(top, q, seed)
    v = complete_rows(b, minors)

    w = tuple((xq.rows[n - 1][j] - v[j]) % q for j in range(n))
    alpha = intmat.solve_mod(xq, w, q)
    if alpha[n - 1] % q != 0:
        raise AssertionError("last solve coefficient should vanish")
    last = list(v)
    for i in range(n - 1):
        coeff = signed(alpha[i], q)
        if coeff:
            for j in range(n):
                last[j] += coeff * b.rows[i][j]

    gamma = b.with_row(last)
    if intmat.det(gamma) != 1:
        raise AssertionError("lift lost the determinant")
    if gamma.reduce_mod(q) != xq:
        raise AssertionError("lift broke the congruence")
    last_max = max(abs(e) for e in last)
    return LiftCertificate(gamma, q, n, b.max_norm(), last_max, trials, seed)


def random_sl_matrix(n: int, q: int, seed: int) -> IntMatrix:
    """A pseudorandom element of SL_n(Z/qZ) built from elementary operations."""
    seed, n, q = as_int(seed, name="seed"), as_int(n, 2, "n"), as_int(q, 1, "q")
    rng = random.Random(seed)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(q)
        if rng.getrandbits(1):
            for k in range(n):
                m[i][k] = (m[i][k] + c * m[j][k]) % q
        else:
            for k in range(n):
                m[k][i] = (m[k][i] + c * m[k][j]) % q
    return IntMatrix(m)
