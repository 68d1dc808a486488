"""Constructive lifting of SL_n(Z/qZ) elements to SL_n(Z).

Pipeline: lift_rows lifts the first n-1 rows so they extend to SL_n(Z)
(the first extendable candidate of one stream: the signed lift, random
offsets, then a CRT-based fallback) and returns their maximal minors;
complete_rows turns those into a short last row (extended gcd plus size
reduction); lift corrects that row mod q by coefficients solved mod q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce

from . import intmat
from .errors import InvalidInput, NotExtendable, NotExtendableModQ, SearchExhausted
from .intmat import IntMatrix
from .residue import crt, ext_gcd, signed, small_primes

# Multiplier C in the entry bound C*log2(q+2) for the row-lift search.
DEFAULT_GROWTH_C = 16

_TRIES_PER_LEVEL = 16
_FALLBACK_TRIES = 64
_FALLBACK_CUTOFFS = (16, 64, 256)


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
    _TRIES_PER_LEVEL draws per level.  Then the deterministic fallback: for
    each cutoff K, base shifted to the top of the identity modulo every
    prime p < K not dividing q (which makes the leading minor a unit mod
    those primes), plus step*Y with step = q * (product of those primes) and
    Y uniform in [0, bound), _FALLBACK_TRIES draws each.
    """
    yield IntMatrix(base)
    rng = random.Random(seed)
    bound = max(2, math.ceil(DEFAULT_GROWTH_C * math.log2(q + 2)))

    def draws(origin, step, width, tries):
        for _ in range(tries):
            yield IntMatrix([[x + step * rng.randrange(width) for x in row] for row in origin])

    level = 2
    while True:
        yield from draws(base, q, level, _TRIES_PER_LEVEL)
        if level >= bound:
            break
        level = min(2 * level, bound)
    for cutoff in _FALLBACK_CUTOFFS:
        primes = [p for p in small_primes(cutoff) if q % p != 0]
        if not primes:
            continue
        shifted = [
            [
                x + q * crt([((int(i == j) - x) * pow(q, -1, p) % p, p) for p in primes]).value
                for j, x in enumerate(row)
            ]
            for i, row in enumerate(base)
        ]
        yield from draws(shifted, q * math.prod(primes), bound, _FALLBACK_TRIES)


def lift_rows(a: IntMatrix, q: int, seed: int) -> tuple[IntMatrix, tuple[int, ...], int]:
    """Lift (n-1) x n rows mod q to integer rows extending to SL_n(Z).

    Returns (B, maximal_minors(B), trials_used), B = A0 + qX the first
    candidate of _row_candidates (A0 the entrywise signed lift) whose minors
    have gcd 1.  All candidates agree mod q, so their minors share a factor
    with q exactly when the first candidate's do.
    """
    if q < 1:
        raise InvalidInput(f"need q >= 1, got {q}")
    base = [[signed(x, q) for x in row] for row in a.rows]
    trials = 0
    for trials, b in enumerate(_row_candidates(base, q, seed), 1):
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
    against the rows of B.
    """
    g, coeffs = c[0], [1]
    for ci in c[1:]:
        g, s, t = ext_gcd(g, ci)
        coeffs = [s * x for x in coeffs]
        coeffs.append(t)
    if g != 1:
        raise NotExtendable(f"gcd of maximal minors is {g}")
    v = intmat.size_reduce(coeffs, b)
    if sum(x * y for x, y in zip(v, c)) != 1:
        raise AssertionError("completion lost the determinant")
    return v


def lift(x: IntMatrix, q: int, seed: int = 0) -> LiftCertificate:
    """Lift x in SL_n(Z/qZ) to a certified gamma in SL_n(Z).

    First n-1 rows and their minors come from lift_rows, the last row from
    complete_rows on those minors, corrected modulo q by signed multiples of
    the lifted rows; the row-combination coefficients are solved mod q and
    their last coordinate always vanishes for valid inputs.
    """
    n = x.nrows
    if n < 2 or x.ncols != n:
        raise InvalidInput(f"need a square matrix with n >= 2, got {x.nrows}x{x.ncols}")
    if q < 1:
        raise InvalidInput(f"need q >= 1, got {q}")
    if q == 1:
        gamma = IntMatrix.identity(n)
        return LiftCertificate(gamma, q, n, 1, 1, 0, seed)
    if intmat.det(x) % q != 1 % q:
        raise InvalidInput(f"det is {intmat.det(x) % q} mod {q}, need 1")

    top = IntMatrix(x.rows[: n - 1])
    b, minors, trials = lift_rows(top, q, seed)
    v = complete_rows(b, minors)

    w = tuple((x.rows[n - 1][j] - v[j]) % q for j in range(n))
    xq = x.reduce_mod(q)
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
    if n < 2 or q < 1:
        raise InvalidInput(f"need n >= 2 and q >= 1, got n={n}, q={q}")
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
