"""Exact modular arithmetic: signed representatives, factorization, CRT,
and complete n-th root extraction for moduli with small prime factors.

n-th roots are found per prime power p^e of the modulus: Tonelli-Shanks mod
p for square roots at odd p, an exhaustive unit scan mod p otherwise, then
one closed-form Hensel step per level up to p^e, then CRT.  Each modulus is
factorized once per process (factorize is cached).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian

from .errors import (
    FactorLimitExceeded,
    InvalidInput,
    NotCoprime,
    NotUnit,
    PrimeTooLarge,
    TooManyRoots,
    as_int,
    as_ints,
)

# Largest prime for which an exhaustive unit scan (every n but square roots
# at odd p) is allowed; larger primes raise PrimeTooLarge instead of
# silently sampling.
PRIME_SCAN_BOUND = 10**6

_TRIAL_BOUND = 10**6
_RHO_SEED = 0x5EED
# Squarings one factorize call may spend on Pollard rho, over all attempts.
_RHO_STEPS = 64 << 16


@dataclass(frozen=True, init=False)
class Residue:
    """An element of Z/mZ stored by its canonical representative in [0, m)."""

    value: int
    modulus: int

    def __init__(self, value: int, modulus: int):
        # stored past the frozen guard: object.__setattr__, as a generated
        # __init__ stores, costs three times as much, and root scans build
        # tens of residues per point
        fields = self.__dict__
        fields["modulus"] = modulus = as_int(modulus, 1, "modulus")
        fields["value"] = as_int(value) % modulus


def signed(value: int, modulus: int) -> int:
    """Representative of value mod modulus with minimal absolute value.

    The tie at modulus/2 (even modulus) resolves to +modulus/2.
    """
    r = value % modulus
    if 2 * r > modulus:
        r -= modulus
    return r


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_primes(limit: int) -> list[int]:
    """All primes strictly below limit (simple sieve)."""
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [i for i in range(limit) if flags[i]]


def int_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of x >= 0, by exact integer Newton iteration.

    The start 2^ceil(bits(x)/n) lies above the root, and each step stays at
    or above the floor while it decreases, so the first non-decrease is it.
    """
    x, n = as_int(x, 0, "x"), as_int(n, 1, "n")
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _perfect_power(c: int) -> tuple[int, int] | None:
    """(r, k) with c = r^k for the least k >= 2, or None if c is no power."""
    for k in range(2, c.bit_length() + 1):
        r = int_nth_root(c, k)
        if r**k == c:
            return r, k
    return None


def _rho_factor(n: int, rng: random.Random, steps: int) -> tuple[int | None, int]:
    """One Brent-cycle Pollard rho attempt on composite n within steps
    squarings: (a nontrivial factor, or None if the cycle closes on n or
    the steps run out; the steps left)."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    while g == 1:
        if 2 * r > steps:
            return None, 0
        steps -= 2 * r  # a round of cycle length r squares 2r times at most
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return (g if g != n else None), steps


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 as ((p1, e1), ...) with p1 < p2 < ...

    Trial division below 10^6; a composite cofactor that is a perfect power
    r^k becomes r with k times its multiplicity, by exact integer roots, and
    any other goes to a deterministic-seeded Pollard rho.  Raises FactorLimitExceeded if a
    composite cofactor resists the rho budget: _RHO_STEPS squarings shared
    by all attempts of the call, so it returns within seconds.
    """
    return _factorize(as_int(m, 1, "m"))  # read before the cache, where 12.0 would find 12


@lru_cache(maxsize=1 << 12)
def _factorize(m: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    n = m
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k +- 1 up to the trial bound
    f = 7
    step = 4
    while f * f <= n and f < _TRIAL_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += step
        step = 6 - step
    if n > 1:
        if f * f > n or is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            rng = random.Random(_RHO_SEED ^ n)
            stack = [(n, 1)]  # (cofactor, multiplicity), so each is split once
            steps = _RHO_STEPS
            while stack:
                c, e = stack.pop()
                if is_prime(c):
                    out[c] = out.get(c, 0) + e
                    continue
                power = _perfect_power(c)
                if power:
                    stack.append((power[0], e * power[1]))
                    continue
                if steps < 2:
                    raise FactorLimitExceeded(f"cofactor {c} of {m}")
                d, steps = _rho_factor(c, rng, steps)
                stack.extend(((c, e),) if d is None else ((d, e), (c // d, e)))
    return tuple(sorted(out.items()))


def _crt_basis(moduli: list[int]) -> tuple[int, list[int]]:
    """The product m of the moduli m_i and the idempotents E_i = 1 mod m_i, 0 mod
    every other m_j; raises NotCoprime unless the moduli are pairwise coprime."""
    m = 1
    for mi in moduli:
        g = math.gcd(m, mi)
        if g != 1:
            raise NotCoprime(f"moduli {m} and {mi} share factor {g}")
        m *= mi
    return m, [m // mi * pow(m // mi, -1, mi) % m for mi in moduli]


def crt(congruences) -> Residue:
    """Combine [(r1, m1), (r2, m2), ...] into the residue mod m1*m2*...

    Moduli must be pairwise coprime; raises NotCoprime otherwise.
    """
    pairs = as_ints(congruences, as_ints)
    if set(map(len, pairs)) - {2}:
        raise InvalidInput(f"need (residue, modulus) pairs, got {pairs}")
    m, idempotents = _crt_basis([as_int(mi, 1, "modulus") for _, mi in pairs])
    return Residue(sum(r * e for (r, _), e in zip(pairs, idempotents)), m)


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of the unit a (reduced mod the odd prime p), or None
    if a is a non-residue (Tonelli-Shanks; Cohen, Alg. 1.5.1).

    Write p - 1 = 2^s q with q odd.  The least non-residue z (searched from
    2, so re-runs agree) makes c = z^q an element of order 2^s.  The loop
    keeps r^2 = a t, with t of order 2^i < 2^m and c of order 2^m; the
    factor b = c^(2^(m-i-1)) has order 2^(i+1), so t b^2 has order below
    2^i, and t reaches 1 within s steps.
    """
    half = (p - 1) // 2
    if pow(a, half, p) != 1:  # Euler's criterion
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    if r * r % p != a:
        raise AssertionError(f"Tonelli-Shanks root {r} of {a} mod {p} failed its check")
    return r


@lru_cache(maxsize=1 << 16)
def _prime_power_roots(alpha: int, n: int, p: int, e: int) -> tuple[int, ...]:
    """All n-th roots of alpha among units mod p^e; callers reduce alpha mod p^e.

    Square roots mod an odd p come from Tonelli-Shanks as the pair r, p - r
    (distinct, as p is odd); every other root set mod p comes from an
    exhaustive unit scan, which raises PrimeTooLarge above PRIME_SCAN_BOUND.
    A root b mod p^j extends by Hensel's step: with f(x) = x^n - alpha,
    f(b + t p^j) = f(b) + t d p^j mod p^(j+1), where d = n b^(n-1).  So with
    r = (alpha - b^n)/p^j mod p, a nonzero d mod p admits exactly t = r/d,
    while d = 0 (p | n) admits every t when r = 0 and none otherwise.  Every
    root mod p^(j+1) reduces to one mod p^j, so the result is exact.
    """
    alpha_p = alpha % p
    if n == 2 and p > 2:
        r = _sqrt_mod_prime(alpha_p, p)
        roots = [] if r is None else [r, p - r]
    elif p > PRIME_SCAN_BOUND:
        raise PrimeTooLarge(f"prime {p} exceeds scan bound {PRIME_SCAN_BOUND}")
    else:
        roots = [b for b in range(1, p) if pow(b, n, p) == alpha_p]
    pj = p
    for _ in range(e - 1):
        lifted = []
        for b in roots:
            r = (alpha - pow(b, n, pj * p)) // pj % p
            d = n * pow(b, n - 1, p) % p
            if d:
                lifted.append(b + r * pow(d, -1, p) % p * pj)
            elif r == 0:
                lifted.extend(range(b, pj * p, pj))
        roots = lifted
        pj *= p
    return tuple(sorted(roots))


def nth_roots(a: Residue, n: int, limit: int | None = None) -> tuple[Residue, ...]:
    """The complete set of beta in (Z/mZ)^x with beta^n = a, sorted by value.

    Computed per prime power of m and combined by CRT; exact, never sampled.
    Requires gcd(a, m) = 1, and for n != 2 every prime of m below
    PRIME_SCAN_BOUND (square roots have no prime bound).
    With limit set, raises TooManyRoots once the root count would pass it.
    """
    n = as_int(n, 1, "n")
    limit = None if limit is None else as_int(limit)
    m = a.modulus
    if math.gcd(a.value, m) != 1:
        raise NotUnit(f"{a.value} is not a unit mod {m}")
    if n == 1 or m == 1:
        return (a,)
    moduli, root_sets = [], []
    count = 1
    for p, e in factorize(m):
        pe = p**e
        roots = _prime_power_roots(a.value % pe, n, p, e)
        if not roots:
            return ()
        count *= len(roots)
        if limit is not None and count > limit:
            raise TooManyRoots(f"root count {count} exceeds cap {limit}")
        moduli.append(pe)
        root_sets.append(roots)
    _, idempotents = _crt_basis(moduli)
    # CRT is a bijection, so the combined roots are distinct
    values = sorted(
        sum(r * e for r, e in zip(combo, idempotents)) % m
        for combo in _cartesian(*root_sets)
    )
    return tuple(Residue(v, m) for v in values)


def is_nth_power_residue(a: Residue, n: int) -> bool:
    """Whether a is in (Z/mZ)^xn, decided per prime power of m.

    For odd p the cyclic-group criterion a^(phi/g) = 1 with g = gcd(n, phi)
    applies; for p = 2 the root set from _prime_power_roots decides it.
    """
    n = as_int(n, 1, "n")
    m = a.modulus
    if math.gcd(a.value, m) != 1:
        raise NotUnit(f"{a.value} is not a unit mod {m}")
    if n == 1 or m == 1:
        return True
    for p, e in factorize(m):
        pe = p**e
        if p == 2:
            if not _prime_power_roots(a.value % pe, n, 2, e):
                return False
        else:
            phi = pe // p * (p - 1)
            g = math.gcd(n, phi)
            if pow(a.value, phi // g, pe) != 1:
                return False
    return True
