"""Worst-case congruence classes: elements of SL_n(Z/qZ) whose every
integer lift is provably large.

The engine is root hunting modulo q^2: a unit alpha with small signed
representative whose n-th root beta has n*beta far from 0 forces, via the
determinant congruence on diagonal classes, a large entry in every lift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InvalidInput, NoUnitAlpha, SieveExhausted, TooManyRoots, as_int
from .intmat import IntMatrix, det
from .residue import (
    Residue,
    crt,
    factorize,
    int_nth_root,
    is_nth_power_residue,
    is_prime,
    nth_roots,
    signed,
)

# Cap on the root set size per candidate alpha; highly composite moduli can
# multiply per-prime root counts, so oversized alphas are skipped.
ROOT_CAP = 10**6

DEFAULT_ALPHA_BUDGET = 64
SIEVE_PRIME_BUDGET = 2000


@dataclass(frozen=True)
class RootWitness:
    """A unit alpha and an n-th root beta of it, with their signed sizes.

    modulus is q^2 when the witness feeds a diagonal instance for level q,
    but any modulus is allowed.  flagged marks a best-effort witness that
    missed its search target.  abs_alpha = |alpha|, abs_n_beta = |n*beta|
    (signed representatives) and degenerate (the collapsed n = 1 case) are
    derived from the other fields.
    """

    modulus: int
    n: int
    alpha: Residue
    beta: Residue
    flagged: bool = False
    method: str = "search"
    abs_alpha: int = field(init=False)
    abs_n_beta: int = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self):
        # stored past the frozen guard, as in residue.Residue: a root scan
        # builds a witness per improvement
        fields = self.__dict__
        fields["modulus"] = modulus = as_int(self.modulus, 1, "modulus")
        fields["n"] = n = as_int(self.n, 1, "n")
        alpha, beta = self.alpha, self.beta
        if alpha.modulus != modulus or beta.modulus != modulus:
            raise InvalidInput(f"need alpha, beta mod {modulus}, got mod {alpha.modulus}, {beta.modulus}")
        if pow(beta.value, n, modulus) != alpha.value:
            raise InvalidInput("beta^n != alpha")
        if math.gcd(beta.value, modulus) != 1:
            raise InvalidInput("beta is not a unit")
        fields["abs_alpha"] = abs(signed(alpha.value, modulus))
        fields["abs_n_beta"] = abs(signed(n * beta.value, modulus))
        fields["degenerate"] = n == 1


@dataclass(frozen=True)
class HardInstance:
    """Diagonal class diag(beta/alpha, beta, ..., beta) mod q with its bound.

    lower_bound is the claimed minimum max-norm over all lifts.  For
    root-derived instances it equals |n*beta| / (n |alpha|); the dyadic
    trace family instead pins the trace of every lift mod q^2, giving
    lower_bound q^2 / 8, recorded in trace_mod_q2.
    """

    q: int
    n: int
    witness: RootWitness
    x: IntMatrix
    lower_bound: Fraction
    trace_mod_q2: int | None = None


def find_large_root(
    modulus: int,
    n: int,
    alpha_budget: int,
    target: int | None = None,
) -> RootWitness:
    """Best witness maximizing |n*beta| over alphas with |alpha| <= budget.

    Alphas are enumerated by increasing signed size, positive before
    negative; for each unit alpha the complete n-th root set is examined.
    Stops once |n*beta| >= target (when given); otherwise scans the whole
    budget.  Ties prefer the earliest alpha and the smallest beta.
    """
    modulus, n = as_int(modulus, 2, "modulus"), as_int(n, 1, "n")
    alpha_budget = as_int(alpha_budget, 1, "alpha_budget")
    target = None if target is None else as_int(target)
    best: RootWitness | None = None
    best_score = -1
    for size in range(1, min(alpha_budget, modulus // 2) + 1):
        candidates = [size % modulus]
        if (-size) % modulus not in candidates:
            candidates.append((-size) % modulus)
        for value in candidates:
            if math.gcd(value, modulus) != 1:
                continue
            alpha = Residue(value, modulus)
            try:
                roots = nth_roots(alpha, n, limit=ROOT_CAP)
            except TooManyRoots as exc:
                warnings.warn(f"skipping alpha={value} mod {modulus}: {exc}")
                continue
            for beta in roots:
                score = abs(signed(n * beta.value, modulus))
                if score > best_score:
                    best_score = score
                    best = RootWitness(modulus=modulus, n=n, alpha=alpha, beta=beta)
        if target is not None and best is not None and best_score >= target:
            return best
    if best is None:
        raise NoUnitAlpha(f"no unit alpha within budget {alpha_budget} mod {modulus}")
    if target is not None and best_score < target:
        return replace(best, flagged=True)
    return best


def small_p_factor_root(q: int, n: int, k: int) -> RootWitness | None:
    """Root of unity witness from a small eligible prime-power factor of q.

    Looks for p^m | q with p^m strictly below q^(1/k), p not dividing n and
    gcd(p-1, n) > 1.  Such a factor admits a nontrivial n-th root of unity
    a mod p^m; beta = 1 mod q/p^m, a mod p^m then satisfies beta^n = 1 and
    |n*beta| > q^(1-1/k) - n.  Returns None when no factor qualifies.
    """
    q, n, k = as_int(q, 2, "q"), as_int(n, 1, "n"), as_int(k, 1, "k")
    best: RootWitness | None = None
    for p, m in factorize(q):
        if n % p == 0 or math.gcd(p - 1, n) <= 1:
            continue
        pm = p**m
        if pm**k >= q:
            continue
        cofactor = q // pm
        for a in nth_roots(Residue(1, pm), n):
            if a.value == 1:
                continue
            beta = crt([(1, cofactor), (a.value, pm)])
            witness = RootWitness(q, n, Residue(1, q), beta, method="small_p_factor")
            if best is None or witness.abs_n_beta > best.abs_n_beta or (
                witness.abs_n_beta == best.abs_n_beta and beta.value < best.beta.value
            ):
                best = witness
    return best


def is_rational_nth_power(num: int, den: int, n: int) -> bool:
    """Whether num/den (positive integers) is the n-th power of a rational."""
    g = math.gcd(num, den)
    num //= g
    den //= g
    rn = int_nth_root(num, n)
    rd = int_nth_root(den, n)
    return rn**n == num and rd**n == den


def small_nth_powers(q: int, n: int, count: int) -> list[tuple[Residue, Residue, int]]:
    """Pairs (alpha, beta, alpha_as_integer) with beta^n = alpha mod q.

    Sieves the first SIEVE_PRIME_BUDGET primes in ascending order, skipping
    those dividing q; each prime either matches an earlier representative r
    of its power class (emitting alpha = p * r^(n-1)) or, when the prime is
    itself an n-th power residue, matches itself (alpha = p^n).  Pairs are
    kept only if no ratio of integer alphas with an already accepted pair is
    an exact rational n-th power, checked exactly on the integer products.
    """
    q, n, count = as_int(q, 2, "q"), as_int(n, 1, "n"), as_int(count, 1, "count")
    accepted: list[tuple[Residue, Residue, int]] = []
    reps: list[int] = []
    scanned = 0
    p = 2
    while scanned < SIEVE_PRIME_BUDGET:
        if is_prime(p):
            scanned += 1
            if q % p != 0:
                alpha_int = None
                for r in reps:
                    cand = p * r ** (n - 1)
                    if is_nth_power_residue(Residue(cand, q), n):
                        alpha_int = cand
                        break
                if alpha_int is None:
                    reps.append(p)
                    if is_nth_power_residue(Residue(p, q), n):
                        alpha_int = p**n
                if alpha_int is not None and all(
                    not is_rational_nth_power(alpha_int, other, n)
                    for _, _, other in accepted
                ):
                    alpha = Residue(alpha_int, q)
                    beta = nth_roots(alpha, n, limit=ROOT_CAP)[0]
                    accepted.append((alpha, beta, alpha_int))
                    if len(accepted) == count:
                        return accepted
        p += 1
    raise SieveExhausted(
        f"found {len(accepted)} of {count} pairs within {SIEVE_PRIME_BUDGET} primes"
    )


def _diagonal_instance(q: int, n: int, witness: RootWitness) -> IntMatrix:
    """diag(beta/alpha, beta, ..., beta) mod q, checked to have det 1 mod q."""
    m2 = witness.modulus
    inv_alpha = pow(witness.alpha.value, -1, m2)
    first = witness.beta.value * inv_alpha % m2
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = first % q
    for i in range(1, n):
        rows[i][i] = witness.beta.value % q
    x = IntMatrix(rows)
    if det(x) % q != 1 % q:
        raise AssertionError("diagonal instance lost determinant 1")
    return x


def hard_instance(q: int, n: int, alpha_budget: int = DEFAULT_ALPHA_BUDGET) -> HardInstance:
    """Diagonal class mod q whose every lift has max norm >= the bound.

    Hunts roots modulo q^2 (full alpha budget, plus the small-factor root of
    unity as a candidate) and keeps whichever witness claims the larger
    bound |n*beta| / (n |alpha|); every lift of the resulting class
    satisfies alpha*a_1 + a_2 + ... + a_n = n*beta mod q^2 on its diagonal.
    """
    q, n = as_int(q, 2, "q"), as_int(n, 1, "n")
    m2 = q * q
    candidates = (find_large_root(m2, n, alpha_budget), small_p_factor_root(m2, n, 2))
    # max keeps the first of equal claims, so ties go to the searched root
    bound, witness = max(
        ((Fraction(w.abs_n_beta, n * w.abs_alpha), w) for w in candidates if w is not None),
        key=lambda claim: claim[0],
    )
    x = _diagonal_instance(q, n, witness)
    return HardInstance(q=q, n=n, witness=witness, x=x, lower_bound=bound)


def trace_family_instance(m: int) -> HardInstance:
    """The explicit dyadic family: q = 8m, x = diag(1-4m, 1+4m) mod q.

    With beta = 1+4m and alpha = beta^2 mod q^2, every lift gamma satisfies
    trace(gamma) = 2 + 16m^2 mod q^2, hence max norm at least q^2 / 8.  x is
    the diagonal instance of this witness: beta/alpha = 1/beta = 1-4m mod q,
    as (1+4m)(1-4m) = 1 - 2m*8m.
    """
    m = as_int(m, 1, "m")
    q = 8 * m
    m2 = q * q
    beta = Residue(1 + 4 * m, m2)
    alpha = Residue(pow(beta.value, 2, m2), m2)
    witness = RootWitness(m2, 2, alpha, beta, method="trace_family")
    return HardInstance(
        q=q,
        n=2,
        witness=witness,
        x=_diagonal_instance(q, 2, witness),
        lower_bound=Fraction(q * q, 8),
        trace_mod_q2=(2 + 16 * m * m) % m2,
    )
