"""The abstract's upper and almost-all claims, stated as checks.

Upper claim: every element of SL_n(Z/qZ) lifts to SL_n(Z) with norm at most
C q^2 log q.  `lift` proves it constructively, and each of its certificates
meets the bounds its proof gives, for M = first_rows_max and
bound = ceil(DEFAULT_GROWTH_C * log2(q + 2)):

- row search: M <= q/2 + q (bound - 1) and
  trials_used <= 1 + _TRIES_PER_LEVEL * (number of random levels);
- completion and mod-q correction: last_row_max <= (n/2) M + 1 + (n - 1)(q/2) M.

Together they give last_row_max = O(n q^2 log q).

Almost-all claim: almost every element of SL_n(Z/qZ) lifts with norm
q^{1+1/n+o(1)}, which is q^{3/2} at n = 2.  The exact count N_2(T) of SL_2(Z)
within norm T bounds that scale from below: fewer than half the classes can
lift below the least T with 2 N_2(T) >= |SL_2(Z/qZ)|, so the median lift norm
is at least that T.  As N_2(T) ~ 96 T^2 / pi^2 (Hardy-Wright 18.5), that T
is close to sqrt(pi^2 / 192 * prod_{p | q} (1 - p^-2)) q^{3/2}.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from sllift import lifting, oracle
from sllift.intmat import IntMatrix
from sllift.lifting import lift, random_sl_matrix

RANDOM_MODULI = (2, 6, 101, 30030, 10**9 + 7)


def random_levels(bound: int) -> int:
    """How many levels M = 2, 4, ... (capped at bound) the row search draws at."""
    levels, level = 1, 2
    while level < bound:
        levels += 1
        level = min(2 * level, bound)
    return levels


def assert_proof_bounds(cert):
    n, q, m = cert.n, cert.q, cert.first_rows_max
    bound = max(2, math.ceil(lifting.DEFAULT_GROWTH_C * math.log2(q + 2)))
    # the same inequalities doubled, so they stay in integers
    assert 2 * m <= q + 2 * q * (bound - 1), cert
    assert 2 * cert.last_row_max <= n * m + 2 + (n - 1) * q * m, cert
    assert cert.trials_used <= 1 + lifting._TRIES_PER_LEVEL * random_levels(bound), cert


@pytest.fixture(scope="module")
def n2_certificates():
    """A seed-0 lift of every class of SL_2(Z/qZ), q = 2..16."""
    certs = []
    for q in range(2, 17):
        for a, b, c, d in itertools.product(range(q), repeat=4):
            if (a * d - b * c) % q == 1:
                certs.append(lift(IntMatrix([[a, b], [c, d]]), q, seed=0))
    return certs


def test_upper_claim_every_n2_class_to_16_meets_the_proof_bounds(n2_certificates):
    assert len(n2_certificates) == 15054  # sum of |SL_2(Z/qZ)| over q = 2..16
    for cert in n2_certificates:
        assert_proof_bounds(cert)


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("q", RANDOM_MODULI)
def test_upper_claim_random_classes_meet_the_proof_bounds(n, q):
    rng = random.Random(n * 10**10 + q)
    for _ in range(30):
        x = random_sl_matrix(n, q, rng.randrange(2**30))
        assert_proof_bounds(lift(x, q, seed=rng.randrange(2**30)))


def test_upper_claim_constant_at_n2(n2_certificates):
    # the measured C for last_row_max <= C q^2 log2(q + 2) over every n = 2
    # class at q <= 16 is 0.2422; a larger one is a regression
    worst = max(c.last_row_max / (c.q**2 * math.log2(c.q + 2)) for c in n2_certificates)
    assert worst <= 0.25


def prime_divisors(q: int) -> list[int]:
    return [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]


def test_almost_all_claim_n2_counting_scale_is_q_to_three_halves():
    # the least T with 2 N_2(T) >= |SL_2(Z/qZ)| is a lower bound on the median
    # lift norm; it sits within 0.5% of the q^{3/2} law (0.13% at worst, q = 210)
    moduli = (101, 128, 210, 512, 997, 1000, 1024, 1331, 1700)
    table = oracle.norm_count_table(2, range(1, 15811))
    for q in moduli:
        local = math.prod(1 - Fraction(1, p * p) for p in prime_divisors(q))
        order = q**3 * local
        assert order.denominator == 1
        t = next(t for t, count, _ in table if 2 * count >= order.numerator)
        predicted = math.sqrt(math.pi**2 / 192 * local) * q**1.5
        assert abs(t / predicted - 1) < 0.005, (q, t, predicted)
