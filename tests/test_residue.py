import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllift.errors import FactorLimitExceeded, NotCoprime, NotUnit, PrimeTooLarge, TooManyRoots
from sllift.residue import (
    Residue,
    _prime_power_roots,
    crt,
    ext_gcd,
    factorize,
    is_nth_power_residue,
    is_prime,
    nth_roots,
    signed,
    small_primes,
)


def brute_roots(alpha, n, m):
    """Independent oracle: scan every unit mod m."""
    return sorted(b for b in range(m) if math.gcd(b, m) == 1 and pow(b, n, m) == alpha % m)


def tree_roots(alpha, n, p, e):
    """Reference: extend each root mod p^j over all p candidates mod p^(j+1)."""
    cur = [b for b in range(1, p) if pow(b, n, p) == alpha % p]
    mod = p
    for _ in range(e - 1):
        nxt_mod = mod * p
        a = alpha % nxt_mod
        cur = [b + t * mod for b in cur for t in range(p) if pow(b + t * mod, n, nxt_mod) == a]
        mod = nxt_mod
    return tuple(sorted(cur))


def scan_prime_power_roots(alpha, n, p, e):
    """The root finder as it was before square roots left the unit scan:
    every unit mod p tried, then the same closed-form Hensel steps."""
    alpha_p = alpha % p
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


def scan_square_roots_of_every_unit(p):
    """The unit scan mod p for every alpha at once: alpha -> sorted roots."""
    table = {}
    for b in range(1, p):
        table.setdefault(b * b % p, []).append(b)
    return table


# odd primes whose p - 1 carries a high power of 2 (2^4, 2^5, 2^6, 2^8, 2^16),
# so Tonelli-Shanks runs several rounds of its inner loop
TWO_ADIC_PRIMES = [17, 97, 193, 257, 65537]


@st.composite
def prime_power_cases(draw):
    """(alpha, n, p, e) with alpha a unit mod p^e, often a perfect power."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 31]))
    e = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    pe = p**e
    unit = draw(st.integers(1, pe - 1).filter(lambda u: u % p))
    power = draw(st.sampled_from([1, n, 2 * n, draw(st.integers(1, 12))]))
    return pow(unit, power, pe), n, p, e


@pytest.fixture(scope="module")
def nthroot_mod():
    """sympy's root finder as an independent oracle; sympy is test-only."""
    return pytest.importorskip("sympy.ntheory").nthroot_mod


class TestSignedLift:
    @pytest.mark.parametrize(
        "m,a,expected",
        [(10, 9, -1), (64, 50, -14), (7, 3, 3), (10, 5, 5), (2, 1, 1), (1, 0, 0)],
    )
    def test_examples(self, m, a, expected):
        assert signed(a, m) == expected

    def test_round_trip_and_symmetry(self):
        rng = random.Random(101)
        for _ in range(500):
            m = rng.randrange(1, 5000)
            a = rng.randrange(m)
            r = signed(a, m)
            assert r % m == a
            assert abs(r) <= m / 2
            assert abs(r) == abs(signed(m - a, m))


class TestFactorize:
    def test_examples(self):
        assert factorize(48) == ((2, 4), (3, 1))
        assert factorize(97) == ((97, 1),)
        assert factorize(1) == ()

    def test_reconstructs_and_primes_increase(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randrange(1, 10**7)
            fac = factorize(m)
            assert math.prod(p**e for p, e in fac) == m
            assert all(is_prime(p) for p, _ in fac)
            assert list(p for p, _ in fac) == sorted(p for p, _ in fac)

    def test_rho_handles_large_semiprime(self):
        p, q = 1000003, 1000033
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_rho_factors_mid_sized_primes_within_the_step_cap(self):
        for p, q in ((2**31 - 1, 2**61 - 1), (1000003, 2**31 - 1)):
            assert factorize(p * q) == ((p, 1), (q, 1))

    def test_rho_attempts_share_one_step_budget(self):
        # rho needs ~sqrt(p) ~ 2^19 squarings for p ~ 1.8 * 10^11, more than
        # any attempt stopped at cycle length 2^14 makes; one attempt of the
        # shared budget gets there
        p, q = 178291937587, 11885758236351349429
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_two_large_primes_raise_instead_of_hanging(self):
        # rho needs ~sqrt(10^19) squarings here; the shared step budget
        # ends the search long before
        with pytest.raises(FactorLimitExceeded):
            factorize(10000000000000000051 * 30000000000000000041)

    @pytest.mark.parametrize(
        "m, expected",
        [
            ((2**61 - 1) ** 2, ((2**61 - 1, 2),)),
            ((10**13 + 37) ** 2, ((10**13 + 37, 2),)),
            (1000003**3 * (10**13 + 37) ** 2, ((1000003, 3), (10**13 + 37, 2))),
            ((10**13 + 51) ** 3, ((10**13 + 51, 3),)),
            ((1000003 * 1000033) ** 2, ((1000003, 2), (1000033, 2))),
            (3**5 * (2**61 - 1) ** 6, ((3, 5), (2**61 - 1, 6))),
        ],
    )
    def test_perfect_powers_of_large_primes(self, m, expected):
        # rho needs ~sqrt(p) squarings to split p^k for p beyond ~10^13,
        # past its step budget; the exact k-th root check splits them
        assert factorize(m) == expected

    def test_power_of_a_composite_is_split_once(self):
        # p * q takes most of the shared rho budget (see above); splitting
        # each of the three copies of (p q)^3 separately would exhaust it
        p, q = 178291937587, 11885758236351349429
        assert factorize((p * q) ** 3) == ((p, 3), (q, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestCrt:
    def test_examples(self):
        assert crt([(2, 3), (3, 5)]) == Residue(8, 15)
        assert crt([(1, 77)]) == Residue(1, 77)
        assert crt([(0, 3), (0, 5)]) == Residue(0, 15)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            crt([(1, 4), (0, 6)])

    def test_reduces_correctly(self):
        rng = random.Random(13)
        for _ in range(200):
            moduli = []
            pool = [3, 5, 7, 8, 11, 13, 25, 27]
            rng.shuffle(pool)
            for m in pool[: rng.randrange(1, 5)]:
                if all(math.gcd(m, other) == 1 for other in moduli):
                    moduli.append(m)
            pairs = [(rng.randrange(m), m) for m in moduli]
            combined = crt(pairs)
            assert combined.modulus == math.prod(moduli)
            for r, m in pairs:
                assert combined.value % m == r


class TestNthRoots:
    def test_examples(self):
        assert [r.value for r in nth_roots(Residue(4, 15), 2)] == [2, 7, 8, 13]
        assert [r.value for r in nth_roots(Residue(1, 8), 2)] == [1, 3, 5, 7]
        assert nth_roots(Residue(5, 9), 1) == (Residue(5, 9),)

    def test_not_unit(self):
        with pytest.raises(NotUnit):
            nth_roots(Residue(5, 15), 2)

    def test_prime_too_large(self):
        import sllift.residue as res

        # 1000003 is a prime just above the scan bound, and 3 | 1000002, so
        # cube roots still go through the unit scan
        big = 1000003
        with pytest.raises(PrimeTooLarge):
            nth_roots(Residue(1, big), 3)
        assert big > res.PRIME_SCAN_BOUND

    def test_square_roots_match_the_unit_scan_for_every_unit(self):
        for p in small_primes(2000)[1:] + [65537]:
            table = scan_square_roots_of_every_unit(p)
            for a in range(1, p):
                assert _prime_power_roots(a, 2, p, 1) == tuple(table.get(a, ())), (a, p)

    @given(
        st.sampled_from(small_primes(2000)[1:] + TWO_ADIC_PRIMES),
        st.integers(1, 4),
        st.integers(1, 10**12),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_square_roots_match_the_old_scan_at_prime_powers(self, p, e, seed, square):
        pe = p**e
        alpha = seed % pe
        if alpha % p == 0:
            alpha += 1
        if square:
            alpha = alpha * alpha % pe
        assert _prime_power_roots(alpha, 2, p, e) == scan_prime_power_roots(alpha, 2, p, e)

    def test_root_cap(self):
        # 3*5*7*11*13 gives 2^5 square roots of 1
        m = 3 * 5 * 7 * 11 * 13
        with pytest.raises(TooManyRoots):
            nth_roots(Residue(1, m), 2, limit=16)

    def test_matches_exhaustive_scan(self):
        rng = random.Random(99)
        cases = [(rng.randrange(2, 2000), rng.randrange(1, 7)) for _ in range(60)]
        cases += [(9973, 2), (10000, 2), (9996, 3), (8192, 4), (6561, 3)]
        for m, n in cases:
            units = [u for u in range(1, m) if math.gcd(u, m) == 1]
            alpha = rng.choice(units)
            got = [r.value for r in nth_roots(Residue(alpha, m), n)]
            assert got == brute_roots(alpha, n, m), (m, n, alpha)

    def test_trivial_modulus(self):
        assert nth_roots(Residue(0, 1), 3) == (Residue(0, 1),)

    @given(prime_power_cases())
    @settings(max_examples=300, deadline=None)
    def test_hensel_matches_candidate_tree(self, case):
        assert _prime_power_roots(*case) == tree_roots(*case)

    def test_hensel_cases_where_p_divides_n(self):
        # d = n b^(n-1) vanishes mod p: every t or none extends a root
        assert _prime_power_roots(1, 2, 2, 5) == tree_roots(1, 2, 2, 5) == (1, 15, 17, 31)
        assert _prime_power_roots(3, 2, 2, 5) == ()
        assert _prime_power_roots(1, 3, 3, 3) == tree_roots(1, 3, 3, 3) == (1, 10, 19)
        assert _prime_power_roots(8, 3, 3, 3) == tree_roots(8, 3, 3, 3) == (2, 11, 20)
        assert _prime_power_roots(2, 3, 3, 3) == ()

    @given(
        st.sampled_from(small_primes(2000)),
        st.integers(1, 12),
        st.integers(1, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy_at_primes(self, nthroot_mod, p, n, seed):
        a = seed % (p - 1) + 1 if p > 2 else 1
        got = [r.value for r in nth_roots(Residue(a, p), n)]
        assert got == sorted(nthroot_mod(a, n, p, all_roots=True)), (a, n, p)

    @pytest.mark.parametrize(
        "p",
        # beyond the scan bound; 998244353 = 119 * 2^23 + 1 and
        # 3221225473 = 3 * 2^30 + 1 run long Tonelli-Shanks inner loops
        [1000003, 10**9 + 7, 998244353, 2**31 - 1, 3221225473, 2**61 - 1],
    )
    def test_square_roots_match_sympy_at_large_primes(self, nthroot_mod, p):
        rng = random.Random(p)
        for a in [1, 2, 3, p - 1, *(rng.randrange(1, p) for _ in range(20))]:
            got = [r.value for r in nth_roots(Residue(a, p), 2)]
            assert got == sorted(nthroot_mod(a, 2, p, all_roots=True)), (a, p)
            # each root lifts to exactly one root mod p^2
            lifted = _prime_power_roots(a, 2, p, 2)
            assert sorted(r % p for r in lifted) == got
            assert all(pow(r, 2, p * p) == a for r in lifted)


class TestIsNthPowerResidue:
    def test_examples(self):
        assert is_nth_power_residue(Residue(4, 15), 2) is True
        assert is_nth_power_residue(Residue(7, 15), 2) is False
        assert is_nth_power_residue(Residue(1, 999), 5) is True

    def test_not_unit(self):
        with pytest.raises(NotUnit):
            is_nth_power_residue(Residue(3, 15), 2)

    def test_agrees_with_roots(self):
        rng = random.Random(3)
        for _ in range(120):
            m = rng.randrange(2, 3000)
            n = rng.randrange(1, 7)
            units = [u for u in range(1, m) if math.gcd(u, m) == 1]
            a = rng.choice(units)
            assert is_nth_power_residue(Residue(a, m), n) == bool(
                nth_roots(Residue(a, m), n)
            ), (m, n, a)

    def test_power_of_two_moduli(self):
        # the 2-adic branch goes through the lifting tree
        for e in range(1, 9):
            m = 2**e
            for a in range(1, m, 2):
                expected = bool(brute_roots(a, 2, m))
                assert is_nth_power_residue(Residue(a, m), 2) == expected


def test_ext_gcd():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.randrange(-10**6, 10**6)
        b = rng.randrange(-10**6, 10**6)
        g, s, t = ext_gcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


def test_small_primes():
    assert small_primes(2) == []
    assert small_primes(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(small_primes(10**4)) == 1229
