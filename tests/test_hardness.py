import math
from fractions import Fraction

import pytest

from sllift import hardness
from sllift.errors import InvalidInput, SieveExhausted
from sllift.hardness import (
    RootWitness,
    find_large_root,
    hard_instance,
    is_rational_nth_power,
    small_nth_powers,
    small_p_factor_root,
    trace_family_instance,
)
from sllift.intmat import IntMatrix, det
from sllift.oracle import EnumSpec, iter_sl, min_lift_norm
from sllift.residue import Residue, int_nth_root, signed


def brute_best(modulus, n, budget):
    """Independent oracle: scan every unit beta, keep |alpha| <= budget."""
    best = -1
    for beta in range(1, modulus):
        if math.gcd(beta, modulus) != 1:
            continue
        alpha = pow(beta, n, modulus)
        if abs(signed(alpha, modulus)) <= budget:
            best = max(best, abs(signed(n * beta, modulus)))
    return best


class TestFindLargeRoot:
    def test_roots_of_unity_mod_15(self):
        w = find_large_root(15, 2, 1)
        assert (w.alpha.value, w.beta.value, w.abs_n_beta) == (1, 4, 7)
        assert w.abs_n_beta == brute_best(15, 2, 1)

    def test_budget_17_mod_64(self):
        # alpha = -7 (canonical 57) with beta = 11 beats every smaller alpha
        w = find_large_root(64, 2, 17)
        assert (w.alpha.value, w.abs_alpha, w.beta.value, w.abs_n_beta) == (57, 7, 11, 22)
        assert w.abs_n_beta == brute_best(64, 2, 17)

    def test_n_one_collapses(self):
        w = find_large_root(101, 1, 3)
        assert w.degenerate
        assert w.beta == w.alpha
        assert w.abs_n_beta <= 3

    def test_target_flags_best_effort(self):
        w = find_large_root(5, 2, 16, target=3)
        assert w.flagged
        assert w.abs_n_beta == 2  # |2*beta| <= 2 for every unit beta mod 5
        assert w.method == "search"
        for n in (1, 2):
            full = find_large_root(5, n, 16)
            flagged = find_large_root(5, n, 16, target=3)
            assert flagged.flagged and not full.flagged
            assert flagged.degenerate == full.degenerate == (n == 1)

    def test_early_stop_matches_full_scan(self):
        full = find_large_root(101, 2, 8)
        stopped = find_large_root(101, 2, 8, target=full.abs_n_beta)
        assert stopped.abs_n_beta == full.abs_n_beta
        assert not stopped.flagged

    def test_matches_brute_force_sweep(self):
        for m in (9, 16, 21, 27, 49, 100, 121):
            for n in (2, 3):
                w = find_large_root(m, n, 5)
                assert w.abs_n_beta == brute_best(m, n, 5), (m, n)
                assert pow(w.beta.value, n, m) == w.alpha.value

    def test_witness_validation(self):
        with pytest.raises(ValueError):
            RootWitness(15, 2, Residue(4, 15), Residue(3, 15))

    def test_root_cap_skips_alpha(self, monkeypatch):
        # alpha = 1 mod 3*5*7*11*13 has 32 square roots; with the cap at 16
        # it is skipped, and no other |alpha| <= 2 is a square, so the
        # search honestly reports that nothing was admissible
        from sllift.errors import NoUnitAlpha

        monkeypatch.setattr(hardness, "ROOT_CAP", 16)
        with pytest.warns(UserWarning), pytest.raises(NoUnitAlpha):
            find_large_root(3 * 5 * 7 * 11 * 13, 2, 2)


class TestSmallPFactorRoot:
    def test_fifteen(self):
        w = small_p_factor_root(15, 2, 2)
        assert w is not None
        assert w.alpha.value == 1
        assert w.beta.value == 11
        assert w.abs_n_beta == 7
        assert w.abs_n_beta > 15 ** (1 / 2) - 2

    def test_prime_without_factor(self):
        assert small_p_factor_root(5, 3, 2) is None

    def test_power_of_two(self):
        assert small_p_factor_root(1024, 2, 2) is None

    @pytest.mark.parametrize("n,k", [(2, -1), (2, 0), (-3, 2), (0, 2)])
    def test_n_and_k_below_one_are_refused(self, n, k):
        # at k = -1, q = 637 = 7^2 * 13 would give the 49 | 637 witness,
        # which p^m < q^(1/k) excludes; n = -3 would reach nth_roots
        with pytest.raises(InvalidInput, match=f"need n >= 1 and k >= 1, got n={n}, k={k}"):
            small_p_factor_root(637, n, k)

    def test_guarantee_over_sweep(self):
        for q in range(6, 400):
            w = small_p_factor_root(q, 2, 2)
            if w is None:
                continue
            assert pow(w.beta.value, 2, q) == 1
            assert w.abs_n_beta > q ** (1 / 2) - 2, q


class TestSmallNthPowers:
    def test_mod_101_pairs(self):
        pairs = small_nth_powers(101, 2, 2)
        assert [(a.value, i) for a, _, i in pairs] == [(6, 6), (25, 25)]
        for alpha, beta, _ in pairs:
            assert pow(beta.value, 2, 101) == alpha.value
        assert not is_rational_nth_power(6, 25, 2)

    def test_self_match_when_all_primes_are_powers(self):
        # every unit mod 2 is a square, so the first odd prime matches itself
        pairs = small_nth_powers(2, 2, 1)
        (alpha, beta, alpha_int) = pairs[0]
        assert alpha_int == 9 and beta.value == 1

    def test_pairwise_constraint_rejects_second_self_match(self, monkeypatch):
        # mod 8 squares are {1}: primes 1 mod 8 self-match; ratios of two
        # self-matches are exact squares, so only distinct-class pairs follow
        monkeypatch.setattr(hardness, "SIEVE_PRIME_BUDGET", 500)
        pairs = small_nth_powers(8, 2, 3)
        ints = [i for _, _, i in pairs]
        for a in ints:
            for b in ints:
                if a != b:
                    assert not is_rational_nth_power(a, b, 2)

    def test_sieve_exhausted(self, monkeypatch):
        monkeypatch.setattr(hardness, "SIEVE_PRIME_BUDGET", 30)
        with pytest.raises(SieveExhausted):
            small_nth_powers(8, 2, 50)

    def test_validity_across_moduli(self, monkeypatch):
        monkeypatch.setattr(hardness, "SIEVE_PRIME_BUDGET", 1000)
        for q in (35, 64, 99, 256):
            pairs = small_nth_powers(q, 3, 2)
            for alpha, beta, alpha_int in pairs:
                assert alpha_int % q == alpha.value
                assert pow(beta.value, 3, q) == alpha.value

    def test_exponent_beyond_float_range(self):
        # alpha_int = p^400 has over 400 bits, past any float root
        pairs = small_nth_powers(11, 400, 2)
        assert len(pairs) == 2
        for alpha, beta, alpha_int in pairs:
            assert alpha_int % 11 == alpha.value
            assert pow(beta.value, 400, 11) == alpha.value
        assert not is_rational_nth_power(pairs[0][2], pairs[1][2], 400)


class TestIntNthRoot:
    @staticmethod
    def check(x, n):
        r = int_nth_root(x, n)
        assert r**n <= x < (r + 1) ** n, (x, n)
        return r

    def test_beyond_float_range(self):
        for n in (1, 2, 3, 7, 400, 1329, 2000):
            self.check(10**400, n)
        assert self.check(10**400, 2) == 10**200
        assert self.check(10**400, 400) == 10

    def test_at_exact_powers(self):
        for n in (1, 2, 3, 5, 11):
            for k in (2, 3, 10, 2**26 + 1, 3**30, 2**53 + 1, 2**70 - 1, 2**70):
                assert self.check(k**n, n) == k
                assert self.check(k**n - 1, n) == (k - 1 if n > 1 else k**n - 1)
                assert self.check(k**n + 1, n) == (k if n > 1 else k**n + 1)


class TestEmpiricalLargeRoots:
    def test_constant_over_sweep(self):
        # best witness per q (search budget 16 with the small-factor
        # fallback) keeps |n*beta| >= c * sqrt(q); the constant first
        # measured on this sweep was 0.5774 at q = 3, pinned to half that
        worst = None
        for q in range(3, 301):
            w = find_large_root(q, 2, 16, target=math.isqrt(q - 1) + 1)
            other = small_p_factor_root(q, 2, 2)
            if other is not None and other.abs_n_beta > w.abs_n_beta:
                w = other
            worst = min(worst or 10.0, w.abs_n_beta / math.sqrt(q))
        assert worst >= 0.5773 / 2


class TestHardInstance:
    def test_q8_budget17(self):
        inst = hard_instance(8, 2, 17)
        w = inst.witness
        assert (w.alpha.value, w.beta.value, w.abs_n_beta) == (57, 11, 22)
        assert inst.x == IntMatrix([[3, 0], [0, 3]])
        assert inst.lower_bound == Fraction(11, 7)
        assert det(inst.x) % 8 == 1

    def test_congruence_on_all_enumerated_lifts(self):
        inst = hard_instance(8, 2, 17)
        m2 = 64
        a_val = inst.witness.alpha.value
        nb = (2 * inst.witness.beta.value) % m2
        lifts = list(iter_sl(EnumSpec(n=2, caps=(30, 30), q=8, x=inst.x.rows)))
        assert lifts  # the scan reaches at least one lift
        for g in lifts:
            a1, a2 = g[0][0], g[1][1]
            assert (a_val * a1 + a2) % m2 == nb
            # diagonal bound: forced by the congruence
            assert max(abs(a1), abs(a2)) >= inst.lower_bound

    def test_unit_root_witness_gives_unit_determinant(self):
        inst = hard_instance(15, 2, 1)
        assert inst.witness.alpha.value == 1 or inst.witness.abs_alpha == 1
        assert det(inst.x) % 15 == 1

    def test_lower_bound_formula(self):
        inst = hard_instance(9973, 3, 40)
        w = inst.witness
        assert inst.lower_bound == Fraction(w.abs_n_beta, 3 * w.abs_alpha)
        assert pow(w.beta.value, 3, w.modulus) == w.alpha.value

    def test_rejects_tiny_q(self):
        with pytest.raises(InvalidInput):
            hard_instance(1, 2)


class TestTraceFamily:
    @pytest.mark.parametrize(
        "m,q,trace,bound",
        [(1, 8, 18, 8), (2, 16, 66, 32), (3, 24, 146, 72)],
    )
    def test_values(self, m, q, trace, bound):
        inst = trace_family_instance(m)
        assert inst.q == q
        assert inst.trace_mod_q2 == trace
        assert inst.lower_bound == bound
        assert inst.x == IntMatrix([[(1 - 4 * m) % q, 0], [0, (1 + 4 * m) % q]])
        w = inst.witness
        assert pow(w.beta.value, 2, q * q) == w.alpha.value

    def test_oracle_minimum_m1(self):
        inst = trace_family_instance(1)
        assert min_lift_norm(inst.x, 8, 64) == 13

    def test_trace_invariant_on_lifts(self):
        inst = trace_family_instance(1)
        for g in iter_sl(EnumSpec(n=2, caps=(20, 20), q=8, x=inst.x.rows)):
            assert (g[0][0] + g[1][1]) % 64 == 18

    def test_rejects_zero(self):
        with pytest.raises(InvalidInput):
            trace_family_instance(0)
