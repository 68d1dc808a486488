import itertools
import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sllift.lifting as lifting
from sllift import intmat
from sllift.errors import InvalidInput, NotExtendable, NotExtendableModQ, SearchExhausted
from sllift.intmat import IntMatrix, det
from sllift.lifting import (
    complete_rows,
    is_extendable,
    lift,
    lift_rows,
    random_sl_matrix,
)
from sllift.residue import signed


class TestIsExtendable:
    def test_examples(self):
        assert is_extendable(IntMatrix([[1, 0, 0], [0, 1, 0]]))
        assert not is_extendable(IntMatrix([[2, 4]]))
        assert is_extendable(IntMatrix([[3, 5]]))

    def test_zero_rows(self):
        assert not is_extendable(IntMatrix([[0, 0]]))


class TestLiftRows:
    def test_identity_needs_no_offset(self):
        for q in (5, 16, 101):
            top = IntMatrix([[1, 0, 0], [0, 1, 0]])
            b, _, _ = lift_rows(top, q, seed=1)
            assert b == top

    def test_congruence_and_coprimality_n2(self):
        b, _, _ = lift_rows(IntMatrix([[2, 4]]), 5, seed=3)
        assert all((x - y) % 5 == 0 for x, y in zip(b.rows[0], (2, 4)))
        assert math.gcd(*b.rows[0]) == 1

    def test_not_extendable_mod_q(self):
        with pytest.raises(NotExtendableModQ):
            lift_rows(IntMatrix([[2, 4]]), 8, seed=0)

    def test_random_instances_with_offset_bound(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randrange(2, 5)
            q = rng.choice([7, 12, 101, 360])
            x = random_sl_matrix(n, q, rng.randrange(2**30))
            top = IntMatrix(x.rows[: n - 1])
            b, _, _ = lift_rows(top, q, seed=rng.randrange(2**30))
            assert is_extendable(b)
            bound = max(2, math.ceil(lifting.DEFAULT_GROWTH_C * math.log2(q + 2)))
            for i in range(n - 1):
                for j in range(n):
                    diff = b.rows[i][j] - lifting.signed(top.rows[i][j], q)
                    assert diff % q == 0
                    assert abs(diff) <= q * bound


def reference_lift_rows(a, q, seed):
    """The row search as two hand-written stages (zero offset, doubling
    random levels), kept to check the one-stream search."""
    base = [[signed(x, q) for x in row] for row in a.rows]
    rows = len(base)
    cols = len(base[0])

    b = IntMatrix(base)
    minors = intmat.maximal_minors(b)
    g = reduce(math.gcd, minors)
    if math.gcd(g, q) != 1:
        raise NotExtendableModQ(f"row minors share a factor with q={q}")
    trials = 1
    if g == 1:
        return b, minors, trials

    def accept(b):
        minors = intmat.maximal_minors(b)
        return minors if reduce(math.gcd, minors) == 1 else None

    rng = random.Random(seed)
    bound = max(2, math.ceil(lifting.DEFAULT_GROWTH_C * math.log2(q + 2)))
    level = 2
    while True:
        for _ in range(lifting._TRIES_PER_LEVEL):
            trials += 1
            b = IntMatrix(
                [[base[i][j] + q * rng.randrange(level) for j in range(cols)] for i in range(rows)]
            )
            minors = accept(b)
            if minors is not None:
                return b, minors, trials
        if level >= bound:
            break
        level = min(2 * level, bound)

    raise SearchExhausted(f"no extendable row lift found for q={q} (trials={trials})")


def _search_outcome(search, a, q, seed):
    try:
        b, minors, trials = search(a, q, seed)
    except (NotExtendableModQ, SearchExhausted) as exc:
        return type(exc), str(exc)
    return b.rows, minors, trials


DIFFERENTIAL_MODULI = (2, 3, 4, 7, 8, 12, 30, 101, 360, 1024, 9973, 30030, 10**9 + 7, 223092870)


class TestRowSearchDifferential:
    @pytest.mark.parametrize("tries_per_level", [None, 0, 1])
    def test_matches_staged_reference(self, monkeypatch, tries_per_level):
        if tries_per_level is not None:
            monkeypatch.setattr(lifting, "_TRIES_PER_LEVEL", tries_per_level)
        rng = random.Random(61)
        kinds = {"zero": 0, "search": 0, "mod_q": 0, "exhausted": 0}
        for n, q, _ in itertools.product(range(2, 6), DIFFERENTIAL_MODULI, range(3)):
            tops = [IntMatrix(random_sl_matrix(n, q, rng.randrange(2**30)).rows[: n - 1])]
            # entries sharing a factor d force a search when gcd(d, q) = 1
            # and NotExtendableModQ when it is not
            for d in (3, rng.choice((2, 5, 7))):
                entries = [[d * rng.randrange(q) % q for _ in range(n)] for _ in range(n - 1)]
                tops.append(IntMatrix(entries))
            for top in tops:
                seed = rng.randrange(2**30)
                want = _search_outcome(reference_lift_rows, top, q, seed)
                got = _search_outcome(lift_rows, top, q, seed)
                assert got == want, (n, q, top.rows, seed)
                if want[0] is NotExtendableModQ:
                    kinds["mod_q"] += 1
                elif want[0] is SearchExhausted:
                    kinds["exhausted"] += 1
                else:
                    kinds["zero" if want[2] == 1 else "search"] += 1
        assert kinds["zero"] and kinds["mod_q"]
        if tries_per_level == 0:
            assert kinds["exhausted"]
        else:
            assert kinds["search"]


class TestCompleteRows:
    def test_identity_top(self):
        for n in (2, 3, 5):
            top = IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n - 1)])
            v = complete_rows(top, intmat.maximal_minors(top))
            assert v == tuple(1 if j == n - 1 else 0 for j in range(n))

    def test_small_example(self):
        assert complete_rows(IntMatrix([[3, 5]]), (-5, 3)) == (1, 2)

    def test_not_extendable(self):
        with pytest.raises(NotExtendable):
            complete_rows(IntMatrix([[2, 4]]), (-4, 2))

    def test_random_bound_holds_exactly(self):
        rng = random.Random(29)
        done = 0
        while done < 200:
            n = rng.randrange(2, 6)
            b = IntMatrix(
                [[rng.randrange(-1000, 1001) for _ in range(n)] for _ in range(n - 1)]
            )
            if not is_extendable(b):
                continue
            v = complete_rows(b, intmat.maximal_minors(b))
            assert det(b.with_row(v)) == 1
            # exact integer form of max|v| <= (n/2) max|B| + 1
            assert 2 * max(abs(x) for x in v) <= n * b.max_norm() + 2
            done += 1


class TestLift:
    def test_identity(self):
        cert = lift(IntMatrix.identity(3).reduce_mod(7), 7, seed=0)
        assert det(cert.gamma) == 1
        assert cert.gamma.reduce_mod(7) == IntMatrix.identity(3).reduce_mod(7)

    def test_modulus_one_returns_identity(self):
        cert = lift(IntMatrix([[0, 0], [0, 0]]), 1, seed=9)
        assert cert.gamma == IntMatrix.identity(2)
        assert cert.trials_used == 0

    def test_rejects_bad_determinant(self):
        with pytest.raises(InvalidInput):
            lift(IntMatrix([[1, 0], [0, 2]]), 8)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInput):
            lift(IntMatrix([[1, 0]]), 8)

    def test_q_is_read_as_an_int(self):
        # q = True gave a certificate whose q was True
        cert = lift(IntMatrix([[1, 0], [0, 1]]), True)
        assert type(cert.q) is int and cert.q == 1
        assert type(lift(IntMatrix([[2, 0], [0, 3]]), True + 4).q) is int

    def test_gamma_depends_only_on_the_class(self):
        # lift reads x reduced mod q, so a representative off [0, q) lifts alike
        rng = random.Random(34)
        for n, q in [(2, 8), (3, 30), (4, 101)]:
            x = random_sl_matrix(n, q, rng.randrange(2**30))
            shifted = IntMatrix([[v + q * rng.randrange(-5, 6) for v in row] for row in x.rows])
            assert lift(shifted, q, seed=3) == lift(x, q, seed=3)

    def test_sarnak_style_input(self):
        cert = lift(IntMatrix([[5, 0], [0, 5]]), 8, seed=1)
        assert det(cert.gamma) == 1
        assert cert.gamma.reduce_mod(8) == IntMatrix([[5, 0], [0, 5]])
        assert cert.gamma.max_norm() >= 13  # oracle minimum for this class

    def test_random_soundness(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randrange(2, 5)
            q = rng.choice([5, 12, 101, 1024])
            x = random_sl_matrix(n, q, rng.randrange(2**30))
            cert = lift(x, q, seed=rng.randrange(2**30))
            assert det(cert.gamma) == 1
            assert cert.gamma.reduce_mod(q) == x.reduce_mod(q)
            top = IntMatrix(cert.gamma.rows[: n - 1])
            assert cert.first_rows_max == top.max_norm()
            assert cert.last_row_max == max(abs(e) for e in cert.gamma.rows[n - 1])

    def test_n32_large_prime(self):
        q = 10**9 + 7
        x = random_sl_matrix(32, q, 5)
        cert = lift(x, q, seed=0)
        assert det(cert.gamma) == 1
        assert cert.gamma.reduce_mod(q) == x.reduce_mod(q)
        assert cert.first_rows_max < q

    def test_determinism(self):
        x = random_sl_matrix(3, 101, 77)
        a = lift(x, 101, seed=5)
        b = lift(x, 101, seed=5)
        assert a.gamma == b.gamma and a.trials_used == b.trials_used

    def test_minors_once_per_trial(self, monkeypatch):
        # lift runs each public stage once, and the accepted candidate's
        # minors feed the completion: only a rejected candidate costs a
        # further maximal_minors call, and every call is a search trial
        events, open_stages = [], []

        def staged(name, stage):
            def run(*args):
                events.append(name)
                open_stages.append(name)
                try:
                    return stage(*args)
                finally:
                    open_stages.pop()

            return run

        original = lifting.intmat.maximal_minors

        def counted(b):
            events.append(("minors", tuple(open_stages)))
            return original(b)

        monkeypatch.setattr(lifting.intmat, "maximal_minors", counted)
        for name in ("lift_rows", "complete_rows"):
            monkeypatch.setattr(lifting, name, staged(name, getattr(lifting, name)))
        rng = random.Random(53)
        retried = 0
        for _ in range(60):
            n = rng.randrange(2, 6)
            q = rng.choice([2, 12, 101, 360, 10**9 + 7])
            x = random_sl_matrix(n, q, rng.randrange(2**30))
            events.clear()
            cert = lift(x, q, seed=rng.randrange(2**30))
            trials = [("minors", ("lift_rows",))] * cert.trials_used
            assert events == ["lift_rows", *trials, "complete_rows"]
            retried += cert.trials_used > 1
        assert retried > 0

    def test_row_bound_ratios_small_scale(self):
        # the measured constants at desk scale stay far below the pin used
        # in the acceptance suite
        rng = random.Random(43)
        for q in (16, 101):
            for n in (2, 3):
                worst_first = worst_last = 0.0
                for _ in range(25):
                    x = random_sl_matrix(n, q, rng.randrange(2**30))
                    cert = lift(x, q, seed=rng.randrange(2**30))
                    worst_first = max(worst_first, cert.first_rows_max / (q * math.log2(q)))
                    worst_last = max(worst_last, cert.last_row_max / (q * q * math.log2(q)))
                assert worst_first < 4.0
                assert worst_last < 4.0


class TestLiftProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 6),
        st.one_of(st.integers(2, 10**6), st.sampled_from([4, 8, 12, 360, 1024, 30030, 720720])),
        st.integers(0, 2**30),
        st.integers(0, 2**30),
    )
    def test_soundness(self, n, q, x_seed, seed):
        x = random_sl_matrix(n, q, x_seed)
        cert = lift(x, q, seed=seed)
        gamma = cert.gamma
        assert det(gamma) == 1
        assert gamma.reduce_mod(q) == x.reduce_mod(q)
        assert cert.first_rows_max == max(abs(e) for row in gamma.rows[: n - 1] for e in row)
        assert cert.last_row_max == max(abs(e) for e in gamma.rows[n - 1])
        assert lift(x, q, seed=seed) == cert


def test_random_sl_matrix_determinant():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 6)
        q = rng.randrange(2, 500)
        x = random_sl_matrix(n, q, rng.randrange(2**30))
        assert det(x) % q == 1 % q
        assert all(0 <= e < q for row in x.rows for e in row)
