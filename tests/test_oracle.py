import itertools
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sllift import oracle
from sllift.errors import BudgetExceeded, InvalidInput
from sllift.hardness import hard_instance, trace_family_instance
from sllift.intmat import IntMatrix, adjugate_mod, maximal_minors
from sllift.lifting import lift, random_sl_matrix
from sllift.oracle import (
    EnumSpec,
    candidate_count,
    count_sl,
    current_budget,
    exists_sl,
    iter_sl,
    min_lift_norm,
    norm_count_table,
)
from sllift.residue import factorize


def _det(g):
    if len(g) == 1:
        return g[0][0]
    return sum(
        (-1) ** j * g[0][j] * _det([row[:j] + row[j + 1 :] for row in g[1:]])
        for j in range(len(g))
    )


def brute_force(spec):
    """Every det-1 matrix in the caps box matching the congruence, by full scan."""
    n = spec.n
    boxes = [range(-spec.caps[i], spec.caps[i] + 1) for i in range(n) for _ in range(n)]
    out = []
    for flat in itertools.product(*boxes):
        g = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if spec.q and any((g[i][j] - spec.x[i][j]) % spec.q for i in range(n) for j in range(n)):
            continue
        if _det(g) == 1:
            out.append(g)
    return out


def bisection_reference(x, q, t_max):
    """min_lift_norm by its earlier schedule: double T from the least value
    every entry reaches until exists_sl finds a lift, then bisect with
    exists_sl over the achievable ladder values of that last doubling window."""
    n = x.nrows
    residues = {v % q for row in x.rows for v in row}
    t = max(min(r, q - r) for r in residues)
    if t > t_max:
        return None

    def exists(t):
        return exists_sl(EnumSpec(n=n, caps=(t,) * n, q=q, x=x.rows))

    low = t - 1  # no lift has max norm <= low
    while not exists(t):
        if t >= t_max:
            return None
        low, t = t, min(2 * t, t_max)
    steps = sorted({abs(v) for r in residues for v in oracle._ladder(r, q, t) if abs(v) > low})
    lo, hi = 0, len(steps) - 1  # the last step has a lift, as t does
    while lo < hi:
        mid = (lo + hi) // 2
        if exists(steps[mid]):
            hi = mid
        else:
            lo = mid + 1
    return steps[lo]


def search_classes():
    """The search benchmark's min_lift classes: hard instances and the trace family."""
    classes = [(hard_instance(q, 2).x, q, 4 * q * q) for q in range(8, 61)]
    for m in (1, 2, 3, 4):
        inst = trace_family_instance(m)
        classes.append((inst.x, inst.q, 2 * inst.q**2))
    return classes


class TestEnumSpec:
    def test_caps_must_be_positive(self):
        with pytest.raises(InvalidInput):
            EnumSpec(n=2, caps=(0, 1))
        with pytest.raises(InvalidInput):
            EnumSpec(n=2, caps=(1,))

    def test_congruence_needs_target(self):
        with pytest.raises(InvalidInput):
            EnumSpec(n=2, caps=(1, 1), q=3)
        with pytest.raises(InvalidInput):
            EnumSpec(n=2, caps=(1, 1), x=((1, 0), (0, 1)))

    def test_target_must_be_unimodular(self):
        with pytest.raises(InvalidInput):
            EnumSpec(n=2, caps=(1, 1), q=4, x=((2, 0), (0, 1)))


class TestCountSl:
    def test_f1_is_twenty(self):
        assert count_sl(EnumSpec(n=2, caps=(1, 1))) == 20

    def test_congruence_filter(self):
        spec = EnumSpec(n=2, caps=(1, 1), q=2, x=((1, 0), (0, 1)))
        assert count_sl(spec) == 2

    def test_n_one(self):
        assert count_sl(EnumSpec(n=1, caps=(1,))) == 1
        assert count_sl(EnumSpec(n=1, caps=(3,), q=5, x=((1,),))) == 1
        assert count_sl(EnumSpec(n=1, caps=(3,), q=9, x=((1,),))) == 1

    def test_count_exists_and_order_match_brute_force(self):
        # differential against a brute-force scan of the whole box: counts,
        # existence and the full iteration order (lexicographic row-major)
        rng = random.Random(5)
        specs = []
        for _ in range(15):
            caps = (rng.randrange(1, 5), rng.randrange(1, 5))
            if rng.getrandbits(1):
                q = rng.choice([2, 3, 5])
                x = random_sl_matrix(2, q, rng.randrange(2**30))
                specs.append(EnumSpec(n=2, caps=caps, q=q, x=x.rows))
            else:
                specs.append(EnumSpec(n=2, caps=caps))
        specs.append(EnumSpec(n=3, caps=(1, 1, 1)))
        for q in (2, 3):
            x = random_sl_matrix(3, q, rng.randrange(2**30))
            specs.append(EnumSpec(n=3, caps=(1, 1, 1), q=q, x=x.rows))
        for spec in specs:
            expected = brute_force(spec)
            assert count_sl(spec) == len(expected), spec
            assert exists_sl(spec) == bool(expected), spec
            assert list(iter_sl(spec)) == sorted(expected), spec

    def test_n3_small(self):
        # all of SL_3 within norm 1: known small-count sanity value, checked
        # against a direct filtered scan of the iterator
        spec = EnumSpec(n=3, caps=(1, 1, 1))
        assert count_sl(spec) == len(list(iter_sl(spec)))

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setenv("SLLIFT_BUDGET", "1000")
        spec = EnumSpec(n=2, caps=(100, 100))
        with pytest.raises(BudgetExceeded):
            count_sl(spec)

    def test_env_budget_must_be_decimal(self, monkeypatch):
        monkeypatch.setenv("SLLIFT_BUDGET", "1e6")
        with pytest.raises(InvalidInput, match="SLLIFT_BUDGET"):
            current_budget()
        with pytest.raises(InvalidInput, match="SLLIFT_BUDGET"):
            count_sl(EnumSpec(n=2, caps=(1, 1)))

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("SLLIFT_BUDGET", "50")
        assert current_budget() == 50
        with pytest.raises(BudgetExceeded):
            count_sl(EnumSpec(n=2, caps=(10, 10)))
        monkeypatch.delenv("SLLIFT_BUDGET")
        assert current_budget() == 10**9

    def test_transpose_inverse_symmetry(self):
        # for n = 2 the entry multiset of the inverse transpose matches the
        # original, so constrained counts agree under x -> x^(-T)
        rng = random.Random(7)
        for _ in range(10):
            q = rng.choice([3, 4, 5, 8])
            x = random_sl_matrix(2, q, rng.randrange(2**30))
            xit = IntMatrix(zip(*adjugate_mod(x, q).rows))
            caps = (3, 3)
            a = count_sl(EnumSpec(n=2, caps=caps, q=q, x=x.rows))
            b = count_sl(EnumSpec(n=2, caps=caps, q=q, x=xit.rows))
            assert a == b


class TestIterSl:
    def test_matches_count(self):
        rng = random.Random(11)
        for _ in range(10):
            caps = (rng.randrange(1, 4), rng.randrange(1, 4))
            spec = EnumSpec(n=2, caps=caps)
            mats = list(iter_sl(spec))
            assert len(mats) == count_sl(spec)
            assert len(set(mats)) == len(mats)
            for g in mats:
                assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1
                assert max(abs(e) for r in g for e in r) <= max(caps)

    def test_budget_raises_eagerly(self, monkeypatch):
        monkeypatch.setenv("SLLIFT_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            iter_sl(EnumSpec(n=2, caps=(100, 100)))

    def test_degenerate_cofactor_stratum(self):
        # matrices [[0, b], [c, d]] arise only via the direct-enumeration branch
        mats = [g for g in iter_sl(EnumSpec(n=2, caps=(2, 2))) if g[0][0] == 0]
        assert mats
        for g in mats:
            assert g[0][1] * g[1][0] == -1


class TestMinLiftNorm:
    def test_identity(self):
        assert min_lift_norm(IntMatrix.identity(2).reduce_mod(7), 7, 50) == 1
        assert min_lift_norm(IntMatrix.identity(3).reduce_mod(4), 4, 50) == 1

    def test_sarnak_golden(self):
        assert min_lift_norm(IntMatrix([[5, 0], [0, 5]]), 8, 200) == 13

    def test_antidiagonal_mod_4(self):
        assert min_lift_norm(IntMatrix([[0, 3], [1, 0]]), 4, 64) == 1

    def test_unbounded_within_t_max(self):
        assert min_lift_norm(IntMatrix([[5, 0], [0, 5]]), 8, 12) is None

    def test_monotone_in_t_max(self):
        x = IntMatrix([[5, 0], [0, 5]])
        assert min_lift_norm(x, 8, 13) == 13
        assert min_lift_norm(x, 8, 500) == 13

    def test_matches_direct_scan(self):
        rng = random.Random(13)
        for _ in range(12):
            q = rng.choice([3, 4, 6, 8])
            x = random_sl_matrix(2, q, rng.randrange(2**30))
            got = min_lift_norm(x, q, 3 * q)
            # independent scan: grow T one unit at a time over the raw range
            direct = None
            for t in range(1, 3 * q + 1):
                if any(True for _ in iter_sl(EnumSpec(n=2, caps=(t, t), q=q, x=x.rows))):
                    direct = t
                    break
            # the ladder answer is the exact max-norm, the unit scan finds
            # the first threshold containing it
            if direct is None:
                assert got is None
            else:
                assert got is not None and got <= direct
                assert any(
                    max(abs(e) for r in g for e in r) == got
                    for g in iter_sl(EnumSpec(n=2, caps=(got, got), q=q, x=x.rows))
                )

    def test_oracle_lower_bounds_lift(self):
        rng = random.Random(17)
        for _ in range(8):
            q = rng.choice([4, 6, 8])
            x = random_sl_matrix(2, q, rng.randrange(2**30))
            minimum = min_lift_norm(x, q, 4 * q * q)
            cert = lift(x, q, seed=rng.randrange(2**30))
            assert minimum is not None
            assert cert.gamma.max_norm() >= minimum

    def test_modulus_one(self):
        assert min_lift_norm(IntMatrix([[0, 0], [0, 0]]), 1, 10) == 1

    def test_memory_follows_answer_not_t_max(self):
        tracemalloc.start()
        try:
            assert min_lift_norm(IntMatrix.identity(2), 1009, 10**8) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_matches_bisection_on_search_classes(self):
        for x, q, t_max in search_classes():
            assert min_lift_norm(x, q, t_max) == bisection_reference(x, q, t_max), q

    def test_matches_bisection_on_every_small_n2_class(self):
        for q in range(2, 8):
            for a, b, c, d in itertools.product(range(q), repeat=4):
                if (a * d - b * c) % q == 1 % q:
                    x = IntMatrix([[a, b], [c, d]])
                    for t_max in (q, q * q):
                        assert min_lift_norm(x, q, t_max) == bisection_reference(x, q, t_max), (x, q, t_max)

    def test_matches_bisection_on_seeded_n2_classes(self):
        rng = random.Random(19)
        for _ in range(120):
            q = rng.randrange(8, 41)
            x = random_sl_matrix(2, q, rng.randrange(2**30))
            assert min_lift_norm(x, q, 4 * q * q) == bisection_reference(x, q, 4 * q * q), (x, q)

    def test_matches_bisection_on_seeded_n3_classes(self):
        rng = random.Random(23)
        for q in (2, 3, 4):
            for _ in range(40):
                x = random_sl_matrix(3, q, rng.randrange(2**30))
                t_max = rng.choice([1, 2, 4, 8])
                assert min_lift_norm(x, q, t_max) == bisection_reference(x, q, t_max), (x, q, t_max)

    @pytest.mark.parametrize(
        "rows, q, t_max",
        [
            # n = 2: the least lift's second row reaches best - 1 for an
            # earlier best, so the ladders must be cut at best - 1, no lower
            (((19, 10), (5, 6)), 21, 1764),
            (((25, 0), (24, 13)), 27, 2916),
            (((2, 0), (32, 18)), 35, 4900),
            # n = 3: a walk under one first row keeps the ladders it began
            # with, so a later offer may not improve best
            (((0, 3, 0), (2, 0, 1), (3, 0, 2)), 4, 8),
            (((1, 0, 0), (1, 2, 3), (0, 1, 2)), 4, 4),
            (((2, 3, 0), (4, 1, 4), (0, 3, 4)), 5, 8),
            (((2, 0, 2), (1, 3, 2), (4, 4, 3)), 5, 4),
        ],
    )
    def test_matches_bisection_where_best_falls_by_one(self, rows, q, t_max):
        x = IntMatrix(rows)
        assert min_lift_norm(x, q, t_max) == bisection_reference(x, q, t_max)

    def test_n1_has_the_one_lift(self):
        assert min_lift_norm(IntMatrix([[1]]), 5, 3) == 1
        assert min_lift_norm(IntMatrix([[6]]), 5, 1) == 1

    def test_budget_refuses_the_inputs_the_bisection_refused(self, monkeypatch):
        # only a doubling cap can be the first to pass the budget, and both
        # schedules budget the same doubling caps with the same message
        x = IntMatrix([[5, 0], [0, 5]])
        for budget in range(0, 60):
            monkeypatch.setenv("SLLIFT_BUDGET", str(budget))
            outcomes = []
            for run in (min_lift_norm, bisection_reference):
                try:
                    outcomes.append(run(x, 8, 128))
                except BudgetExceeded as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], budget

    def test_half_the_solves_of_the_bisection_on_search_classes(self, monkeypatch):
        # the probe schedule made 14,901 _solve2 calls on these classes
        calls = []
        real = oracle._solve2
        monkeypatch.setattr(oracle, "_solve2", lambda *a: calls.append(a) or real(*a))
        for x, q, t_max in search_classes():
            min_lift_norm(x, q, t_max)
        assert len(calls) <= 7450

    @pytest.mark.parametrize(
        "rows, q, t_max, answer, caps",
        [
            # trace family m = 1, 2, 3 at t_max = 2 q^2
            (((5, 0), (0, 5)), 8, 128, 13, [3, 6, 12, 24]),
            (((9, 0), (0, 9)), 16, 512, 41, [7, 14, 28, 56]),
            (((13, 0), (0, 13)), 24, 1152, 85, [11, 22, 44, 88]),
            # random n = 2 classes at t_max = 4 q^2
            (((1, 5), (3, 2)), 7, 196, 5, [3, 6]),
            (((2, 9), (9, 11)), 12, 576, 10, [3, 6, 12]),
            (((3, 4), (11, 3)), 12, 576, 8, [4, 8]),
            (((1, 14), (11, 15)), 20, 1600, 26, [9, 18, 36]),
            # no lift by t_max: every doubling cap, the last one clipped to t_max
            (((5, 0), (0, 5)), 8, 12, None, [3, 6, 12]),
        ],
    )
    def test_answer_and_budgeted_caps_are_pinned(self, monkeypatch, rows, q, t_max, answer, caps):
        # each cap is budgeted at its EnumSpec's candidate count, then walked
        # once; x's determinant is taken once per call
        budgeted = [candidate_count(EnumSpec(n=2, caps=(t, t), q=q, x=rows)) for t in caps]
        seen, dets = [], []
        check_size, least_lift, det = oracle._check_size, oracle._least_lift, oracle.intmat.det
        monkeypatch.setattr(oracle, "_check_size", lambda size: seen.append(size) or check_size(size))
        monkeypatch.setattr(oracle, "_least_lift", lambda lads, cap: seen.append(cap) or least_lift(lads, cap))
        monkeypatch.setattr(oracle.intmat, "det", lambda m: dets.append(m) or det(m))
        monkeypatch.setattr(oracle, "exists_sl", lambda spec: pytest.fail("exists_sl called"))
        assert min_lift_norm(IntMatrix(rows), q, t_max) == answer
        assert seen == [v for pair in zip(budgeted, caps) for v in pair]
        assert len(dets) == 1


# N_3(T) for T = 0..8: T <= 6 cross-checked between the kernel walk and an
# independent per-cofactor count, T = 7 and 8 as listed in ROADMAP item 4a
N3 = [0, 3480, 67704, 640824, 2597208, 10426488, 23527320, 65641560, 128475096]


def n2_reference(t):
    """N_2(t) = 32 (phi(1) + ... + phi(t)) - 12, phi from factorize (t >= 1)."""
    phi_sum = sum(math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(k)) for k in range(1, t + 1))
    return 32 * phi_sum - 12


class TestNormCountTable:
    def test_n3_goldens(self):
        assert [count_sl(EnumSpec(n=3, caps=(t,) * 3)) for t in range(4, 9)] == N3[4:]
        assert [count for _, count, _ in norm_count_table(3, range(1, 9))] == N3[1:]

    def test_t_zero_and_one(self):
        table = norm_count_table(2, [0, 1])
        assert table[0] == (0, 0, None)
        assert table[1] == (1, 20, 20.0)

    def test_cumulative_matches_direct(self):
        direct = [count_sl(EnumSpec(n=2, caps=(t, t))) for t in (1, 2, 3, 4, 10)]
        table = norm_count_table(2, [1, 2, 3, 4, 10])
        assert [row[1] for row in table] == direct

    def test_n3_matches_iterator(self):
        table = norm_count_table(3, [1, 2])
        for t, count, _ in table:
            assert count == len(list(iter_sl(EnumSpec(n=3, caps=(t, t, t)))))

    def test_types_are_plain_python(self):
        for t, count, ratio in norm_count_table(2, [1, 2]):
            assert type(t) is int and type(count) is int
            assert ratio is None or type(ratio) is float


def kernel_count(caps):
    """count_sl by the unweighted kernel walk: q = 1 constrains nothing."""
    return count_sl(EnumSpec(n=len(caps), caps=caps, q=1, x=((0,) * len(caps),) * len(caps)))


class TestClosedFormN2:
    def test_matches_kernel(self):
        caps = [(t1, t2) for t1 in range(1, 31) for t2 in range(1, 31)]
        caps += [(t, t * t) for t in range(1, 13)]
        for t1, t2 in caps:
            assert count_sl(EnumSpec(n=2, caps=(t1, t2))) == kernel_count((t1, t2)), (t1, t2)

    def test_totient_sum(self):
        # N_2(T) = 32 sum_{k <= T} phi(k) - 12 (Hardy-Wright 18.5)
        phi_sum = 0
        for t in range(1, 301):
            phi_sum += math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(t))
            assert count_sl(EnumSpec(n=2, caps=(t, t))) == 32 * phi_sum - 12, t

    def test_table_matches_single_thresholds(self):
        thresholds = list(range(1, 201)) + [0, 57, 3]
        table = norm_count_table(2, thresholds)
        assert table == [norm_count_table(2, [t])[0] for t in thresholds]

    def test_table_budget_names_largest_threshold(self, monkeypatch):
        size = (2 * 40 + 1) ** 2
        monkeypatch.setenv("SLLIFT_BUDGET", str(size - 1))
        with pytest.raises(BudgetExceeded) as exc:
            norm_count_table(2, [1, 40, 2])
        assert str(exc.value) == f"candidate space {size} exceeds budget {size - 1}"
        monkeypatch.setenv("SLLIFT_BUDGET", str(size))
        assert norm_count_table(2, [1, 40, 2])[1][1] == count_sl(EnumSpec(n=2, caps=(40, 40)))

    def test_every_table_reads_the_totient_prefix(self, monkeypatch):
        # one threshold or many: the Moebius sum of count_sl never runs
        monkeypatch.setattr(oracle, "_count_sl2", _not_on_the_table_path)
        for t in (1, 2, 57, 400):
            assert norm_count_table(2, [t]) == [(t, n2_reference(t), n2_reference(t) / t**2)]
        assert norm_count_table(2, []) == []
        assert norm_count_table(2, [0]) == [(0, 0, None)]
        five = n2_reference(5)
        assert norm_count_table(2, [0, 5, 0]) == [(0, 0, None), (5, five, five / 25), (0, 0, None)]

    def test_single_threshold_budget_is_count_sl_message(self, monkeypatch):
        monkeypatch.delenv("SLLIFT_BUDGET", raising=False)
        size = (2 * 15811 + 1) ** 2
        with pytest.raises(BudgetExceeded) as direct:
            count_sl(EnumSpec(n=2, caps=(15811, 15811)))
        monkeypatch.setattr(oracle, "count_sl", _not_on_the_table_path)
        with pytest.raises(BudgetExceeded) as table:
            norm_count_table(2, [15811])
        assert str(table.value) == str(direct.value) == f"candidate space {size} exceeds budget {10**9}"


def _not_on_the_table_path(*args):
    raise AssertionError("an n = 2 table reads the totient prefix")


class TestSkewedCounts:
    def test_growth_band(self):
        # skewed caps (T, T^2): count / (T^3 log2(T+1)) stays in a narrow band
        ratios = []
        for t in range(1, 9):
            count = count_sl(EnumSpec(n=2, caps=(t, t * t)))
            ratios.append(count / (t**3 * math.log2(t + 1)))
        assert max(ratios) < 64
        assert min(ratios) > 0

    def test_candidate_count(self):
        # fixed parts the kernel walks: all entries but the last row's last two
        assert candidate_count(EnumSpec(n=2, caps=(2, 4))) == 5 * 5
        assert candidate_count(EnumSpec(n=3, caps=(1, 2, 3))) == 3**3 * 5**3 * 7
        assert candidate_count(EnumSpec(n=1, caps=(4,))) == 1

    def test_candidate_count_beyond_index_range(self):
        # ladders longer than len() accepts (~9.2e18) are sized exactly
        assert candidate_count(EnumSpec(n=2, caps=(10**110, 10**220))) == (2 * 10**110 + 1) ** 2
        spec = EnumSpec(n=2, caps=(10**30, 10**30), q=10, x=((1, 0), (0, 1)))
        # 1 + 10Z and 10Z in [-10^30, 10^30]
        assert candidate_count(spec) == 2 * 10**29 * (2 * 10**29 + 1)

    def test_budget_beyond_index_range(self):
        spec = EnumSpec(n=2, caps=(10**110, 10**220))
        message = f"candidate space {(2 * 10**110 + 1) ** 2} exceeds budget {10**9}"
        for scan in (count_sl, iter_sl, exists_sl):
            with pytest.raises(BudgetExceeded) as exc:
                scan(spec)
            assert str(exc.value) == message

    @pytest.mark.parametrize("t", [1, 3, 10])
    def test_budget_is_exact_in_fixed_parts(self, monkeypatch, t):
        spec = EnumSpec(n=2, caps=(t, t))
        limit = (2 * t + 1) ** 2
        unlimited = count_sl(spec)
        monkeypatch.setenv("SLLIFT_BUDGET", str(limit))
        assert count_sl(spec) == unlimited
        monkeypatch.setenv("SLLIFT_BUDGET", str(limit - 1))
        with pytest.raises(BudgetExceeded, match=f"candidate space {limit} exceeds budget {limit - 1}"):
            count_sl(spec)

    def test_exists_matches_count(self):
        rng = random.Random(23)
        for _ in range(10):
            q = rng.choice([3, 5, 8])
            x = random_sl_matrix(2, q, rng.randrange(2**30))
            caps = (rng.randrange(1, 4), rng.randrange(1, 4))
            spec = EnumSpec(n=2, caps=caps, q=q, x=x.rows)
            assert exists_sl(spec) == (count_sl(spec) > 0)


class _Walked(Exception):
    pass


def _walked(*args):
    raise _Walked


def counted_walk(monkeypatch):
    """Steps of the weighted walk, counted by wrapping it: one per cofactor
    vector _cofactors yields, and one per head each _hits call reads."""
    steps = []
    cofactors, hits = oracle._cofactors, oracle._hits

    def counted_cofactors(lads, weighted=False):
        for item in cofactors(lads, weighted):
            steps.append(1)
            yield item

    def counted_hits(c, last):
        steps.append(math.prod(map(len, last[:-2])))
        return hits(c, last)

    monkeypatch.setattr(oracle, "_cofactors", counted_cofactors)
    monkeypatch.setattr(oracle, "_hits", counted_hits)
    return steps


class TestCountMeters:
    def test_n2_meter_is_the_kernel_fixed_parts(self):
        rng = random.Random(31)
        for _ in range(200):
            caps = (rng.randint(1, 10**6), rng.randint(1, 10**6))
            assert oracle._count_size(caps) == candidate_count(EnumSpec(n=2, caps=caps)), caps

    @pytest.mark.parametrize(
        "caps",
        list(itertools.product((1, 2, 3), repeat=3)) + [(1, 1, 1, 1), (3, 1, 1, 1), (1, 1, 1, 3), (2, 1, 1, 2)],
    )
    def test_weighted_meter_bounds_the_walk(self, monkeypatch, caps):
        spec = EnumSpec(n=len(caps), caps=caps)
        steps = counted_walk(monkeypatch)
        assert count_sl(spec) == reference_count(spec)
        assert 0 < sum(steps) <= oracle._count_size(caps)

    def test_n3_at_t10_passes_the_default_gate(self, monkeypatch):
        # the box product (21^7 = 1.8e9) would refuse it; the walk's meter
        # is C(13, 3) first rows, half of the 21^3 second rows, and 1 + 21
        # steps for each cofactor vector
        monkeypatch.delenv("SLLIFT_BUDGET", raising=False)
        spec = EnumSpec(n=3, caps=(10, 10, 10))
        size = math.comb(13, 3) * (21**3 // 2) * (1 + 21)
        assert oracle._count_size(spec.caps) == size
        assert candidate_count(spec) > current_budget() > size
        monkeypatch.setattr(oracle, "_cofactors", _walked)
        for count in (count_sl, lambda s: norm_count_table(3, [10])):
            with pytest.raises(_Walked):
                count(spec)

    def test_n3_at_t10_refused_one_below_its_meter_before_the_walk(self, monkeypatch):
        size = math.comb(13, 3) * (21**3 // 2) * (1 + 21)
        monkeypatch.setenv("SLLIFT_BUDGET", str(size - 1))
        monkeypatch.setattr(oracle, "_ladders", _walked)
        monkeypatch.setattr(oracle, "_cofactors", _walked)
        for count in (lambda: count_sl(EnumSpec(n=3, caps=(10, 10, 10))), lambda: norm_count_table(3, [1, 10])):
            with pytest.raises(BudgetExceeded) as exc:
                count()
            assert str(exc.value) == f"candidate space {size} exceeds budget {size - 1}"


def _sl_order_by_scan(n, q):
    """|SL_n(Z/qZ)| by scanning every n x n matrix mod q."""
    return sum(
        1
        for flat in itertools.product(range(q), repeat=n * n)
        if _det([flat[i * n : (i + 1) * n] for i in range(n)]) % q == 1 % q
    )


class TestSlOrder:
    @pytest.mark.parametrize("n, q", [(2, q) for q in range(1, 13)] + [(3, q) for q in range(1, 5)])
    def test_matches_brute_force(self, n, q):
        order = oracle.sl_order(n, q)
        assert type(order) is int
        assert order == _sl_order_by_scan(n, q)

    def test_closed_forms(self):
        p = 10007
        assert oracle.sl_order(2, p) == p * (p * p - 1)
        assert oracle.sl_order(3, p) == p**3 * (p**2 - 1) * (p**3 - 1)
        assert oracle.sl_order(1, 12) == 1
        assert oracle.sl_order(4, 1) == 1

    @pytest.mark.parametrize("n, q", [(0, 5), (2, 0), (-1, 3), (2, -4)])
    def test_needs_positive_n_and_q(self, n, q):
        with pytest.raises(InvalidInput, match="need n >= 1 and q >= 1"):
            oracle.sl_order(n, q)


@st.composite
def small_specs(draw):
    """n = 2 with caps <= 6 or n = 3 with caps <= 1, with or without a congruence."""
    n = draw(st.sampled_from([2, 3]))
    top = 6 if n == 2 else 1
    caps = tuple(draw(st.integers(1, top)) for _ in range(n))
    q = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7]))
    if q == 0:
        return EnumSpec(n=n, caps=caps)
    x = random_sl_matrix(n, q, draw(st.integers(0, 2**30)))
    return EnumSpec(n=n, caps=caps, q=q, x=x.rows)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_specs())
    def test_count_iter_exists_agree(self, spec):
        count = count_sl(spec)
        assert count == len(list(iter_sl(spec)))
        assert exists_sl(spec) == (count > 0)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_congruence_path_matches_symmetric_path(self, n, data):
        # q = 1 runs the plain lexicographic walk, q = 0 the orbit-weighted one
        top = 12 if n == 2 else 1
        caps = tuple(data.draw(st.integers(1, top)) for _ in range(n))
        zero = ((0,) * n,) * n
        assert count_sl(EnumSpec(n=n, caps=caps, q=1, x=zero)) == count_sl(EnumSpec(n=n, caps=caps))

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([(2, 400), (3, 3)]).flatmap(
            lambda n_top: st.tuples(
                st.just(n_top[0]), st.lists(st.integers(0, n_top[1]), min_size=1, max_size=6)
            )
        )
    )
    @example((2, [400, 0, 7, 7, 1]))
    @example((3, [3, 0, 1, 3, 2]))
    def test_table_matches_count_sl_per_threshold(self, n_ts):
        # unsorted, repeated and zero thresholds; the reference is the
        # totient sum at n = 2 and the pinned N_3 at n = 3
        n, ts = n_ts
        counts = [(n2_reference(t) if n == 2 else N3[t]) if t else 0 for t in ts]
        assert [count_sl(EnumSpec(n=n, caps=(t,) * n)) if t else 0 for t in ts] == counts
        expected = [(t, c, c / t ** (n * n - n) if t else None) for t, c in zip(ts, counts)]
        assert norm_count_table(n, ts) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.data())
    def test_single_threshold_matches_table_row(self, n, data):
        t = data.draw(st.integers(1, {1: 5, 2: 30, 3: 2}[n]))
        table = norm_count_table(n, range(1, t + 1))
        assert norm_count_table(n, [t]) == [table[t - 1]]


def reference_walk(spec, weighted=False):
    """The walk with one maximal_minors call per (first, middle rows)
    combination, as it was before the cofactor map: the differential
    reference for the kernel's walk and its counts."""

    def cofactors(rows):
        if len(rows) == 1:
            return (-rows[0][1], rows[0][0])
        return maximal_minors(IntMatrix(rows))

    n, lads = spec.n, oracle._ladders(spec)
    if n == 1:
        if 1 in lads[0][0]:
            yield 1, (), (), (True, (range(1, 2),))
        return
    if weighted:
        firsts = itertools.combinations_with_replacement(range(spec.caps[0] + 1), n)
        firsts = [(oracle._orbit_size(f), f) for f in firsts if math.gcd(*f) == 1]
    else:
        firsts = [(1, f) for f in itertools.product(*lads[0]) if math.gcd(*f) == 1]
    middle = [list(itertools.product(*lads[i])) for i in range(1, n - 1)]
    heads = list(itertools.product(*lads[n - 1][: n - 2]))
    lad1, lad2 = lads[n - 1][n - 2], lads[n - 1][n - 1]
    for weight, first in firsts:
        for rest in itertools.product(*middle):
            rows = (first,) + rest
            c = cofactors(rows)
            for head in heads:
                r = 1 - sum(v * cj for v, cj in zip(head, c))
                solution = oracle._solve2(c[n - 2], c[n - 1], r, lad1, lad2)
                if solution:
                    yield weight, rows, head, solution


def reference_count(spec):
    """count_sl as the sum of weight * solutions over the per-row walk."""
    return sum(w * oracle._size(sol) for w, _, _, sol in reference_walk(spec, spec.q == 0))


def reference_matrices(spec):
    """iter_sl's list from the per-row walk."""
    return [rows + (head + pair,) for _, rows, head, sol in reference_walk(spec) for pair in oracle._pairs(sol)]


def seeded_specs():
    """n = 3 specs, uniform and skewed caps, and n = 4 specs at caps 1; each
    without and with a congruence (q = 2..7 at n = 3, q = 2 and 3 at n = 4,
    targets from fixed seeds)."""
    caps_list = [(1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 1, 2), (2, 3, 1), (1, 1, 4)]
    specs = [EnumSpec(n=3, caps=caps) for caps in caps_list]
    rng = random.Random(15)
    for q in range(2, 8):
        for caps in rng.sample(caps_list, 3):
            x = random_sl_matrix(3, q, rng.randrange(2**30))
            specs.append(EnumSpec(n=3, caps=caps, q=q, x=x.rows))
    for caps in [(2, 2, 1), (1, 1, 3)]:  # the last row's cap below and above the others
        specs.append(EnumSpec(n=3, caps=caps))
        for q in (2, 5):
            x = random_sl_matrix(3, q, rng.randrange(2**30))
            specs.append(EnumSpec(n=3, caps=caps, q=q, x=x.rows))
    specs.append(EnumSpec(n=4, caps=(1,) * 4))
    for q in (2, 3):
        for _ in range(2):
            x = random_sl_matrix(4, q, rng.randrange(2**30))
            specs.append(EnumSpec(n=4, caps=(1,) * 4, q=q, x=x.rows))
    return specs


def odd_row_target(n):
    """The identity with row n - 1 all ones: det 1, and mod 2 with caps 1
    that row takes 2^n > n values."""
    return tuple((1,) * n if i == n - 2 else tuple(int(i == j) for j in range(n)) for i in range(n))


@st.composite
def prefix_and_row(draw):
    """(P, r): n - 2 prefix rows and a row r at n = 3..6, the prefix often
    rank-deficient (a zero row or a repeated multiple) and r sometimes zero."""
    n = draw(st.integers(3, 6))
    row = st.tuples(*[st.integers(-3, 3)] * n)
    prefix = draw(st.lists(row, min_size=n - 2, max_size=n - 2))
    shape = draw(st.sampled_from(["any", "zero row", "multiple"]))
    if shape == "zero row":
        prefix[draw(st.integers(0, n - 3))] = (0,) * n
    elif shape == "multiple" and n >= 4:
        prefix[-1] = tuple(draw(st.integers(-2, 2)) * v for v in prefix[0])
    r = draw(st.one_of(st.just((0,) * n), row))
    return tuple(prefix), r


WALK_SPECS = [
    # n = 2: the prefix is empty and _cofactors yields c = (-r_1, r_0) itself
    EnumSpec(n=2, caps=(4, 6), q=3, x=((1, 1), (0, 1))),
    EnumSpec(n=3, caps=(2, 2, 2)),
    EnumSpec(n=3, caps=(1, 3, 2), q=3, x=((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    EnumSpec(n=4, caps=(1,) * 4, q=2, x=odd_row_target(4)),
    # rows 3 and 4 odd mod 2, so four heads share each c
    EnumSpec(n=4, caps=(1,) * 4, q=2, x=((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (1, 1, 0, 1))),
    EnumSpec(n=5, caps=(1,) * 5, q=2, x=odd_row_target(5)),
]


def walk_runs(spec):
    """(call, whether it walks orbit representatives) for each public walk."""
    return [(count_sl, spec.q == 0), (lambda s: list(iter_sl(s)), False), (exists_sl, False)]


def walked_prefixes(spec, weighted):
    """Number of prefixes (first n - 2 rows) a walk visits."""
    n, lads = spec.n, oracle._ladders(spec)
    if weighted:  # orbit representatives of the first row
        firsts = itertools.combinations_with_replacement(range(spec.caps[0] + 1), n)
    else:
        firsts = itertools.product(*lads[0])
    primitive = sum(1 for f in firsts if math.gcd(*f) == 1)
    return primitive * math.prod(len(lad) for row in lads[1 : n - 2] for lad in row)


class TestCofactorMap:
    @settings(max_examples=200, deadline=None)
    @given(prefix_and_row())
    @example((((0, 0, 0),), (1, 2, 3)))
    @example((((1, 2, 3, 4), (2, 4, 6, 8)), (1, 0, 0, 1)))
    @example((((0,) * 6,) * 4, (0,) * 6))
    def test_map_times_row_is_maximal_minors(self, prefix_row):
        prefix, r = prefix_row
        k = oracle._cofactor_map(prefix)
        assert tuple(sum(map(operator.mul, row, r)) for row in k) == maximal_minors(
            IntMatrix(prefix + (r,))
        )

    @pytest.mark.parametrize("spec", seeded_specs(), ids=repr)
    def test_count_matches_per_row_reference(self, spec):
        assert count_sl(spec) == reference_count(spec)

    # every seeded spec but n = 4 at q = 0, whose 5170368 matrices make a slow list
    @pytest.mark.parametrize("spec", [s for s in seeded_specs() if s.n == 3 or s.q], ids=repr)
    def test_walk_matches_per_row_reference(self, spec):
        matrices = reference_matrices(spec)
        assert list(iter_sl(spec)) == matrices
        assert exists_sl(spec) == bool(matrices)

    def test_n3_table_matches_per_row_reference(self):
        counts = [reference_count(EnumSpec(n=3, caps=(t,) * 3)) for t in (1, 2, 3)]
        assert counts == N3[1:4]
        assert [count for _, count, _ in norm_count_table(3, [1, 2, 3])] == counts

    def test_one_hyperplane_count_per_key(self, monkeypatch):
        # at q = 0 the last row is counted (one _hits call) exactly once for
        # each distinct sorted |c|, not for every (first row, row 2) pair
        spec = EnumSpec(n=3, caps=(2, 2, 2))
        firsts = itertools.combinations_with_replacement(range(3), 3)
        box = list(itertools.product(range(-2, 3), repeat=3))
        keys = {
            tuple(sorted(map(abs, maximal_minors(IntMatrix((f, r))))))
            for f in firsts
            if math.gcd(*f) == 1
            for r in box
        }
        calls = []
        real = oracle._hits
        monkeypatch.setattr(oracle, "_hits", lambda c, last: calls.append(c) or real(c, last))
        assert count_sl(spec) == N3[2]
        assert sorted(calls) == sorted(keys)
        assert len(keys) == 45

    @pytest.mark.parametrize("caps", [(2, 2, 2), (1, 2, 3), (3, 1, 2), (1, 1, 1, 1)], ids=repr)
    def test_weighted_walk_takes_the_upper_half_of_row_n_minus_1(self, caps):
        # (prefix, r, v) -> (prefix, -r, -v) keeps det 1 and the boxes, so the
        # weighted walk takes only the rows r after zero in row n - 1's box,
        # each with twice its first row's orbit weight
        spec = EnumSpec(n=len(caps), caps=caps)
        n, cap = spec.n, caps[-2]
        upper = [r for r in itertools.product(range(-cap, cap + 1), repeat=n) if r > (0,) * n]
        seen = {}
        for weight, rows, _ in oracle._cofactors(oracle._ladders(spec), weighted=True):
            assert weight == 2 * oracle._orbit_size(rows[0])
            seen.setdefault(rows[:-1], []).append(rows[-1])
        assert len(seen) == walked_prefixes(spec, True)
        assert all(lasts == upper for lasts in seen.values())

    @pytest.mark.parametrize("spec", WALK_SPECS, ids=repr)
    def test_walk_specs_match_per_row_reference(self, spec):
        matrices = reference_matrices(spec)
        assert list(iter_sl(spec)) == matrices
        assert count_sl(spec) == reference_count(spec)
        assert exists_sl(spec) == bool(matrices)

    @pytest.mark.parametrize("spec", WALK_SPECS, ids=repr)
    def test_at_most_n_minors_per_prefix(self, spec, monkeypatch):
        calls = []
        real = oracle.intmat.maximal_minors
        monkeypatch.setattr(oracle.intmat, "maximal_minors", lambda b: calls.append(b) or real(b))
        n, lads = spec.n, oracle._ladders(spec)
        for run, weighted in walk_runs(spec):
            calls.clear()
            run(spec)
            assert len(calls) <= n * walked_prefixes(spec, weighted)
        # one elimination per choice of row n - 1 would exceed the bound
        assert len(list(itertools.product(*lads[n - 2]))) > n

    @pytest.mark.parametrize("spec", [s for s in WALK_SPECS if s.n <= 4], ids=repr)
    def test_one_ext_gcd_per_cofactor_vector(self, spec, monkeypatch):
        # the heads under one (prefix, row n - 1) share c, so one gcd
        calls = []
        real = oracle.ext_gcd
        monkeypatch.setattr(oracle, "ext_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
        rows = math.prod(map(len, oracle._ladders(spec)[spec.n - 2]))
        for run, weighted in walk_runs(spec):
            calls.clear()
            run(spec)
            assert len(calls) <= walked_prefixes(spec, weighted) * rows


@st.composite
def hits_cases(draw):
    """(c, last): c of length 3..5, zero, with one nonzero entry or any
    entries (negatives included), and the last row's ladders, a q = 0 box
    or q = 2..7 residue ladders, which are often empty at small caps."""
    n = draw(st.integers(3, 5))
    shape = draw(st.sampled_from(["zero", "one", "any"]))
    c = [0] * n
    if shape == "one":
        c[draw(st.integers(0, n - 1))] = draw(st.integers(-9, 9).filter(bool))
    elif shape == "any":
        c = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    cap, q = draw(st.integers(1, 6)), draw(st.sampled_from([0, 2, 3, 4, 5, 6, 7]))
    last = [oracle._ladder(draw(st.integers(0, q - 1)) if q else 0, q, cap) for _ in range(n)]
    return tuple(c), last


class TestHits:
    @settings(max_examples=300, deadline=None)
    @given(hits_cases())
    @example(((0, 0, 0), [range(-2, 3)] * 3))
    @example(((0, 0, -1), [range(-1, 2)] * 3))
    @example(((-3, 0, 0, 0), [range(-2, 3)] * 4))
    @example(((4, -6, 10), [oracle._ladder(x, 5, 6) for x in (1, 2, 3)]))
    # an empty head ladder (2 + 7Z misses [-1, 1]), then an empty last ladder
    @example(((2, -4, 6, 3), [oracle._ladder(x, 7, 1) for x in (1, 2, 0, 6)]))
    @example(((2, -4, 6, 3), [oracle._ladder(x, 7, 1) for x in (1, 0, 0, 3)]))
    def test_matches_per_head_solutions(self, case):
        c, last = case
        # each head solved on its own, with no shared line
        a, b, lad1, lad2 = c[-2], c[-1], last[-2], last[-1]
        solutions = (
            oracle._solve2(a, b, 1 - sum(v * x for v, x in zip(head, c)), lad1, lad2)
            for head in itertools.product(*last[:-2])
        )
        assert oracle._hits(c, last) == sum(oracle._size(s) for s in solutions if s)


@st.composite
def small_ladders(draw):
    """_ladder(center, q, cap) at q = 0 or 2..7 and cap 1..8: often empty or
    of length 1 when q > cap."""
    q = draw(st.sampled_from([0, 2, 3, 4, 5, 6, 7]))
    return oracle._ladder(draw(st.integers(0, max(q - 1, 0))), q, draw(st.integers(1, 8)))


@st.composite
def small_hyperplanes(draw):
    """(c, last): c of length 2..4 with entries in [-9, 9], and one ladder per entry."""
    c = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
    return tuple(c), [draw(small_ladders()) for _ in c]


class TestSolutionLine:
    """_solve2 and _hits against brute force over the ladders.  Both read
    _line, so TestHits, which checks one against the other, passes a wrong
    line; these do not."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-40, 40), small_ladders(), small_ladders())
    # A and B of one sign, so lad2 is walked reversed; then of opposite signs
    @example(2, 3, 5, range(-4, 5), range(-4, 5))
    @example(-2, 3, 1, oracle._ladder(1, 3, 8), oracle._ladder(2, 5, 8))
    @example(3, 2, 6, range(-2, 3), oracle._ladder(2, 7, 1))  # an empty ladder
    def test_solve2_lists_every_pair(self, a, b, r, lad1, lad2):
        expected = [(u, v) for u, v in itertools.product(lad1, lad2) if a * u + b * v == r]
        assert list(oracle._pairs(oracle._solve2(a, b, r, lad1, lad2))) == expected

    @settings(max_examples=300, deadline=None)
    @given(small_hyperplanes())
    @example(((1, 4, 6), [range(-3, 4), oracle._ladder(1, 2, 5), oracle._ladder(0, 3, 5)]))
    def test_hits_counts_every_last_row(self, case):
        c, last = case
        expected = sum(1 for v in itertools.product(*last) if sum(map(operator.mul, v, c)) == 1)
        assert oracle._hits(c, last) == expected
