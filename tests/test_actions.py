import heapq
import math
import random
from functools import cache
from itertools import chain, count, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sllift import actions, oracle
from sllift.actions import (
    DistanceRecord,
    PointA,
    PointP,
    affine_points,
    canonical_rep,
    diameter_profile,
    dist_affine,
    dist_projective,
    projective_bad_pair,
    projective_points,
    units_mod,
)
from sllift.errors import BudgetExceeded, InvalidInput
from sllift.intmat import IntMatrix, det
from sllift.oracle import EnumSpec, iter_sl


def orbit(v, q):
    """The unit-scaling orbit of v mod q, by trying every residue."""
    return {tuple(u * c % q for c in v) for u in range(q) if math.gcd(u, q) == 1}


@cache
def naive_shell(n, m):
    """iter_sl over the box of side m, filtered to max norm exactly m."""
    spec = EnumSpec(n=n, caps=(m,) * n)
    return [g for g in iter_sl(spec) if max(abs(e) for r in g for e in r) == m]


def log_q(v, q):
    return 0.0 if v == 1 else math.log(v) / math.log(q)


def naive_distance(x, y, q, t_max, projective):
    """Reference scan: the first hit of the least shell, or an unreached record."""
    cls = (lambda v: min(orbit(v, q))) if projective else (lambda v: v)
    target = cls(y)
    for m in range(1, t_max + 1):
        for g in naive_shell(len(x), m):
            image = tuple(sum(a * b for a, b in zip(row, x)) % q for row in g)
            if cls(image) == target:
                return DistanceRecord(x, y, q, m, g, t_max, log_q(m, q))
    return DistanceRecord(x, y, q, None, None, t_max, None)


def naive_profile(space, n, q, t_max):
    """diameter_profile's fields, from naive_distance over all ordered pairs."""
    projective = space == "P"
    vectors = [v for v in product(range(q), repeat=n) if math.gcd(q, *v) == 1]
    points = sorted({min(orbit(v, q)) for v in vectors}) if projective else vectors
    values = sorted(
        naive_distance(x, y, q, t_max, projective).min_max_norm
        for x, y in product(points, repeat=2)
    )
    total = len(values)
    quants = {}
    for key, p in (("50", 0.50), ("90", 0.90), ("99", 0.99)):
        quants[key] = values[min(total - 1, max(0, math.ceil(p * total) - 1))]
    return {
        "space": space,
        "n": n,
        "q": q,
        "size": len(points),
        "pairs": total,
        "diameter_norm": values[-1],
        "quantile_norms": quants,
        "exponents": {"diameter": log_q(values[-1], q), **{k: log_q(v, q) for k, v in quants.items()}},
    }


def signed_permutation(v, perm, signs, q):
    """P v mod q for the signed permutation P with (P v)_i = signs[i] * v[perm[i]]."""
    return tuple(s * v[j] % q for j, s in zip(perm, signs))


def signed_permutation_orbits(space, n, q):
    """The points of the space, grouped into signed-permutation orbits."""
    projective = space == "P"
    cls = (lambda v: min(orbit(v, q))) if projective else (lambda v: v)
    points = {cls(v) for v in product(range(q), repeat=n) if math.gcd(q, *v) == 1}
    symmetries = [(perm, signs) for perm in permutations(range(n))
                  for signs in product((1, -1), repeat=n)]
    return {frozenset(cls(signed_permutation(v, *p, q)) for p in symmetries) for v in points}


# q = 8 and 9 have 4 and 6 units, so projective targets are real orbits
SMALL_SPACES = [(2, q) for q in range(2, 7)] + [(2, 8), (2, 9), (3, 2), (3, 3)]
# spaces whose signed-permutation orbits differ in size (q = 2 has -1 = 1);
# at n = 2, q = 4 every orbit has 4 points
UNEVEN_ORBIT_SPACES = [(2, 2), (2, 8), (2, 9), (3, 2), (3, 3)]


class TestIterShell:
    """oracle.iter_shell, which builds every shell the scans below walk."""

    def test_n1_has_one_shell(self):
        assert list(oracle.iter_shell(1, 1)) == naive_shell(1, 1) == [((1,),)]
        for m in (2, 3, 4):
            assert list(oracle.iter_shell(1, m)) == naive_shell(1, m) == []

    @pytest.mark.parametrize(
        "n,m", [(2, m) for m in range(1, 41)] + [(3, m) for m in (1, 2, 3)]
    )
    def test_matches_naive_shell(self, n, m):
        assert list(oracle.iter_shell(n, m)) == naive_shell(n, m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_n3_shell_matches_the_counts(self, m):
        # naive_shell filters the same walk, so check the shell against the
        # counts instead, which _hits sums without listing a matrix
        shell = list(oracle.iter_shell(3, m))
        assert all(g < h for g, h in zip(shell, shell[1:]))
        assert all(det(IntMatrix(g)) == 1 and max(map(abs, chain(*g))) == m for g in shell)
        (_, below, _), (_, within, _) = oracle.norm_count_table(3, [m - 1, m])
        assert len(shell) == within - below

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 25))
    def test_shells_merge_to_iter_sl(self, t):
        # each shell is in iter_sl order and the shells partition the box,
        # so merging them gives iter_sl at cap t, matrix for matrix
        shells = [oracle.iter_shell(2, m) for m in range(1, t + 1)]
        assert list(heapq.merge(*shells)) == list(iter_sl(EnumSpec(n=2, caps=(t, t))))

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2)])
    def test_budget_raises_before_first_yield_as_iter_sl(self, monkeypatch, n, m):
        spec = EnumSpec(n=n, caps=(m,) * n)
        size = oracle.candidate_count(spec)
        monkeypatch.setenv("SLLIFT_BUDGET", str(size - 1))
        with pytest.raises(BudgetExceeded) as by_sl:
            iter_sl(spec)
        with pytest.raises(BudgetExceeded) as by_shell:
            oracle.iter_shell(n, m)
        assert str(by_shell.value) == str(by_sl.value)
        monkeypatch.setenv("SLLIFT_BUDGET", str(size))
        assert next(oracle.iter_shell(n, m))

    @pytest.mark.parametrize("m", [1, 5, 10])
    def test_n2_budget_meters_the_face_rows(self, monkeypatch, m):
        # the builder walks 8m face rows, not the (2m + 1)^2 box of iter_sl
        monkeypatch.setenv("SLLIFT_BUDGET", str(8 * m - 1))
        with pytest.raises(BudgetExceeded) as exc:
            oracle.iter_shell(2, m)
        assert str(exc.value) == f"candidate space {8 * m} exceeds budget {8 * m - 1}"
        monkeypatch.setenv("SLLIFT_BUDGET", str(8 * m))
        assert next(oracle.iter_shell(2, m))

    def test_n2_shell_past_the_box_budget_builds(self):
        # (2 * 15811 + 1)^2 > 10^9, the default budget
        m = 15811
        shell = list(oracle.iter_shell(2, m))
        assert len(shell) == 32 * sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        assert all(max(map(abs, chain(*g))) == m for g in shell[::97])

    def test_n2_solves_twice_per_face_row_and_never_walks_the_rim(self, monkeypatch):
        # each primitive row with an entry +-m is solved once as the first
        # row (any second row) and once as the second (first row inside)
        calls = []
        real = oracle._solve2
        monkeypatch.setattr(oracle, "_solve2", lambda *a: calls.append(a[:2]) or real(*a))
        # and iter_sl over the cap-m box, which other n filter, never runs
        monkeypatch.setattr(oracle, "iter_sl", lambda *a: pytest.fail("iter_sl called at n = 2"))
        for m in range(1, 13):
            calls.clear()
            list(oracle.iter_shell(2, m))
            faces = [
                r
                for r in product(range(-m, m + 1), repeat=2)
                if math.gcd(*r) == 1 and m in map(abs, r)
            ]
            assert sorted(calls) == sorted([(-b, a) for a, b in faces] + [(b, -a) for a, b in faces])


class TestShellStorage:
    """actions._shell keeps each shell by row position: entry k holds row k
    of every matrix, so zipping the entries back gives iter_shell."""

    @pytest.mark.parametrize(
        "n,m",
        [(1, m) for m in (1, 2, 3)] + [(2, m) for m in range(1, 41)] + [(3, m) for m in (1, 2, 3)],
    )
    def test_rows_zip_back_to_iter_shell(self, n, m):
        assert list(zip(*actions._shell(n, m))) == list(oracle.iter_shell(n, m))

    def test_n1_shells_past_one_are_empty(self):
        assert actions._shell(1, 1) == (((1,),),)
        assert actions._shell(1, 2) == actions._shell(1, 3) == ()

    def test_n1_records(self):
        assert dist_affine(PointA(5, (2,)), PointA(5, (2,)), 3) == DistanceRecord((2,), (2,), 5, 1, ((1,),), 3, 0.0)
        assert dist_affine(PointA(5, (1,)), PointA(5, (2,)), 3) == DistanceRecord((1,), (2,), 5, None, None, 3, None)
        assert dist_projective(PointP(5, (1,)), PointP(5, (2,)), 3) == DistanceRecord((1,), (1,), 5, 1, ((1,),), 3, 0.0)
        ones = {"50": 1, "90": 1, "99": 1}
        zeros = {"diameter": 0.0, "50": 0.0, "90": 0.0, "99": 0.0}
        for space, q in (("A", 2), ("P", 5)):
            assert diameter_profile(space, 1, q, 3) == {
                "space": space, "n": 1, "q": q, "size": 1, "pairs": 1,
                "diameter_norm": 1, "quantile_norms": ones, "exponents": zeros,
            }

    @pytest.mark.parametrize("q", [3, 4, 5, 12])
    @pytest.mark.parametrize("t_max", [1, 3, 1000])
    def test_n1_affine_diameter_is_refused_not_a_budget_failure(self, q, t_max):
        # SL_1(Z) = {1} fixes the phi(q) >= 2 points: no t_max resolves a pair
        assert len(affine_points(1, q)) >= 2
        assert dist_affine(PointA(q, (1,)), PointA(q, (-1,)), t_max).min_max_norm is None
        with pytest.raises(InvalidInput, match=r"SL_1\(Z\) = \{1\} fixes every point"):
            diameter_profile("A", 1, q, t_max)


class TestRowImages:
    """A scan takes each distinct row's image once: the memo's misses are
    the distinct rows of the matrices it walked, in walk order."""

    @pytest.fixture
    def memos(self, monkeypatch):
        made = []

        class Counting(actions._RowImages):
            def __init__(self, coords, q):
                super().__init__(coords, q)
                self.misses = 0
                made.append(self)

            def __missing__(self, row):
                self.misses += 1
                return super().__missing__(row)

        monkeypatch.setattr(actions, "_RowImages", Counting)
        return made

    @staticmethod
    def rows_of(matrices):
        return set(chain.from_iterable(matrices))

    @pytest.mark.parametrize("q", [6, 9, 16])
    def test_distance_takes_each_walked_row_once(self, memos, q):
        x, y = PointA(q, (1, 0)), PointA(q, (2, q - 1))
        record = dist_affine(x, y, 8 * q)
        walked = [g for m in range(1, record.min_max_norm) for g in oracle.iter_shell(2, m)]
        last = list(oracle.iter_shell(2, record.min_max_norm))
        walked += last[: last.index(record.witness) + 1]
        (memo,) = memos
        assert memo.misses == len(memo) == len(self.rows_of(walked))
        assert set(memo) == self.rows_of(walked)

    @pytest.mark.parametrize("space,n,q", [("A", 2, 7), ("P", 2, 12), ("A", 3, 3)])
    def test_profile_takes_each_walked_row_once(self, memos, space, n, q):
        # a profile stops within its last shell, so its memo holds the rows
        # of the shortest prefix of the shell-by-shell walk that covers it
        diameter_profile(space, n, q, 8 * q)
        assert memos
        for memo in memos:
            walk = (g for m in count(1) for g in oracle.iter_shell(n, m))
            rows = set()
            while not rows >= memo.keys():
                rows.update(next(walk))
            assert memo.misses == len(memo) == len(rows)
            assert set(memo) == rows


class TestPoints:
    def test_affine_rejects_imprimitive(self):
        with pytest.raises(InvalidInput):
            PointA(4, (2, 2))
        PointA(4, (2, 1))  # fine

    def test_projective_canonicalizes(self):
        p = PointP(5, (2, 4))
        assert p.coords == canonical_rep((2, 4), 5)
        assert p.coords == min(
            tuple(u * c % 5 for c in (2, 4)) for u in (1, 2, 3, 4)
        )

    def test_counts(self):
        assert len(affine_points(2, 2)) == 3
        assert len(projective_points(2, 2)) == 3
        assert len(projective_points(2, 5)) == 6


class TestCanonicalization:
    def test_unit_invariance_exhaustive(self):
        # every orbit member maps to the same representative; exhaustive
        # over all primitive vectors for moderate q plus spot checks above
        for q in list(range(2, 41)) + [49, 50, 64, 81, 97, 100]:
            units = units_mod(q)
            seen = {}
            for v in affine_points(2, q):
                c = canonical_rep(v, q)
                orbit_key = frozenset(tuple(u * x % q for x in v) for u in units)
                if orbit_key in seen:
                    assert seen[orbit_key] == c
                else:
                    seen[orbit_key] = c
                assert canonical_rep(c, q) == c  # idempotent

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 3), st.data())
    def test_orbit_invariance(self, q, n, data):
        v = tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
        assume(math.gcd(q, *v) == 1)
        u = data.draw(st.integers(-(10**6), 10**6).filter(lambda u: math.gcd(u, q) == 1))
        uv = tuple(u * c for c in v)
        c = canonical_rep(v, q)
        assert canonical_rep(uv, q) == c
        assert canonical_rep(c, q) == c
        assert c in orbit(v, q) and c == min(orbit(v, q))
        assert PointP(q, uv) == PointP(q, v)

    def test_bad_pair_coordinate_is_fixed(self):
        for q in (4, 6, 8, 12, 16):
            half = q // 2
            for u in units_mod(q):
                assert u * half % q == half


class TestDistances:
    def test_self_distance_is_one(self):
        assert dist_affine(PointA(7, (2, 3)), PointA(7, (2, 3)), 5).min_max_norm == 1
        assert dist_projective(PointP(7, (2, 3)), PointP(7, (2, 3)), 5).min_max_norm == 1

    def test_rotation_example(self):
        r = dist_affine(PointA(2, (1, 0)), PointA(2, (0, 1)), 5)
        assert r.min_max_norm == 1

    def test_shear_example(self):
        r = dist_affine(PointA(3, (1, 0)), PointA(3, (1, 1)), 5)
        assert r.min_max_norm == 1

    def test_witness_satisfies_action_exactly(self):
        for q in (3, 4, 5):
            pts = affine_points(2, q)
            for x, y in product(pts[:4], pts[:4]):
                r = dist_affine(PointA(q, x), PointA(q, y), 4 * q)
                g = r.witness
                assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1
                assert tuple(sum(g[i][j] * x[j] for j in range(2)) % q for i in range(2)) == y
                assert max(abs(e) for row in g for e in row) == r.min_max_norm

    def test_projective_witness_up_to_unit(self):
        q = 5
        for x, y in product(projective_points(2, q), repeat=2):
            r = dist_projective(PointP(q, x), PointP(q, y), 4 * q)
            g = r.witness
            image = tuple(sum(g[i][j] * x[j] for j in range(2)) % q for i in range(2))
            assert canonical_rep(image, q) == y

    def test_unreached_record(self):
        r = dist_affine(PointA(5, (1, 0)), PointA(5, (0, 1)), 0)
        assert r.min_max_norm is None and r.witness is None
        assert r.log_q_exponent is None

    @pytest.mark.parametrize("n, q", SMALL_SPACES)
    def test_records_match_naive_scan(self, n, q):
        t_max = 8 * q
        for x, y in product(affine_points(n, q), repeat=2):
            got = dist_affine(PointA(q, x), PointA(q, y), t_max)
            assert got == naive_distance(x, y, q, t_max, projective=False)
        for x, y in product(projective_points(n, q), repeat=2):
            got = dist_projective(PointP(q, x), PointP(q, y), t_max)
            assert got == naive_distance(x, y, q, t_max, projective=True)

    # the scans classify gamma * x from a per-scan memo of row images, which
    # must leave every first hit, witness included, where the naive scan has it
    @pytest.mark.parametrize("q", range(2, 31, 2))
    def test_bad_pair_matches_naive_scan(self, q):
        x, y = PointP(q, (1, 0)).coords, PointP(q, (1, q // 2)).coords
        assert projective_bad_pair(q) == naive_distance(x, y, q, 8 * q, projective=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_pairs_match_naive_scan(self, seed):
        rng = random.Random(seed)
        for _ in range(4):
            q = rng.randrange(2, 17)
            x, y = (rng.choice(affine_points(2, q)) for _ in range(2))
            got = dist_affine(PointA(q, x), PointA(q, y), 8 * q)
            assert got == naive_distance(x, y, q, 8 * q, projective=False)
            x, y = PointP(q, x).coords, PointP(q, y).coords
            got = dist_projective(PointP(q, x), PointP(q, y), 8 * q)
            assert got == naive_distance(x, y, q, 8 * q, projective=True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from("AP"),
        st.sampled_from([(2, q) for q in range(2, 13)] + [(3, 2), (3, 3), (3, 4)]),
        st.data(),
    )
    def test_signed_permutation_keeps_naive_norm(self, space, nq, data):
        # gamma -> P gamma P^-1 carries gamma x = y to a witness for (P x, P y)
        # of the same max norm, so the least norms agree
        n, q = nq
        projective = space == "P"
        cls = (lambda v: min(orbit(v, q))) if projective else (lambda v: v)
        vector = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
        x = data.draw(vector.filter(lambda v: math.gcd(q, *v) == 1))
        y = data.draw(vector.filter(lambda v: math.gcd(q, *v) == 1))
        perm = data.draw(st.permutations(range(n)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        px, py = (cls(signed_permutation(v, perm, signs, q)) for v in (x, y))
        t_max = 8 * q
        want = naive_distance(cls(x), cls(y), q, t_max, projective).min_max_norm
        assert want is not None
        assert naive_distance(px, py, q, t_max, projective).min_max_norm == want

    def test_mismatched_spaces(self):
        with pytest.raises(InvalidInput):
            dist_affine(PointA(5, (1, 0)), PointA(7, (1, 0)), 3)

    def test_first_column_fact(self):
        # distance from e = (1,0) equals the minimal norm over matrices with
        # prescribed first column, cross-checked by a dedicated scan
        q = 6
        e = PointA(q, (1, 0))
        for target in [(1, 1), (5, 2), (0, 1), (3, 2)]:
            r = dist_affine(e, PointA(q, target), 4 * q)
            direct = None
            for t in range(1, 4 * q + 1):
                for g in iter_sl(EnumSpec(n=2, caps=(t, t))):
                    if (g[0][0] % q, g[1][0] % q) == target:
                        direct = t
                        break
                if direct:
                    break
            assert r.min_max_norm == direct


class TestDiameterProfile:
    def test_p2(self):
        p = diameter_profile("P", 2, 2, 10)
        assert p["size"] == 3 and p["diameter_norm"] == 1
        assert p["exponents"]["diameter"] == 0.0

    @pytest.mark.parametrize(
        "q,size,diam",
        [(2, 3, 1), (3, 4, 1), (4, 6, 2), (5, 6, 2), (6, 12, 3), (7, 8, 2), (8, 12, 4)],
    )
    def test_projective_table(self, q, size, diam):
        p = diameter_profile("P", 2, q, 8 * q)
        assert p["size"] == size
        assert p["diameter_norm"] == diam

    def test_affine_table(self):
        assert diameter_profile("A", 2, 2, 10)["diameter_norm"] == 1
        assert diameter_profile("A", 2, 4, 20)["diameter_norm"] == 2
        assert diameter_profile("A", 2, 5, 30)["diameter_norm"] == 5

    @pytest.mark.parametrize("space", ["A", "P"])
    @pytest.mark.parametrize("n, q", SMALL_SPACES)
    def test_matches_naive_profile(self, space, n, q):
        assert diameter_profile(space, n, q, 8 * q) == naive_profile(space, n, q, 8 * q)

    @pytest.mark.parametrize("space", ["A", "P"])
    @pytest.mark.parametrize("n, q", UNEVEN_ORBIT_SPACES)
    def test_naive_profile_spaces_have_uneven_orbits(self, space, n, q):
        # a profile walks one source per orbit and counts it for every member,
        # so test_matches_naive_profile checks the weighting where sizes differ
        assert (n, q) in SMALL_SPACES
        assert len({len(o) for o in signed_permutation_orbits(space, n, q)}) > 1

    @pytest.mark.parametrize(
        "space, n, q, t_max",
        [("A", 2, 4, 1), ("A", 2, 8, 7), ("A", 2, 9, 8), ("P", 2, 8, 1), ("P", 2, 8, 2),
         ("P", 2, 8, 3), ("P", 2, 9, 2), ("A", 3, 4, 1), ("P", 3, 4, 1)],
    )
    def test_budget_names_first_unresolved_pair(self, space, n, q, t_max):
        # the first source in sorted order with an unreached target, and the
        # first such target, found by naive scans of every ordered pair
        projective = space == "P"
        points = projective_points(n, q) if projective else affine_points(n, q)
        src, missing = next(
            (x, y)
            for x, y in product(points, repeat=2)
            if naive_distance(x, y, q, t_max, projective).min_max_norm is None
        )
        with pytest.raises(BudgetExceeded) as exc:
            diameter_profile(space, n, q, t_max)
        assert str(exc.value) == f"pair ({src}, {missing}) unresolved within norm {t_max}"

    @pytest.mark.parametrize("space", ["A", "P"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_positive_n(self, space, n):
        with pytest.raises(InvalidInput, match="need n >= 1"):
            diameter_profile(space, n, 2, 16)

    def test_budget_exceeded(self):
        for space, pair in (("A", "((0, 1), (0, 2))"), ("P", "((0, 1), (1, 2))")):
            with pytest.raises(BudgetExceeded) as exc:
                diameter_profile(space, 2, 5, 1)
            assert str(exc.value) == f"pair {pair} unresolved within norm 1"

    def test_quantiles_are_ordered(self):
        p = diameter_profile("P", 2, 8, 64)
        q50, q90, q99 = (p["quantile_norms"][k] for k in ("50", "90", "99"))
        assert 1 <= q50 <= q90 <= q99 <= p["diameter_norm"]

    def test_triangle_inequality_norm_level(self):
        # min_norm(x -> z) <= n * min_norm(x -> y) * min_norm(y -> z)
        q = 4
        pts = projective_points(2, q)
        table = {}
        for x, y in product(pts, repeat=2):
            table[(x, y)] = dist_projective(PointP(q, x), PointP(q, y), 8 * q).min_max_norm
        for x, y, z in product(pts, repeat=3):
            assert table[(x, z)] <= 2 * table[(x, y)] * table[(y, z)]


class TestBadPair:
    @pytest.mark.parametrize("q", [4, 6, 8, 10, 12, 14, 16])
    def test_ratio_is_half(self, q):
        r = projective_bad_pair(q)
        assert r.min_max_norm == q // 2
        g = r.witness
        assert g is not None

    def test_requires_even(self):
        with pytest.raises(InvalidInput):
            projective_bad_pair(7)

    def test_lower_bound_forced_by_fixed_coordinate(self):
        # any witness must carry q/2 + qZ in its (2,1) slot, so norm >= q/2
        q = 12
        r = projective_bad_pair(q)
        assert abs(r.witness[1][0]) >= q // 2
