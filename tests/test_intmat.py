import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllift.errors import BadShape, DependentRows, InvalidInput, NotInvertible, NotSquare
from sllift.intmat import (
    IntMatrix,
    adjugate_mod,
    det,
    maximal_minors,
    norm_report,
    sl_class,
    size_reduce,
    solve_mod,
)
from sllift.lifting import lift, random_sl_matrix
from sllift.oracle import EnumSpec, min_lift_norm


def matmul(a, b):
    return IntMatrix([[sum(x * y for x, y in zip(r, c)) for c in zip(*b.rows)] for r in a.rows])


def rand_matrix(rng, rows, cols, bound):
    return IntMatrix([[rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)])


def solve_fractions(g, rhs):
    """Reference: exact solve of the square system g * x = rhs over Fraction."""
    k = len(g)
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(g, rhs)]
    for col in range(k):
        piv = next((i for i in range(col, k) if m[i][col] != 0), None)
        if piv is None:
            raise DependentRows("Gram matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(k):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][k] for i in range(k)]


def size_reduce_fractions(v, b):
    """Reference: rational Gram solve, each coefficient rounded as floor(a + 1/2)."""
    rows = b.rows
    g = [[sum(x * y for x, y in zip(r1, r2)) for r2 in rows] for r1 in rows]
    rhs = [sum(x * y for x, y in zip(r, v)) for r in rows]
    out = list(v)
    for coeff, row in zip(solve_fractions(g, rhs), rows):
        k = (2 * coeff + 1) // 2
        out = [x - k * y for x, y in zip(out, row)]
    return tuple(out)


class TestDet:
    def test_examples(self):
        assert det(IntMatrix.identity(3)) == 1
        assert det(IntMatrix([[3, 5], [1, 2]])) == 1
        assert det(IntMatrix([[2, 0], [0, 2]])) == 4

    def test_not_square(self):
        with pytest.raises(NotSquare):
            det(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_bareiss_agrees_with_cofactor(self):
        # every size goes through fraction-free elimination; pin it against
        # the Laplace expansion evaluated by hand via permutation sum
        rng = random.Random(11)
        from itertools import permutations

        def perm_det(m):
            n = m.nrows
            total = 0
            for perm in permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                total += sign * math.prod(m.rows[i][perm[i]] for i in range(n))
            return total

        for n in range(1, 6):
            for _ in range(25):
                m = rand_matrix(rng, n, n, 6)
                assert det(m) == perm_det(m)
            # zero leading entries force row swaps; a repeated row is singular
            m = IntMatrix([[0] * (n - 1) + [1]] + [[int(i == j) for j in range(n)] for i in range(n - 1)])
            assert det(m) == perm_det(m)
            if n > 1:
                m = rand_matrix(rng, n, n, 6)
                assert det(IntMatrix(m.rows[:-1] + m.rows[:1])) == 0


class TestAdjugateMod:
    def test_identity(self):
        assert adjugate_mod(IntMatrix.identity(4), 7) == IntMatrix.identity(4)

    def test_rotation(self):
        got = adjugate_mod(IntMatrix([[0, -1], [1, 0]]), 5)
        assert got == IntMatrix([[0, 1], [4, 0]])

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            adjugate_mod(IntMatrix([[2, 0], [0, 1]]), 5)
        with pytest.raises(NotInvertible):
            adjugate_mod(IntMatrix([[1, 2], [2, 4]]), 5)

    def test_modulus_one_singular(self):
        # every matrix has det = 1 mod 1, singular ones included
        for m in (IntMatrix([[1, 2], [2, 4]]), IntMatrix([[0, 0, 0]] * 3)):
            assert adjugate_mod(m, 1) == IntMatrix([[0] * m.nrows] * m.nrows)

    def test_no_unit_in_first_column(self):
        # det = -5 = 1 mod 6, but 2 and 3 are both zero divisors mod 6
        m = IntMatrix([[2, 3], [3, 2]])
        inv = adjugate_mod(m, 6)
        assert inv == IntMatrix([[2, 3], [3, 2]])  # its own inverse: m^2 = [[13, 12], [12, 13]] = I mod 6
        assert matmul(m, inv).reduce_mod(6) == IntMatrix.identity(2)

    def test_not_invertible_message(self):
        with pytest.raises(NotInvertible, match=r"^det is 0 mod 6, need 1$"):
            adjugate_mod(IntMatrix([[2, 3], [4, 0]]), 6)
        with pytest.raises(NotInvertible, match=r"^det is 3 mod 30030, need 1$"):
            solve_mod(IntMatrix([[3, 0], [0, 1]]), (1, 1), 30030)

    def test_two_sided_inverse_mod_35(self):
        for seed in range(20):
            m = random_sl_matrix(3, 35, seed)
            inv = adjugate_mod(m, 35)
            assert matmul(m, inv).reduce_mod(35) == IntMatrix.identity(3)
            assert matmul(inv, m).reduce_mod(35) == IntMatrix.identity(3)


MODULI = st.sampled_from([2, 3, 7, 101, 10**9 + 7, 4, 8, 9, 27, 1024, 6, 30, 30030])


@st.composite
def square_mod(draw, dense):
    """(n, q, rows): a square matrix of residues; dense draws entries
    uniformly, otherwise from {0, 1, q - 1, q/p} so columns without a unit and
    matrices singular mod q are common."""
    n = draw(st.integers(1, 8))
    q = draw(MODULI)
    if dense:
        entry = st.integers(0, q - 1)
    else:
        entry = st.sampled_from(sorted({0, 1, q - 1} | {q // p for p in (2, 3, 5, 7, 11, 13) if q % p == 0}))
    return n, q, [[draw(entry) for _ in range(n)] for _ in range(n)]


class TestEliminateMod:
    """The one elimination over Z/qZ behind adjugate_mod and solve_mod."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(square_mod(True), square_mod(False)))
    def test_det_and_inverse(self, case):
        n, q, rows = case
        d = det(IntMatrix(rows)) % q
        # its determinant mod q is the exact one: named in NotInvertible unless it is 1
        if d != 1 % q:
            for call in (
                lambda: adjugate_mod(IntMatrix(rows), q),
                lambda: solve_mod(IntMatrix(rows), (0,) * n, q),
            ):
                with pytest.raises(NotInvertible, match=rf"^det is {d} mod {q}, need 1$"):
                    call()
        if math.gcd(d, q) != 1:
            return
        # a unit determinant: scale the first row to det = 1 mod q
        rows[0] = [x * pow(d, -1, q) % q for x in rows[0]]
        m = IntMatrix(rows)
        inv = adjugate_mod(m, q)
        assert all(0 <= e < q for row in inv.rows for e in row)
        assert matmul(m, inv).reduce_mod(q) == IntMatrix.identity(n).reduce_mod(q)
        w = tuple(range(1, n + 1))
        alpha = solve_mod(m, w, q)
        assert all(0 <= e < q for e in alpha)
        assert all(sum(alpha[i] * rows[i][j] for i in range(n)) % q == w[j] % q for j in range(n))


class TestMaximalMinors:
    def test_examples(self):
        assert maximal_minors(IntMatrix([[1, 0, 0], [0, 1, 0]])) == (0, 0, 1)
        assert maximal_minors(IntMatrix([[3, 5]])) == (-5, 3)
        top = IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert maximal_minors(top) == (0, 0, 0, 1)

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            maximal_minors(IntMatrix([[1, 2], [3, 4]]))

    def test_determinant_expansion(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randrange(2, 6)
            b = rand_matrix(rng, n - 1, n, 100)
            v = [rng.randrange(-100, 101) for _ in range(n)]
            c = maximal_minors(b)
            assert det(b.with_row(v)) == sum(x * y for x, y in zip(v, c))

    def test_matches_deleted_column_determinants(self):
        # the definition, one determinant per deleted column, on matrices
        # where the last minors vanish or the rows are dependent
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randrange(2, 7)
            rows = [list(r) for r in rand_matrix(rng, n - 1, n, rng.choice([1, 3, 10**6])).rows]
            shape = rng.randrange(4)
            if shape == 1:  # zero columns, so the first tried minors vanish
                for r in rows:
                    r[n - 1] = 0
                    r[rng.randrange(n)] = 0
            elif shape == 2 and n > 2:  # dependent rows
                rows[0] = [rng.randrange(-3, 4) * v for v in rows[-1]]
            b = IntMatrix(rows)
            expected = tuple(
                (-1) ** (n + i + 1) * det(IntMatrix([r[:i] + r[i + 1 :] for r in rows]))
                for i in range(n)
            )
            assert maximal_minors(b) == expected, rows


class TestSolveMod:
    def test_examples(self):
        assert solve_mod(IntMatrix.identity(3), (2, 3, 0), 10) == (2, 3, 0)
        m = random_sl_matrix(3, 12, 4)
        assert solve_mod(m, m.rows[0], 12) == (1, 0, 0)

    def test_reconstruction_and_cramer(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(2, 5)
            q = rng.choice([12, 35, 64, 101])
            a = random_sl_matrix(n, q, rng.randrange(2**30))
            w = tuple(rng.randrange(q) for _ in range(n))
            alpha = solve_mod(a, w, q)
            for j in range(n):
                got = sum(alpha[i] * a.rows[i][j] for i in range(n)) % q
                assert got == w[j]
            # the last coefficient is exactly the Cramer determinant mod q
            cramer = det(IntMatrix(a.rows[: n - 1]).with_row(w)) % q
            assert alpha[n - 1] == cramer


    @pytest.mark.parametrize("q", [0, -3])
    def test_modulus_below_one_is_refused(self, q):
        # refused up front: q = 0 would divide by zero, and q = -3 would
        # answer with residues of a negative modulus
        with pytest.raises(InvalidInput, match=f"got {q}"):
            solve_mod(IntMatrix.identity(2), (1, 1), q)
        with pytest.raises(InvalidInput, match=f"got {q}"):
            adjugate_mod(IntMatrix.identity(2), q)

    def test_vector_entries_must_be_integers(self):
        with pytest.raises(InvalidInput, match="2.5"):
            solve_mod(IntMatrix.identity(2), (1, 2.5), 7)
        assert solve_mod(IntMatrix.identity(2), (True, 3), 7) == (1, 3)


class TestSizeReduce:
    def test_vector_entries_must_be_integers(self):
        b = IntMatrix([[1, 0]])
        with pytest.raises(InvalidInput, match="'7'"):
            size_reduce((0, "7"), b, maximal_minors(b))

    def test_examples(self):
        def reduce(v, rows):
            b = IntMatrix(rows)
            return size_reduce(v, b, maximal_minors(b))

        assert reduce((0, 1), [[1, 0]]) == (0, 1)
        assert reduce((7, 0), [[1, 0]]) == (0, 0)
        assert reduce((100, 201), [[1, 2]]) == (0, 1)
        # exact half-integer coefficients round toward +inf
        assert reduce((1, 0), [[2, 0]]) == (-1, 0)
        assert reduce((-1, 0), [[2, 0]]) == (-1, 0)
        assert reduce((3, 0, 5), [[2, 0, 0], [0, 0, 2]]) == (-1, 0, -1)
        assert reduce((-3, 0, -5), [[2, 0, 0], [0, 0, 2]]) == (-1, 0, -1)
        # the solve borrows column j = 0, where c_j = -2 < 0: the same ties
        assert reduce((5, 3), [[0, 2]]) == (5, -1)
        assert reduce((5, -1), [[0, 2]]) == (5, -1)

    def test_dependent_rows(self):
        b = IntMatrix([[1, 2, 3], [2, 4, 6]])
        with pytest.raises(DependentRows):
            size_reduce((1, 2, 3), b, maximal_minors(b))

    def test_bad_shape(self):
        b = IntMatrix([[1, 0, 0]])
        with pytest.raises(BadShape):
            size_reduce((1, 2, 3), b, (0, 0, 1))

    def test_stays_in_coset(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randrange(2, 6)
            b = rand_matrix(rng, n - 1, n, 50)
            c = maximal_minors(b)
            if all(x == 0 for x in c):
                continue  # dependent rows
            v = [rng.randrange(-500, 501) for _ in range(n)]
            w = size_reduce(v, b, c)
            # v - w must be an integer combination of the rows of b
            diff = [x - y for x, y in zip(v, w)]
            g = [[sum(r1[j] * r2[j] for j in range(n)) for r2 in b.rows] for r1 in b.rows]
            rhs = [sum(r[j] * diff[j] for j in range(n)) for r in b.rows]
            coeffs = solve_fractions(g, rhs)
            assert all(c.denominator == 1 for c in coeffs)
            for j in range(n):
                assert diff[j] == sum(coeffs[i] * b.rows[i][j] for i in range(n - 1))

    def test_matches_fraction_reference(self):
        rng = random.Random(43)
        for n in range(2, 17):
            for bound in (3, 10**6, 10**12):
                for _ in range(6 if n <= 8 else 2):
                    b = rand_matrix(rng, n - 1, n, bound)
                    c = maximal_minors(b)
                    if all(x == 0 for x in c):
                        continue  # dependent rows
                    v = [rng.randrange(-bound, bound + 1) for _ in range(n)]
                    assert size_reduce(v, b, c) == size_reduce_fractions(v, b)
                    # a lattice point plus half a row of 2B is an exact tie
                    ks = [rng.randrange(-bound, bound + 1) for _ in range(n - 1)]
                    tie = list(b.rows[rng.randrange(n - 1)])
                    for k, r in zip(ks, b.rows):
                        tie = [x + 2 * k * y for x, y in zip(tie, r)]
                    b2 = IntMatrix([[2 * x for x in r] for r in b.rows])
                    assert size_reduce(tie, b2, maximal_minors(b2)) == size_reduce_fractions(tie, b2)


class TestNormReport:
    def test_zero(self):
        assert norm_report(IntMatrix([[0, 0], [0, 0]])).op_norm_estimate == 0.0

    def test_sandwich(self):
        rng = random.Random(59)
        tol = 1e-6
        for _ in range(100):
            n = rng.randrange(1, 6)
            m = rand_matrix(rng, n, n, 10** rng.randrange(1, 5))
            rep = norm_report(m)
            assert rep.max_norm <= rep.op_norm_estimate * (1 + tol)
            assert rep.op_norm_estimate <= n * rep.max_norm * (1 + tol)


class TestIntMatrix:
    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", None])
    def test_entries_must_be_integers(self, bad):
        # each is refused, naming it, rather than truncated or parsed by int()
        with pytest.raises(InvalidInput, match=f"got {bad!r}"):
            IntMatrix([[1, 0], [bad, 1]])
        with pytest.raises(InvalidInput, match=f"got {bad!r}"):
            IntMatrix([[1, 0]]).with_row((bad, 1))

    def test_is_immutable(self):
        # `m.rows = ((9,),)` succeeded and left a hashed key silently changed
        m = IntMatrix([[1, 2], [3, 7]])
        key = hash(m)
        with pytest.raises(AttributeError, match="^IntMatrix is immutable$"):
            m.rows = ((9,),)
        with pytest.raises(AttributeError, match="^IntMatrix is immutable$"):
            del m.rows
        assert m.rows == ((1, 2), (3, 7)) and hash(m) == key
        assert pickle.loads(pickle.dumps(m)) == copy.deepcopy(m) == copy.copy(m) == m

    def test_ints_and_bools_are_accepted(self):
        m = IntMatrix([[True, False], (0, 1)])
        assert m.rows == ((1, 0), (0, 1)) and type(m.rows[0][0]) is int
        assert IntMatrix([[1]]).with_row([False]).rows == ((1,), (0,))

    def test_shape_validation(self):
        with pytest.raises(BadShape):
            IntMatrix([])
        with pytest.raises(BadShape):
            IntMatrix([[1, 2], [3]])

    def test_max_norm(self):
        assert IntMatrix([[3, -9], [2, 1]]).max_norm() == 9


# (rows, q, the InvalidInput text): each bad in one way, at n = 2 where it has an n
BAD_CLASSES = [
    ([[1, 0, 0], [0, 1, 0]], 5, "need a square matrix, got rows of lengths (3, 3)"),
    ([[1, 0], [0]], 5, "need rows of one positive length, got rows of lengths (2, 1)"),
    ([[2, 0], [0, 2]], 5, "det is 4 mod 5, need 1"),
    ([[1, 0], [0, 1]], 5.0, "need integers, got 5.0"),
    ([[1, 0], [0, 1]], 0, "need q >= 1, got 0"),
]


class TestSlClass:
    @pytest.mark.parametrize("rows, q, message", BAD_CLASSES, ids=["non-square", "ragged", "det", "float-q", "q-zero"])
    def test_every_reader_refuses_a_bad_class_with_one_text(self, rows, q, message):
        # lift, min_lift_norm and EnumSpec each had their own check and text
        readers = {
            "sl_class": lambda: sl_class(rows, q),
            "lift": lambda: lift(rows, q),
            "min_lift_norm": lambda: min_lift_norm(rows, q, 10),
            "EnumSpec": lambda: EnumSpec(n=2, caps=(1, 1), q=q, x=rows),
        }
        for name, read in readers.items():
            with pytest.raises(InvalidInput) as info:
                read()
            assert (name, str(info.value)) == (name, message)

    def test_returns_the_int_modulus_and_the_reduced_class(self):
        for x in (IntMatrix([[6, -4], [10, 1]]), [[6, -4], [10, 1]], ((True, 1), (0, 1))):
            q, xq = sl_class(x, True + 4)
            assert type(q) is int and q == 5
            assert xq == IntMatrix([[1, 1], [0, 1]])
        assert sl_class([[0]], 1) == (1, IntMatrix([[0]]))
