"""Exact integer and mod-q matrix algebra.

Determinants, maximal minors and size reduction against a fixed basis run on
one fraction-free (Bareiss) elimination over Z; inverses mod q and the mod-q
row-combination solver run on one Gaussian elimination over Z/qZ whose
entries stay below q.  All arithmetic is exact integer; the only float in
this module is the informational operator-norm estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadShape, DependentRows, InvalidInput, NotInvertible, NotSquare, as_int, as_ints
from .residue import ext_gcd

# Power iteration in op_norm_estimate stops at this relative change or count.
_OP_NORM_TOL = 1e-9
_OP_NORM_MAX_ITER = 10000
# as_matrix's shapes and their faults, by how many rows fewer than columns
_SHAPES = {0: ("a square matrix", NotSquare), 1: ("an (n-1) x n matrix", BadShape)}


class IntMatrix:
    """Immutable dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = as_ints(rows, as_ints)
        if len(set(map(len, rows))) != 1 or not rows[0]:
            raise BadShape(f"need rows of one positive length, got rows of lengths {tuple(map(len, rows))}")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *_):
        raise AttributeError("IntMatrix is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return IntMatrix, (self.rows,)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        n = as_int(n, 1, "n")
        return IntMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def reduce_mod(self, q: int) -> "IntMatrix":
        q = as_int(q, 1, "q")
        return IntMatrix(tuple(tuple(x % q for x in r) for r in self.rows))

    def with_row(self, v) -> "IntMatrix":
        """New matrix with v appended as the last row."""
        return IntMatrix(self.rows + (as_ints(v),))

    def max_norm(self) -> int:
        return max(abs(x) for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))})"


def as_matrix(m, short: int | None = None) -> IntMatrix:
    """m as an IntMatrix (as it is, or read once by IntMatrix) with short
    fewer rows than columns (_SHAPES), or of any shape for short = None."""
    m = m if isinstance(m, IntMatrix) else IntMatrix(m)
    if short is not None and m.nrows + short != m.ncols:
        shape, error = _SHAPES[short]
        raise error(f"need {shape}, got rows of lengths {tuple(map(len, m.rows))}")
    return m


@dataclass(frozen=True)
class NormReport:
    """Max absolute entry plus a float spectral-norm estimate (tables only)."""

    max_norm: int
    op_norm_estimate: float


def _eliminate(rows, rhs=()):
    """Fraction-free (Bareiss) elimination of [A | b] for square A.

    Returns (d, x) with d = det(A) and x = adj(A) b, the rows of b given as
    rhs (none for a bare determinant).  Every intermediate entry is a minor
    of [A | b], so each division is exact; back-substitution recovers
    x = d A^-1 b, integral by Cramer's rule.  A singular A gives (0, None).
    """
    n = len(rows)
    a = [list(r) + list(e) for r, e in zip(rows, rhs)] if rhs else [list(r) for r in rows]
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    d = sign * prev
    x = [()] * n
    for i in reversed(range(n)):
        row = a[i]
        x[i] = [
            (d * row[n + c] - sum(row[j] * x[j][c] for j in range(i + 1, n))) // row[i]
            for c in range(width - n)
        ]
    return d, x


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination."""
    return _eliminate(as_matrix(m, 0).rows)[0]


def sl_class(x, q) -> tuple[int, IntMatrix]:
    """(q, x mod q) for a class x of SL_n(Z/qZ) (IntMatrix or integer rows):
    q >= 1 by as_int, x square by as_matrix, det x = 1 mod q; else InvalidInput."""
    q = as_int(q, 1, "q")
    xq = as_matrix(x, 0).reduce_mod(q)
    if (d := det(xq) % q) != 1 % q:
        raise InvalidInput(f"det is {d} mod {q}, need 1")
    return q, xq


def _eliminate_mod(rows, q, rhs):
    """A^-1 R mod q for square A with det = 1 mod q, by elimination over Z/qZ.

    Entries stay in [0, q).  A column with a unit on or below the diagonal
    takes it as pivot (a row swap negates the determinant) and clears the
    rows below by subtracting multiples.  A column without one (possible in
    an invertible matrix only when q has two prime factors, as
    [[2, 3], [3, 2]] mod 6) is cleared by 2x2 row steps [[s, t], [-b/g, a/g]] of
    determinant 1 (s*a + t*b = g = gcd(a, b)), which leave the column's gcd
    on the diagonal.  det(A) mod q is then the signed product of the
    diagonal; NotInvertible reports it unless it is 1, and otherwise every
    pivot is a unit and back-substitution gives the solution.
    """
    n = len(rows)
    a = [[x % q for x in r] + [y % q for y in extra] for r, extra in zip(rows, rhs)]
    d = 1
    for k in range(n):
        unit = next((i for i in range(k, n) if math.gcd(a[i][k], q) == 1), None)
        if unit is None:
            for i in range(k + 1, n):
                if a[i][k]:
                    g, s, t = ext_gcd(a[k][k], a[i][k])
                    u, w = a[k][k] // g, a[i][k] // g
                    top, row = a[k], a[i]
                    a[k] = [(s * x + t * y) % q for x, y in zip(top, row)]
                    a[i] = [(u * y - w * x) % q for x, y in zip(top, row)]
        else:
            if unit != k:
                a[k], a[unit] = a[unit], a[k]
                d = -d
            top = a[k]
            inv = pow(top[k], -1, q)
            for i in range(k + 1, n):
                f = a[i][k] * inv % q
                if f:
                    a[i] = [(x - f * y) % q for x, y in zip(a[i], top)]
        d = d * a[k][k] % q
    if d != 1 % q:
        raise NotInvertible(f"det is {d} mod {q}, need 1")
    x = [()] * n
    for i in reversed(range(n)):
        row = a[i]
        inv = pow(row[i], -1, q)
        x[i] = [
            (row[n + c] - sum(row[j] * x[j][c] for j in range(i + 1, n))) * inv % q
            for c in range(len(row) - n)
        ]
    return x


def adjugate_mod(m: IntMatrix, q: int) -> IntMatrix:
    """Inverse mod q of a matrix with det = 1 mod q (its adjugate reduced)."""
    q, m = as_int(q, 1, "q"), as_matrix(m, 0)
    return IntMatrix(_eliminate_mod(m.rows, q, IntMatrix.identity(m.nrows).rows))


def maximal_minors(b: IntMatrix) -> tuple[int, ...]:
    """Signed maximal minors c of an (n-1) x n matrix.

    Signs are fixed so det(stack(B, v)) = <v, c> for every row vector v,
    i.e. c_i = (-1)^(n+i) det(B with column i deleted), i counted from 1.
    These are the last-row cofactors of stack(B, r) for any r, so c is
    adj(stack(B, e_j)) e_n, one elimination once c_j != 0.  j runs down
    from n; when every c_j vanishes B is rank-deficient and c = 0.
    """
    b = as_matrix(b, 1)
    n = b.ncols
    e_n = [(0,)] * (n - 1) + [(1,)]
    for j in reversed(range(n)):
        d, x = _eliminate(b.rows + (tuple(int(k == j) for k in range(n)),), e_n)
        if d:
            return tuple(v for (v,) in x)
    return (0,) * n


def solve_mod(a: IntMatrix, w, q: int) -> tuple[int, ...]:
    """Coefficients (a_1..a_n) mod q with sum a_i * row_i(A) = w mod q.

    A must have det = 1 mod q.  The solution is unique mod q: it solves
    A^T a = w by one elimination over Z/qZ, and it equals w adj(A) mod q,
    so the last coefficient is the Cramer determinant det(rows 1..n-1, w)
    mod q and in particular vanishes whenever that determinant does.
    """
    q, a, w = as_int(q, 1, "q"), as_matrix(a, 0), as_ints(w)
    if len(w) != a.nrows:
        raise BadShape(f"vector length {len(w)} vs matrix size {a.nrows}")
    return tuple(y for (y,) in _eliminate_mod(tuple(zip(*a.rows)), q, [(y,) for y in w]))


def size_reduce(v, b: IntMatrix, c) -> tuple[int, ...]:
    """Reduce v modulo the row lattice of an (n-1) x n matrix B by
    nearest-integer projection, given c = maximal_minors(B).

    c is orthogonal to every row of B, so the projection of v onto their
    span is |c|^-2 (|c|^2 v - <v, c> c) = B^T a with a = G^-1 B v
    (G = B B^T, det G = |c|^2 by Cauchy-Binet).  One fraction-free solve of
    [B; e_j]^T y = |c|^2 v - <v, c> c, for the last column j with c_j != 0
    (det = c_j), gives y = (|c|^2 a, 0), and the function returns
    v - sum round(a_i) row_i(B), rounding ties toward +inf.  The output is
    congruent to v mod the row lattice; when the component of v orthogonal
    to the rows has length at most 1 (as in unimodular completion), its max
    norm is at most (n/2) max_norm(B) + 1.  Arithmetic is exact integer.
    """
    b, v, c = as_matrix(b, 1), as_ints(v), as_ints(c)
    n = b.ncols
    if len(v) != n or len(c) != n:
        raise BadShape(f"need v, c of length {n}, got {len(v)}, {len(c)}")
    norm2 = sum(x * x for x in c)
    if norm2 == 0:
        raise DependentRows("Gram matrix is singular")
    j = max(i for i, x in enumerate(c) if x)
    vc = sum(x * y for x, y in zip(v, c))
    rhs = [(norm2 * x - vc * y,) for x, y in zip(v, c)]
    cols = [col + (int(i == j),) for i, col in enumerate(zip(*b.rows))]
    d, x = _eliminate(cols, rhs)
    den = d * norm2
    out = list(v)
    for (num,), row in zip(x, b.rows):
        k = (2 * num + den) // (2 * den)  # floor(num / den + 1/2) for either sign of den
        if k:
            for i in range(n):
                out[i] -= k * row[i]
    return tuple(out)


def op_norm_estimate(m: IntMatrix) -> float:
    """Largest singular value by power iteration on A^T A (informational).

    Started from the basis vector of the column holding the largest entry,
    so the estimate is never below the max norm; it approaches the true
    operator norm from below.
    """
    m = as_matrix(m)
    top = m.max_norm()
    if top == 0:
        return 0.0
    try:
        scale = float(top)
    except OverflowError:
        return math.inf
    a = [[x / scale for x in r] for r in m.rows]
    nr, nc = m.nrows, m.ncols
    j_star = max(
        ((i, j) for i in range(nr) for j in range(nc)),
        key=lambda ij: abs(m.rows[ij[0]][ij[1]]),
    )[1]
    v = [1.0 if j == j_star else 0.0 for j in range(nc)]
    last = 0.0
    for _ in range(_OP_NORM_MAX_ITER):
        w = [sum(a[i][j] * v[j] for j in range(nc)) for i in range(nr)]
        u = [sum(a[i][j] * w[i] for i in range(nr)) for j in range(nc)]
        nv = math.sqrt(sum(x * x for x in v))
        sigma = math.sqrt(sum(x * x for x in w)) / nv
        if abs(sigma - last) <= _OP_NORM_TOL * max(sigma, 1.0):
            last = max(last, sigma)
            break
        last = max(last, sigma)
        nu = math.sqrt(sum(x * x for x in u))
        if nu == 0.0:
            break
        v = [x / nu for x in u]
    return last * scale


def norm_report(m: IntMatrix) -> NormReport:
    m = as_matrix(m)
    return NormReport(max_norm=m.max_norm(), op_norm_estimate=op_norm_estimate(m))
