"""Exact integer linear algebra on the lattice Z^n.

Two eliminations: Bareiss fraction-free echelon form gives determinants and
ranks; Smith normal form with certificates gives integer kernels, the
extend-to-basis test behind fan smoothness, and unimodular inverses.  All
arithmetic uses Python integers, so results are exact at any magnitude;
the desk-scale bounds below are enforced where external data enters
(fan construction and file parsing), not on intermediate certificates.

>>> determinant(IntegerMatrix.from_rows([(2, 1), (1, 1)]))
1
>>> extends_to_basis([(1, 0)], 2)
True
>>> extends_to_basis([(2, 0)], 2)
False
"""

from __future__ import annotations

from math import gcd
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError

LatticeVector = tuple[int, ...]

# Desk-scale input bounds: coordinates of parsed/constructed rays and ambient
# dimensions beyond these are rejected loudly rather than computed with.
MAX_DIM = 8
MAX_ENTRY = 10**6


def as_vector(coords: Iterable[int]) -> LatticeVector:
    v = tuple(coords)
    if not v:
        raise DomainError("lattice vectors must have dimension >= 1")
    for x in v:
        if not isinstance(x, int) or isinstance(x, bool):
            raise DomainError(f"lattice vector entries must be integers, got {x!r}")
    return v


def content(v: LatticeVector) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def is_primitive(v: LatticeVector) -> bool:
    return content(v) == 1


def primitive_part(v: LatticeVector) -> LatticeVector:
    """Divide out the content; the zero vector has no primitive part."""
    g = content(v)
    if g == 0:
        raise DomainError("the zero vector has no primitive part")
    return tuple(x // g for x in v)


class IntegerMatrix:
    """Immutable integer matrix stored row-major."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise DomainError("matrices must have at least one row and one column")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise DomainError("matrix rows must all have the same length")
            for x in r:
                # exact ints pass on one type test; bools and non-ints fall through
                if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
                    raise DomainError(f"matrix entries must be integers, got {x!r}")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntegerMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        return cls(rows)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "IntegerMatrix":
        cols = [tuple(c) for c in cols]
        if not cols or not cols[0]:
            raise DomainError("matrices must have at least one row and one column")
        return cls(zip(*cols))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def row(self, i: int) -> LatticeVector:
        return self.entries[i]

    def column(self, j: int) -> LatticeVector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(zip(*self.entries))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DomainError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = list(zip(*other.entries))
        return IntegerMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        )

    def apply(self, v: Sequence[int]) -> LatticeVector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise DomainError(f"cannot apply {self.rows}x{self.cols} to length-{len(v)} vector")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = ", ".join(str(list(r)) for r in self.entries)
        return f"IntegerMatrix([{body}])"


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Bareiss fraction-free row echelon form: (rank, swap sign, last pivot).

    Every entry stays a minor of the input, so each division by the
    previous pivot is exact.  A column with no pivot left is skipped, which
    gives the rank of a rectangular matrix; a square matrix of full rank
    has determinant sign * last pivot.  Rows are swapped only when the
    entry on the staircase is zero.
    """
    a = [list(r) for r in rows]
    nr, nc = len(a), len(a[0])
    r, sign, prev = 0, 1, 1
    for col in range(nc):
        if a[r][col] == 0:
            swap = next((i for i in range(r + 1, nr) if a[i][col] != 0), None)
            if swap is None:
                continue
            a[r], a[swap] = a[swap], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for i in range(r + 1, nr):
            row = a[i]
            x = row[col]
            for j in range(col + 1, nc):
                row[j] = (row[j] * p - x * top[j]) // prev
        prev = p
        r += 1
        if r == nr:
            break
    return r, sign, prev


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    if m.rows != m.cols:
        raise DomainError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    r, sign, last = _echelon(m.entries)
    return sign * last if r == m.rows else 0


def is_unimodular(m: IntegerMatrix) -> bool:
    return m.rows == m.cols and abs(determinant(m)) == 1


class SmithNormalForm(NamedTuple):
    """Certified decomposition u @ m @ v == d with u, v unimodular."""

    u: IntegerMatrix
    d: IntegerMatrix
    v: IntegerMatrix


def smith_normal_form(m: IntegerMatrix) -> SmithNormalForm:
    """Smith normal form by elementary row/column operations.

    The transformations are accumulated into certificates, so the identity
    u @ m @ v == d can be (and is, in tests) checked by multiplication.
    The diagonal of d is nonnegative and satisfies the divisibility chain
    d[0] | d[1] | ... ; trailing entries are zero when rank is deficient.
    """
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # Pivot: smallest-magnitude nonzero entry of the trailing submatrix.
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x != 0 and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
            row_left = next((i for i in range(t + 1, nr) if a[i][t] != 0), None)
            if row_left is not None:
                swap_rows(t, row_left)
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
            col_left = next((j for j in range(t + 1, nc) if a[t][j] != 0), None)
            if col_left is not None:
                swap_cols(t, col_left)
                continue
            # Row and column are clear; force the pivot to divide the rest.
            stray = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            add_row(stray, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return SmithNormalForm(IntegerMatrix(u), IntegerMatrix(a), IntegerMatrix(v))


def rank(m: IntegerMatrix) -> int:
    """Rank over Q, by fraction-free elimination."""
    return _echelon(m.entries)[0]


def kernel_basis(m: IntegerMatrix) -> list[LatticeVector]:
    """Integer basis of {x : m @ x = 0}, read off the Smith certificate."""
    snf = smith_normal_form(m)
    free: list[LatticeVector] = []
    limit = min(m.rows, m.cols)
    for j in range(m.cols):
        if j >= limit or snf.d.entry(j, j) == 0:
            free.append(snf.v.column(j))
    return free


def extends_to_basis(vectors: Sequence[Sequence[int]], n: int) -> bool:
    """Whether the vectors extend to a Z-basis of Z^n.

    True iff the k x n matrix they form has Smith diagonal all ones
    (equivalently: the vectors span a rank-k direct summand of Z^n).
    More than n vectors can never form part of a basis.
    """
    vs = [as_vector(v) for v in vectors]
    for v in vs:
        if len(v) != n:
            raise DomainError(f"expected vectors of dimension {n}, got {v!r}")
    k = len(vs)
    if k == 0:
        return True
    if k > n:
        return False
    mat = IntegerMatrix.from_rows(vs)
    if k == n:
        return abs(determinant(mat)) == 1
    d = smith_normal_form(mat).d
    return all(d.entry(i, i) == 1 for i in range(k))


def unimodular_inverse(m: IntegerMatrix) -> IntegerMatrix:
    """Inverse of a unimodular matrix, read off its Smith certificate.

    The Smith form of a unimodular matrix is the identity, so u @ m @ v == I
    and the inverse is v @ u.
    """
    det = determinant(m)
    if abs(det) != 1:
        raise DomainError(f"matrix with determinant {det} has no integer inverse")
    snf = smith_normal_form(m)
    return snf.v @ snf.u


def random_unimodular(n: int, rng: Random, max_entry: int = 5, steps: int = 40) -> IntegerMatrix:
    """Random unimodular matrix built from elementary operations.

    Shears that would push an entry past max_entry are skipped, so the
    result respects the bound by construction.
    """
    if n < 1:
        raise DomainError("dimension must be >= 1")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-x for x in rows[i]]
        elif op == 2 and i != j:
            c = rng.choice((-1, 1))
            cand = [x + c * y for x, y in zip(rows[i], rows[j])]
            if max(abs(x) for x in cand) <= max_entry:
                rows[i] = cand
    return IntegerMatrix(rows)
