import random

import pytest

from fandec.errors import DomainError
from fandec.lattice import (
    IntegerMatrix,
    as_vector,
    content,
    determinant,
    extends_to_basis,
    is_primitive,
    is_unimodular,
    kernel_basis,
    primitive_part,
    random_unimodular,
    rank,
    smith_normal_form,
    unimodular_inverse,
)


def cofactor_det(rows):
    # textbook expansion along the first row, independent of the Bareiss path
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def test_as_vector_rejects_non_integers():
    with pytest.raises(DomainError):
        as_vector([1, 2.0])
    with pytest.raises(DomainError):
        as_vector([True, 0])
    assert as_vector((1, -2, 3)) == (1, -2, 3)


def test_content_and_primitive():
    assert content((2, 4, -6)) == 2
    assert content((0, 0)) == 0
    assert primitive_part((2, 4, -6)) == (1, 2, -3)
    assert is_primitive((3, 5))
    assert not is_primitive((2, 4))
    with pytest.raises(DomainError):
        primitive_part((0, 0))


def test_determinant_frozen():
    assert determinant(IntegerMatrix.from_rows([[2, 1], [1, 1]])) == 1
    assert determinant(IntegerMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert determinant(IntegerMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30
    assert determinant(IntegerMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert determinant(IntegerMatrix.identity(4)) == 1


def test_determinant_row_swap_flips_sign():
    m = IntegerMatrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    swapped = IntegerMatrix.from_rows([[0, 1, 4], [1, 2, 3], [5, 6, 0]])
    assert determinant(m) == -determinant(swapped) == 1


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(IntegerMatrix.from_rows(rows)) == cofactor_det(rows)


def test_determinant_requires_square():
    with pytest.raises(DomainError):
        determinant(IntegerMatrix.from_rows([[1, 2, 3]]))


def test_smith_normal_form_frozen():
    s = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
    assert [s.d.entry(i, i) for i in range(2)] == [1, 6]
    s = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    assert [s.d.entry(i, i) for i in range(2)] == [2, 4]
    s = smith_normal_form(IntegerMatrix.from_rows([[1, 2], [3, 4]]))
    assert [s.d.entry(i, i) for i in range(2)] == [1, 2]
    s = smith_normal_form(IntegerMatrix.from_rows([[2, 4, 6]]))
    assert [s.d.entry(0, j) for j in range(3)] == [2, 0, 0]
    s = smith_normal_form(IntegerMatrix.from_rows([[0, 0], [0, 0]]))
    assert s.d.entries == ((0, 0), (0, 0))


def test_smith_normal_form_certificates_random():
    rng = random.Random(202)
    for trial in range(1000):
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 4)
        bound = 5 if trial < 900 else 20
        m = IntegerMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(cols_n)] for _ in range(rows_n)]
        )
        s = smith_normal_form(m)
        assert (s.u @ m @ s.v).entries == s.d.entries
        assert is_unimodular(s.u)
        assert is_unimodular(s.v)
        diag = [s.d.entry(i, i) for i in range(min(rows_n, cols_n))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
            # off-diagonal entries vanish
        for i in range(rows_n):
            for j in range(cols_n):
                if i != j:
                    assert s.d.entry(i, j) == 0
        if rows_n == cols_n:
            # the diagonal carries the determinant up to orientation
            prod = 1
            for x in diag:
                prod *= x
            assert abs(determinant(m)) == prod


def test_extends_to_basis_unimodular_invariance():
    rng = random.Random(212)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        if any(not any(v) for v in vectors):
            continue
        before = extends_to_basis(vectors, n)
        u = random_unimodular(n, rng, max_entry=4)
        moved = [u.apply(v) for v in vectors]
        assert extends_to_basis(moved, n) == before


def snf_rank(m):
    s = smith_normal_form(m)
    return sum(1 for i in range(min(m.rows, m.cols)) if s.d.entry(i, i) != 0)


def test_rank():
    assert rank(IntegerMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(IntegerMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert rank(IntegerMatrix.identity(3)) == 3
    # a zero column before the pivots, and a column with no pivot left
    assert rank(IntegerMatrix.from_rows([[0, 1, 2], [0, 2, 4], [0, 0, 1]])) == 2
    assert rank(IntegerMatrix.from_rows([[1, 2, 3], [2, 4, 7]])) == 2
    rng = random.Random(303)
    for trial in range(600):
        rows_n = rng.randint(1, 8)
        cols_n = rng.randint(1, 8)
        if trial % 3 == 0:
            # sparse entries exercise row swaps and skipped columns
            entries = [rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(rows_n * cols_n)]
            m = IntegerMatrix([entries[i * cols_n : (i + 1) * cols_n] for i in range(rows_n)])
            assert rank(m) == snf_rank(m)
            continue
        # planted rank: a rows_n x k times k x cols_n product
        k = rng.randint(0, min(rows_n, cols_n))
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows_n)]
        right = [[rng.randint(-4, 4) for _ in range(cols_n)] for _ in range(k)]
        m = IntegerMatrix.from_rows(
            [
                [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols_n)]
                for i in range(rows_n)
            ]
        )
        assert rank(m) == snf_rank(m) <= k
        assert rank(m.transpose()) == rank(m)


def test_kernel_basis():
    m = IntegerMatrix.from_rows([[1, 2, 3]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert m.apply(v) == (0,)
    assert kernel_basis(IntegerMatrix.identity(2)) == []
    rng = random.Random(404)
    for _ in range(100):
        rows_n = rng.randint(1, 3)
        cols_n = rng.randint(1, 4)
        m = IntegerMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols_n)] for _ in range(rows_n)]
        )
        basis = kernel_basis(m)
        assert len(basis) == cols_n - rank(m)
        for v in basis:
            assert m.apply(v) == (0,) * rows_n
        if basis:
            assert rank(IntegerMatrix.from_columns(basis)) == len(basis)


def test_extends_to_basis():
    assert extends_to_basis([], 3)
    assert extends_to_basis([(1, 0), (0, 1)], 2)
    assert not extends_to_basis([(2, 0), (0, 1)], 2)
    assert extends_to_basis([(1, 0, 0), (0, 1, 0)], 3)
    assert extends_to_basis([(2, 4, 5)], 3)
    assert not extends_to_basis([(2, 4, 6)], 3)
    assert not extends_to_basis([(1, 0), (0, 1), (1, 1)], 2)
    # parallel vectors never extend
    assert not extends_to_basis([(1, 0, 0), (2, 0, 0)], 3)


def adjugate_inverse(m):
    # inverse = adjugate / det with det = +-1, from cofactors; independent of
    # the Smith certificate that unimodular_inverse reads
    n = m.rows
    det = determinant(m)
    if n == 1:
        return IntegerMatrix([[det]])
    rows = [list(r) for r in m.entries]

    def cofactor(i, j):
        minor = [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]
        return (-1) ** (i + j) * determinant(IntegerMatrix(minor))

    return IntegerMatrix([[cofactor(j, i) * det for j in range(n)] for i in range(n)])


def test_unimodular_inverse():
    m = IntegerMatrix.from_rows([[2, 1], [1, 1]])
    inv = unimodular_inverse(m)
    assert (m @ inv).entries == IntegerMatrix.identity(2).entries
    assert (inv @ m).entries == IntegerMatrix.identity(2).entries
    one = IntegerMatrix.from_rows([[-1]])
    assert unimodular_inverse(one).entries == ((-1,),)
    with pytest.raises(DomainError, match="matrix with determinant 2 has no integer inverse"):
        unimodular_inverse(IntegerMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(DomainError, match="matrix with determinant 0 has no integer inverse"):
        unimodular_inverse(IntegerMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(DomainError, match="determinant requires a square matrix, got 1x3"):
        unimodular_inverse(IntegerMatrix.from_rows([[1, 2, 3]]))


def test_unimodular_inverse_matches_adjugate():
    rng = random.Random(515)
    for n in range(1, 9):
        for _ in range(12):
            u = random_unimodular(n, rng, max_entry=5)
            assert unimodular_inverse(u) == adjugate_inverse(u)


def test_random_unimodular_is_unimodular():
    rng = random.Random(505)
    for _ in range(80):
        n = rng.randint(1, 6)
        u = random_unimodular(n, rng, max_entry=5)
        assert is_unimodular(u)
        assert max(abs(x) for row in u.entries for x in row) <= 5
        inv = unimodular_inverse(u)
        assert (u @ inv).entries == IntegerMatrix.identity(n).entries


def test_matrix_basics():
    m = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    assert m.row(0) == (1, 2)
    assert m.column(1) == (2, 4)
    assert m.transpose().entries == ((1, 3), (2, 4))
    assert m.apply((1, 1)) == (3, 7)
    assert m == IntegerMatrix.from_columns([(1, 3), (2, 4)])
    assert hash(m) == hash(IntegerMatrix.from_rows([[1, 2], [3, 4]]))
    with pytest.raises(DomainError):
        IntegerMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DomainError):
        IntegerMatrix.from_rows([])


def test_matrix_entry_types():
    class Count(int):
        pass

    m = IntegerMatrix([[Count(2), 1], [0, Count(-1)]])
    assert m.entries == ((2, 1), (0, -1)) and determinant(m) == -2
    for bad in (True, False, 1.0, 2.5, "1", None):
        with pytest.raises(DomainError) as err:
            IntegerMatrix([[1, bad], [0, 1]])
        assert str(err.value) == f"matrix entries must be integers, got {bad!r}"
        with pytest.raises(DomainError) as err:
            IntegerMatrix.from_columns([(bad, 0), (0, 1)])
        assert str(err.value) == f"matrix entries must be integers, got {bad!r}"
