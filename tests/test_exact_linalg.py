import itertools
import math

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from sandpiles.abelian import TRIVIAL_GROUP, from_cyclic_orders
from sandpiles.digraphs import de_bruijn, laplacian
from sandpiles.exact_linalg import (
    _STACK_BYTES,
    IntMatrix,
    _crt_primes,
    _hadamard_square,
    _prime_bits,
    determinant,
    format_matrix,
    parse_matrix,
    smith_group,
    smith_normal_form,
)


def _identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def random_matrix_strategy(max_dim=5, max_entry=9):
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda m: st.integers(min_value=0, max_value=max_dim).flatmap(
            lambda n: st.lists(
                st.integers(min_value=-max_entry, max_value=max_entry),
                min_size=m * n,
                max_size=m * n,
            ).map(lambda es: IntMatrix(m, n, tuple(es)))
        )
    )


matrices = random_matrix_strategy()
square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.integers(min_value=-9, max_value=9), min_size=n * n, max_size=n * n
    ).map(lambda es: IntMatrix(n, n, tuple(es)))
)
# Small entries make singular and near-singular matrices; the wide ones reach
# past int64, where residues are taken with Python integers.
wide_square_matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.integers(min_value=-(2**80), max_value=2**80),
        ),
        min_size=n * n,
        max_size=n * n,
    ).map(lambda es: IntMatrix(n, n, tuple(es)))
)


def bareiss_determinant(M: IntMatrix) -> int:
    """Reference determinant by Bareiss fraction-free elimination."""
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            ri, rk = a[i], a[k]
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - lead * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def sympy_invariant_factors(M: IntMatrix) -> tuple[int, ...]:
    if M.rows == 0 or M.cols == 0:
        return ()
    s = sympy_snf(sympy.Matrix(M.to_rows()), domain=sympy.ZZ)
    diag = [int(s[i, i]) for i in range(min(M.rows, M.cols))]
    return tuple(d for d in diag if d != 0)


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix(-1, 2, ())
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    with pytest.raises(IndexError):
        m.entry(2, 0)
    with pytest.raises(IndexError):
        m.entry(0, -1)


def test_int_matrix_ops():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert (a @ _identity(2)) == a
    assert (_identity(2) @ a) == a
    b = IntMatrix.from_rows([[1, 0, 2], [0, 1, 0]])
    assert (a @ b).to_rows() == [[1, 2, 2], [3, 4, 6]]
    with pytest.raises(ValueError):
        b @ a
    assert IntMatrix.zeros(2, 3).to_rows() == [[0, 0, 0], [0, 0, 0]]
    assert IntMatrix.zeros(0, 3).to_rows() == []


def test_snf_known_values():
    assert smith_normal_form(IntMatrix.from_rows([[2, 4], [4, 2]])).invariant_factors == (
        2,
        6,
    )
    assert smith_normal_form(IntMatrix.from_rows([[-4, 6], [2, -8]])).invariant_factors == (
        2,
        10,
    )
    assert smith_normal_form(IntMatrix.zeros(3, 2)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.zeros(0, 0)).invariant_factors == ()
    assert smith_normal_form(_identity(4)).invariant_factors == (1, 1, 1, 1)
    L = laplacian(de_bruijn(4, 3), reduce_at=0)
    assert smith_normal_form(L).invariant_factors == (1, 1, 4)


@given(matrices)
def test_snf_matches_sympy(M):
    assert smith_normal_form(M).invariant_factors == sympy_invariant_factors(M)


@given(matrices)
def test_snf_divisor_chain(M):
    fs = smith_normal_form(M).invariant_factors
    assert all(s > 0 for s in fs)
    for a, b in zip(fs, fs[1:]):
        assert b % a == 0
    assert len(fs) <= min(M.rows, M.cols)


@given(matrices)
def test_snf_transforms(M):
    res = smith_normal_form(M, want_transforms=True)
    assert res.P is not None and res.Q is not None
    assert abs(determinant(res.P)) == 1
    assert abs(determinant(res.Q)) == 1
    assert (res.P @ M @ res.Q) == res.diagonal_matrix()


@given(matrices, st.randoms(use_true_random=False))
def test_snf_permutation_invariance(M, rng):
    rows = M.to_rows()
    rng.shuffle(rows)
    cols = list(range(M.cols))
    rng.shuffle(cols)
    shuffled = [[row[j] for j in cols] for row in rows]
    N = IntMatrix(M.rows, M.cols, tuple(x for row in shuffled for x in row))
    assert (
        smith_normal_form(N).invariant_factors
        == smith_normal_form(M).invariant_factors
    )


@given(random_matrix_strategy(max_dim=4, max_entry=6))
def test_snf_determinantal_divisors(M):
    """The product s_1 ... s_k equals the gcd of all k x k minors."""
    fs = smith_normal_form(M).invariant_factors
    rows = M.to_rows()
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(M.rows), k):
            for ci in itertools.combinations(range(M.cols), k):
                sub = IntMatrix.from_rows([[rows[i][j] for j in ci] for i in ri])
                g = math.gcd(g, determinant(sub))
        expected = math.prod(fs[:k]) if k <= len(fs) else 0
        assert g == expected


def test_determinant_examples():
    assert determinant(IntMatrix.from_rows([[2, 4], [4, 2]])) == -12
    assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert determinant(_identity(5)) == 1
    assert determinant(IntMatrix.zeros(0, 0)) == 1
    assert determinant(IntMatrix.from_rows([[7]])) == 7
    with pytest.raises(ValueError):
        determinant(IntMatrix.zeros(2, 3))


@given(square_matrices)
def test_determinant_matches_sympy(M):
    assert determinant(M) == int(sympy.Matrix(M.to_rows()).det())


@given(wide_square_matrices)
def test_determinant_wide_entries_match_sympy(M):
    assert determinant(M) == int(sympy.Matrix(M.to_rows()).det())


def test_determinant_residue_edge_cases():
    # The leading entry is 0 mod the first prime only: that prime swaps rows.
    p = _crt_primes(2, 1)[0]
    assert determinant(IntMatrix.from_rows([[p, 1], [1, 1]])) == p - 1
    # det = p1 * p2 is 0 mod the first two primes, both of which are used.
    p1, p2 = _crt_primes(3, 2**200)[:2]  # the first two primes at n = 3
    M = IntMatrix.from_rows([[p1, 0, 0], [1, p2, 0], [2, 3, 1]])
    assert {p1, p2} <= set(_crt_primes(3, _hadamard_square(M)))
    assert determinant(M) == p1 * p2
    # Negative determinants after row swaps.
    assert determinant(IntMatrix.from_rows([[0, 5], [3, 1]])) == -15
    assert determinant(IntMatrix.from_rows([[0, 0, 1], [0, 1, 0], [7, 0, 0]])) == -7
    # A zero row, and a singular matrix without one.
    assert determinant(IntMatrix.from_rows([[1, 2], [0, 0]])) == 0
    assert determinant(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0


def test_determinant_over_several_prime_stacks():
    L = laplacian(de_bruijn(120, 5), reduce_at=0)
    n = L.rows
    assert len(_crt_primes(n, _hadamard_square(L))) > _STACK_BYTES // (8 * n * n)
    assert determinant(L) == bareiss_determinant(L)


@pytest.mark.parametrize("n", [1, 2048, 10**4])
def test_prime_size_keeps_float64_sums_exact(n):
    b = _prime_bits(n)
    largest = _crt_primes(n, 1)[0]
    assert largest < 2**b
    assert largest**2 * n < 2**53
    assert 4 ** (b + 1) * n > 2**53  # b is the largest size that is safe
    if n == 2048:
        assert b == 21


def test_smith_group_examples():
    assert smith_group(IntMatrix.zeros(2, 3)) == (3, TRIVIAL_GROUP)
    assert smith_group(IntMatrix.from_rows([[2, 0], [0, 0]])) == (
        1,
        from_cyclic_orders([2]),
    )
    assert smith_group(IntMatrix.from_rows([[2, 4], [4, 2]])) == (
        0,
        from_cyclic_orders([2, 6]),
    )
    assert smith_group(_identity(3)) == (0, TRIVIAL_GROUP)


@given(matrices)
def test_parse_format_round_trip(M):
    assert parse_matrix(format_matrix(M)) == M


def test_parse_matrix_examples_and_errors():
    m = parse_matrix("2 2\n2 4\n4 2\n")
    assert m.to_rows() == [[2, 4], [4, 2]]
    # Blank lines are ignored; whitespace is flexible.
    assert parse_matrix("\n2 2\n\n 2  4 \n4 2\n\n") == m
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        parse_matrix("a b\n")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2\n")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2\n3 x\n")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2 3\n4 5 6\n")
    with pytest.raises(ValueError):
        parse_matrix("-1 2\n")
