"""Exact integer linear algebra: matrices, Smith Normal Form, determinants.

Every result is exact.  Matrices and the Smith form hold arbitrary-precision
integers.  Determinants are taken modulo primes p < 2^b with p^2 * n < 2^53
and recombined by the Chinese remainder theorem: residues are float64, so
batched products run through ``np.matmul``, yet every value formed is an
integer below 2^53 in magnitude, which float64 holds exactly.  Enough primes
are taken for their product to exceed twice the Hadamard bound, so the
symmetric residue is the determinant itself.

The Smith form uses classical elimination with a min-|entry| pivot rule,
implemented iteratively.  On each round the globally smallest nonzero
entry of the active submatrix is moved to the pivot slot and one
floor-division clearing pass is run over its column and row; any nonzero
remainder strictly shrinks the candidate pivot, so re-selecting and
repeating terminates.  Once the cross is clear, a divisibility sweep folds
any non-multiple of the pivot into the pivot row and the round restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from . import abelian
from .abelian import AbelianGroup


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n_cols:
                raise ValueError("ragged rows")
        return cls(n_rows, n_cols, tuple(int(x) for r in rows for x in r))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        a, b = self.to_rows(), other.to_rows()
        out = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        if not out:
            return IntMatrix.zeros(self.rows, other.cols)
        return IntMatrix.from_rows(out)

    def __str__(self) -> str:
        return format_matrix(self)


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors s_1 | ... | s_r plus optional transforms.

    When transforms were requested, P @ M @ Q equals the diagonal matrix
    carrying the invariant factors, and both P and Q are unimodular.
    """

    invariant_factors: tuple[int, ...]
    matrix_rows: int
    matrix_cols: int
    P: IntMatrix | None = None
    Q: IntMatrix | None = None

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def diagonal_matrix(self) -> IntMatrix:
        d = [[0] * self.matrix_cols for _ in range(self.matrix_rows)]
        for t, s in enumerate(self.invariant_factors):
            d[t][t] = s
        return IntMatrix(
            self.matrix_rows,
            self.matrix_cols,
            tuple(x for row in d for x in row),
        )


def smith_normal_form(M: IntMatrix, want_transforms: bool = False) -> SnfResult:
    """Smith Normal Form of an arbitrary integer matrix.

    Returns the invariant factors (positive, each dividing the next) and,
    when ``want_transforms`` is set, unimodular P and Q with P @ M @ Q
    equal to the diagonal form.  Transform tracking roughly doubles the
    work, so sweeps leave it off.
    """
    m, n = M.rows, M.cols
    a = M.to_rows()
    p_rows = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_transforms else None
    q_cols = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_transforms else None

    t = 0
    factors: list[int] = []
    while t < min(m, n):
        while True:
            # Select the entry of least absolute value in the active block.
            pi = pj = -1
            best = 0
            for i in range(t, m):
                row = a[i]
                for j in range(t, n):
                    v = row[j]
                    if v:
                        if v < 0:
                            v = -v
                        if best == 0 or v < best:
                            best = v
                            pi, pj = i, j
                            if best == 1:
                                break
                if best == 1:
                    break
            if best == 0:
                break  # active block is zero; elimination is finished
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                if p_rows is not None:
                    p_rows[t], p_rows[pi] = p_rows[pi], p_rows[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
                if q_cols is not None:
                    for r in q_cols:
                        r[t], r[pj] = r[pj], r[t]
            piv = a[t][t]
            rt = a[t]
            clean = True
            for i in range(t + 1, m):
                v = a[i][t]
                if v:
                    quo = v // piv
                    if quo:
                        ri = a[i]
                        for j in range(t, n):
                            ri[j] -= quo * rt[j]
                        if p_rows is not None:
                            pi_row, pt_row = p_rows[i], p_rows[t]
                            for j in range(m):
                                pi_row[j] -= quo * pt_row[j]
                    if a[i][t]:
                        clean = False
            if not clean:
                continue  # smaller remainder appeared; re-select pivot
            for j in range(t + 1, n):
                v = rt[j]
                if v:
                    quo = v // piv
                    if quo:
                        for i in range(t, m):
                            a[i][j] -= quo * a[i][t]
                        if q_cols is not None:
                            for r in q_cols:
                                r[j] -= quo * r[t]
                    if rt[j]:
                        clean = False
            if not clean:
                continue
            if piv not in (1, -1):
                # Divisor-chain repair: fold a row holding a non-multiple of
                # the pivot into the pivot row, then re-run the round.
                bad = -1
                for i in range(t + 1, m):
                    ri = a[i]
                    for j in range(t + 1, n):
                        if ri[j] % piv:
                            bad = i
                            break
                    if bad >= 0:
                        break
                if bad >= 0:
                    rb = a[bad]
                    for j in range(t, n):
                        rt[j] += rb[j]
                    if p_rows is not None:
                        pt_row, pb_row = p_rows[t], p_rows[bad]
                        for j in range(m):
                            pt_row[j] += pb_row[j]
                    continue
            break
        if a[t][t] == 0:
            break
        if a[t][t] < 0:
            rt = a[t]
            for j in range(t, n):
                rt[j] = -rt[j]
            if p_rows is not None:
                p_rows[t] = [-x for x in p_rows[t]]
        factors.append(a[t][t])
        t += 1

    P = IntMatrix.from_rows(p_rows) if p_rows is not None else None
    Q = IntMatrix.from_rows(q_cols) if q_cols is not None else None
    return SnfResult(tuple(factors), m, n, P, Q)


def determinant(M: IntMatrix) -> int:
    """Exact determinant from its residues modulo word-size primes.

    |det M| is at most the Hadamard bound H, the product of the row 2-norms,
    so residues modulo primes whose product exceeds 2H fix det M in the
    symmetric range by the Chinese remainder theorem.  The primes lie below
    2^b with p^2 * n < 2^53 (see `_prime_bits`), so every float64 value the
    elimination forms is an integer below 2^53 and exact.  Residue matrices
    are factored in stacks of at most `_STACK_BYTES`.
    """
    if M.rows != M.cols:
        raise ValueError(f"determinant of non-square {M.rows}x{M.cols} matrix")
    n = M.rows
    if n == 0:
        return 1
    h2 = _hadamard_square(M)
    if h2 == 0:
        return 0
    primes = _crt_primes(n, h2)
    try:
        dense = np.array(M.entries, dtype=np.int64).reshape(n, n)
    except OverflowError:
        dense = None
    per_stack = max(1, _STACK_BYTES // (8 * n * n))
    residues: list[int] = []
    for g in range(0, len(primes), per_stack):
        residues += _det_mod(M, dense, primes[g : g + per_stack])
    return _crt(residues, primes)


# A group of residue matrices shares one float64 stack of at most this many
# bytes (or one matrix, if that is larger); it bounds the working set.
_STACK_BYTES = 1 << 20
# Multiply-adds per prime in one np.matmul call.  OpenBLAS runs products of
# up to 2^18 on the calling thread; larger ones wake helper threads that spin
# between calls, which doubled CPU time on a 2-core host with no gain in
# wall time.
_GEMM_MACS = 1 << 18
# Primes are sieved in windows of this width, counting down from 2^b.
_PRIME_WINDOW = 1 << 16


def _prime_bits(n: int) -> int:
    """The largest b with 2^(2b) * n <= 2^53.

    For primes p < 2^b every sum of n products of residues, and every value
    the reduction forms on the way, is an integer of magnitude below 2^53,
    which float64 (and the BLAS behind ``np.matmul``) holds exactly.
    """
    return (53 - (n - 1).bit_length()) // 2


@lru_cache(maxsize=8)
def _prime_window(hi: int) -> tuple[int, ...]:
    """The primes in [hi - _PRIME_WINDOW, hi), largest first, by a sieve."""
    lo = max(2, hi - _PRIME_WINDOW)
    is_prime = np.ones(hi - lo, dtype=bool)
    for f in range(2, math.isqrt(hi - 1) + 1):
        is_prime[max(f * f, -(-lo // f) * f) - lo :: f] = False
    return tuple(lo + int(i) for i in np.flatnonzero(is_prime)[::-1])


def _crt_primes(n: int, h2: int) -> list[int]:
    """Primes below 2^_prime_bits(n), largest first, with product > 2 sqrt(h2)."""
    target = math.isqrt(4 * h2)  # m > target  <=>  m^2 > 4 h2
    primes: list[int] = []
    product = 1
    for hi in range(1 << _prime_bits(n), 2, -_PRIME_WINDOW):
        for p in _prime_window(hi):
            if product > target:
                return primes
            primes.append(p)
            product *= p
    raise ValueError("determinant bound exceeds the product of the usable primes")


def _hadamard_square(M: IntMatrix) -> int:
    """The square of the Hadamard bound: the product of the squared row norms."""
    n, e = M.cols, M.entries
    h2 = 1
    for i in range(0, n * n, n):
        row = e[i : i + n]
        h2 *= sum(map(mul, row, row))
    return h2


def _det_mod(M: IntMatrix, dense, primes: list[int]) -> list[int]:
    """det M mod p for each p in primes, from one stack of residue matrices.

    ``dense`` is M as an int64 array, or None when an entry does not fit;
    then the residues are taken with Python integers.
    """
    k, n = len(primes), M.rows
    stack = np.empty((k, n, n))
    for i, p in enumerate(primes):
        if dense is not None:
            np.remainder(dense, p, out=stack[i], casting="unsafe")
        else:
            stack[i] = np.array([x % p for x in M.entries], dtype=np.float64).reshape(n, n)
    p = np.array(primes, dtype=np.float64).reshape(k, 1, 1)
    dets = [1] * k
    _factor(stack, p, 1.0 / p, primes, dets, 0, n)
    return dets


def _reduce(x, p, inv_p) -> None:
    """x <- x - round(x / p) * p in place, for integer-valued |x| < 2^53.

    x * (1/p) is within 2/p of x / p, so the result lies in [-p/2 - 2,
    p/2 + 2]: residues are kept balanced, each of magnitude below p, and
    a residue is 0 exactly when it is 0 mod p.
    """
    q = x * inv_p
    np.rint(q, out=q)
    q *= p
    x -= q


def _factor(M, p, inv_p, primes: list[int], dets: list[int], c0: int, c1: int) -> None:
    """LU-factor columns c0..c1-1 of each residue matrix in M, in place.

    Rows above c0 and columns left of c0 are done, and the block from
    (c0, c0) on holds their Schur complement.  The left half of the columns
    is factored first; then the right half's rows c0..h-1 are solved against
    its unit lower triangle, and the rows below take the trailing update.
    Row swaps move whole rows, so both halves see them.  The pivots and the
    swap signs are folded into ``dets``, one determinant residue per prime.
    """
    if c1 - c0 == 1:
        _pivot(M, p, inv_p, primes, dets, c0)
        return
    h = (c0 + c1) // 2
    _factor(M, p, inv_p, primes, dets, c0, h)
    upper = M[:, c0:h, h:c1]
    _solve_unit_lower(M[:, c0:h, c0:h], upper, p, inv_p)
    _subtract_product(M[:, h:, h:c1], M[:, h:, c0:h], upper, p, inv_p)
    _factor(M, p, inv_p, primes, dets, h, c1)


def _pivot(M, p, inv_p, primes: list[int], dets: list[int], j: int) -> None:
    """Pivot on column j and store the multipliers below the pivot.

    Each prime takes the first row at or below j whose entry is nonzero mod
    that prime.  When there is none the residue is 0; the column below is
    then all 0, so the rest of that matrix is left as it is.
    """
    offsets = (M[:, j:, j] != 0).argmax(axis=1)
    for i in np.flatnonzero(offsets):
        s = j + int(offsets[i])
        M[i, [j, s]] = M[i, [s, j]]
        dets[i] = -dets[i]
    inverses = []
    for i, pivot in enumerate(M[:, j, j].tolist()):
        pivot, prime = int(pivot), primes[i]
        dets[i] = dets[i] * pivot % prime
        inverses.append(pow(pivot, -1, prime) if pivot else 0)
    below = M[:, j + 1 :, j]
    below *= np.array(inverses, dtype=np.float64)[:, None]
    _reduce(below, p[:, 0], inv_p[:, 0])


def _solve_unit_lower(L, B, p, inv_p) -> None:
    """B <- L^-1 B mod p in place, L unit lower triangular (strict part read)."""
    w = L.shape[1]
    if w == 1:
        return
    h = w // 2
    _solve_unit_lower(L[:, :h, :h], B[:, :h], p, inv_p)
    _subtract_product(B[:, h:], L[:, h:, :h], B[:, :h], p, inv_p)
    _solve_unit_lower(L[:, h:, h:], B[:, h:], p, inv_p)


def _subtract_product(C, A, B, p, inv_p) -> None:
    """C <- C - A @ B mod p in place, by row blocks of at most
    `_GEMM_MACS` multiply-adds per prime."""
    rows = max(1, _GEMM_MACS // (A.shape[2] * B.shape[2]))
    for r in range(0, C.shape[1], rows):
        block = C[:, r : r + rows]
        block -= A[:, r : r + rows] @ B
        _reduce(block, p, inv_p)


def _crt(residues: list[int], primes: list[int]) -> int:
    """The x with |x| < product / 2 and x = r mod p for each (r, p)."""
    x, m = 0, 1
    for r, p in zip(residues, primes):
        x += m * ((r - x) * pow(m % p, -1, p) % p)
        m *= p
    return x - m if 2 * x > m else x


def smith_group(M: IntMatrix) -> tuple[int, AbelianGroup]:
    """Cokernel Z^cols / (row space of M): free rank and torsion part."""
    snf = smith_normal_form(M)
    free_rank = M.cols - snf.rank
    torsion = abelian.from_cyclic_orders(s for s in snf.invariant_factors if s > 1)
    return free_rank, torsion


def parse_matrix(text: str) -> IntMatrix:
    """Parse the matrix text format: "rows cols" header, then row lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"non-integer header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    body = lines[1:]
    if cols == 0:
        # Zero-width rows print as blank lines, which strip away above.
        if body:
            raise ValueError(f"expected no entries for a {rows}x0 matrix")
        return IntMatrix(rows, cols, ())
    if len(body) != rows:
        raise ValueError(f"expected {rows} row lines, got {len(body)}")
    out = []
    for ln in body:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"non-integer matrix entry in line {ln!r}") from exc
        if len(row) != cols:
            raise ValueError(f"expected {cols} entries per row, got {len(row)}")
        out.extend(row)
    return IntMatrix(rows, cols, tuple(out))


def format_matrix(M: IntMatrix) -> str:
    """Inverse of :func:`parse_matrix`."""
    lines = [f"{M.rows} {M.cols}"]
    for r in M.to_rows():
        lines.append(" ".join(str(x) for x in r))
    return "\n".join(lines) + "\n"
