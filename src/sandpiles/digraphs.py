"""Generalized de Bruijn, Kautz, and consecutive-d digraphs on Z_n.

Graphs are multidigraphs stored as dense n x n multiplicity matrices
(loops and parallel edges are expected: for d >= n every consecutive-d
constructor necessarily repeats targets).  Laplacians, spanning-tree
counts, and sandpile groups at a root are derived through the exact linear
algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import circulant
from .abelian import AbelianGroup
from .exact_linalg import IntMatrix, determinant, smith_group

# Peak bytes per vertex pair of a dense db/kautz/consecutive run (digraph,
# Laplacian, Smith form and determinant), measured with tracemalloc: 62.9 at
# DB(200, 2), 54 at n = 200 for d = 3..8 and for Kautz, 42 at n = 300 and 400.
_BYTES_PER_ENTRY = 64


@dataclass(frozen=True)
class Digraph:
    """Multidigraph on vertices {0, ..., n-1} with multiplicity adjacency."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if len(self.adjacency) != self.n or any(len(r) != self.n for r in self.adjacency):
            raise ValueError("adjacency must be n x n")
        if any(x < 0 for r in self.adjacency for x in r):
            raise ValueError("edge multiplicities must be nonnegative")

    def out_degree(self, v: int) -> int:
        return sum(self.adjacency[v])



def _consecutive(n: int, d: int, mult: int, offset: int) -> Digraph:
    """Edges v -> mult*v + offset + i (mod n), 0 <= i < d."""
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 0:
        raise ValueError("need d >= 0")
    memory = circulant._physical_memory_bytes()
    if memory is not None and n * n * _BYTES_PER_ENTRY > memory:
        raise ValueError(
            f"the dense {n} x {n} oracle needs about "
            f"{n * n * _BYTES_PER_ENTRY // 10**6} MB, more than the "
            f"{memory // 10**6} MB of physical memory"
        )
    adj = [[0] * n for _ in range(n)]
    for v in range(n):
        base = mult * v + offset
        for i in range(d):
            adj[v][(base + i) % n] += 1
    return Digraph(n, tuple(tuple(row) for row in adj))


def build_consecutive_d(d: int, n: int, q: int, r: int) -> Digraph:
    """The consecutive-d digraph: edges v -> q*v + r + i (mod n), 0 <= i < d."""
    if n >= 1 and d >= 0 and q % n == 0:
        raise ValueError(f"multiplier q = {q} is 0 mod n = {n}")
    return _consecutive(n, d, q, r)


def de_bruijn(n: int, d: int) -> Digraph:
    """Generalized de Bruijn digraph DB(n, d): edges v -> d*v + i (mod n)."""
    return _consecutive(n, d, d, 0)


def kautz(n: int, d: int) -> Digraph:
    """Generalized Kautz digraph Ktz(n, d): edges v -> -d*(v+1) + i (mod n)."""
    return _consecutive(n, d, -d, -d)


def laplacian(G: Digraph, reduce_at: int | None = None) -> IntMatrix:
    """Laplacian D - A (out-degree diagonal), optionally with one vertex
    row and column deleted."""
    n = G.n
    rows = []
    for v in range(n):
        deg = G.out_degree(v)
        row = [-x for x in G.adjacency[v]]
        row[v] += deg
        rows.append(row)
    if reduce_at is None:
        return IntMatrix.from_rows(rows)
    if not (0 <= reduce_at < n):
        raise ValueError(f"vertex {reduce_at} outside 0..{n - 1}")
    reduced = [
        [x for j, x in enumerate(row) if j != reduce_at]
        for v, row in enumerate(rows)
        if v != reduce_at
    ]
    if not reduced:
        return IntMatrix.zeros(0, 0)
    return IntMatrix.from_rows(reduced)


def spanning_tree_count(G: Digraph, root: int) -> int:
    """Number of directed spanning trees rooted at ``root`` (Matrix Tree)."""
    return determinant(laplacian(G, reduce_at=root))


def sandpile_group_snf(G: Digraph, root: int) -> AbelianGroup:
    """Sandpile group at ``root``: torsion of the reduced-Laplacian cokernel.

    For Eulerian graphs the result is independent of the root and equals the
    critical group.
    """
    _, torsion = smith_group(laplacian(G, reduce_at=root))
    return torsion

