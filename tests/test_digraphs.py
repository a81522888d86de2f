import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sandpiles.abelian import TRIVIAL_GROUP, from_cyclic_orders
from sandpiles.digraphs import (
    Digraph,
    build_consecutive_d,
    de_bruijn,
    kautz,
    laplacian,
    sandpile_group_snf,
    spanning_tree_count,
)
from sandpiles.exact_linalg import smith_group

small_digraphs = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda adj: Digraph(n, tuple(tuple(r) for r in adj)))
)


def _in_degree(G: Digraph, v: int) -> int:
    return sum(row[v] for row in G.adjacency)


def _edge_count(G: Digraph) -> int:
    return sum(sum(row) for row in G.adjacency)


def _is_eulerian(G: Digraph) -> bool:
    """True when every vertex has equal in- and out-degree."""
    return all(_in_degree(G, v) == G.out_degree(v) for v in range(G.n))


def _critical_group_snf(G: Digraph):
    """Critical group: torsion of the full-Laplacian cokernel."""
    _, torsion = smith_group(laplacian(G))
    return torsion


def brute_tree_count(G: Digraph, root: int) -> int:
    """Count directed spanning trees toward ``root`` by enumerating one
    out-edge choice per non-root vertex and keeping the acyclic ones."""
    verts = [v for v in range(G.n) if v != root]
    expanded = []
    for v in verts:
        targets = []
        for w, mult in enumerate(G.adjacency[v]):
            targets.extend([w] * mult)
        expanded.append(targets)
    count = 0
    for combo in itertools.product(*expanded):
        nxt = dict(zip(verts, combo))
        ok = True
        for v in verts:
            seen = set()
            u = v
            while u != root:
                if u in seen:
                    ok = False
                    break
                seen.add(u)
                u = nxt[u]
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(0, ())
    with pytest.raises(ValueError):
        Digraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        Digraph(2, ((0, 1), (0, -1)))
    g = Digraph(2, ((1, 2), (0, 1)))
    assert g.out_degree(0) == 3
    assert _in_degree(g, 1) == 3
    assert _edge_count(g) == 4


def test_build_consecutive_d_examples():
    g = build_consecutive_d(2, 4, 2, 0)  # same as de Bruijn DB(4, 2)
    assert g.adjacency[1] == (0, 0, 1, 1)
    g = build_consecutive_d(2, 3, -2, -2)  # same as Kautz Ktz(3, 2)
    assert g.adjacency[0] == (0, 1, 1)
    g = build_consecutive_d(3, 2, 1, 0)  # d > n wraps around
    assert g.adjacency == ((2, 1), (1, 2))
    with pytest.raises(ValueError):
        build_consecutive_d(2, 3, 6, 0)  # q = 0 mod n
    with pytest.raises(ValueError):
        build_consecutive_d(-1, 3, 1, 0)
    # Negative q and r reduce mod n.
    assert build_consecutive_d(2, 5, -3, -1) == build_consecutive_d(2, 5, 2, 4)


def test_constructor_agreement():
    for n in range(1, 10):
        for d in range(0, 7):
            if d % n != 0:
                assert build_consecutive_d(d, n, d, 0) == de_bruijn(n, d)
                assert build_consecutive_d(d, n, -d, -d) == kautz(n, d)


def test_family_shapes():
    assert _edge_count(de_bruijn(4, 3)) == 12
    assert kautz(3, 2).adjacency == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert de_bruijn(1, 5).adjacency == ((5,),)
    for n in range(1, 13):
        for d in range(0, 6):
            for g in (de_bruijn(n, d), kautz(n, d)):
                assert all(g.out_degree(v) == d for v in range(g.n))
                assert _is_eulerian(g)


def test_not_eulerian():
    assert not _is_eulerian(Digraph(2, ((0, 1), (0, 0))))


def test_laplacian():
    assert laplacian(de_bruijn(2, 2)).to_rows() == [[1, -1], [-1, 1]]
    L = laplacian(de_bruijn(4, 2))
    assert all(sum(row) == 0 for row in L.to_rows())
    reduced = laplacian(de_bruijn(4, 2), reduce_at=0)
    assert reduced.to_rows() == [[2, -1, -1], [-1, 2, 0], [0, -1, 1]]
    with pytest.raises(ValueError):
        laplacian(de_bruijn(4, 2), reduce_at=4)
    with pytest.raises(ValueError):
        laplacian(de_bruijn(4, 2), reduce_at=-1)
    assert laplacian(de_bruijn(1, 3), reduce_at=0).rows == 0


def test_spanning_tree_counts():
    assert spanning_tree_count(de_bruijn(4, 2), 0) == 2
    assert spanning_tree_count(de_bruijn(3, 2), 0) == 1
    assert spanning_tree_count(kautz(3, 2), 0) == 3
    assert spanning_tree_count(de_bruijn(1, 1), 0) == 1
    assert spanning_tree_count(de_bruijn(3, 0), 0) == 0


@given(small_digraphs, st.integers(min_value=0, max_value=3))
def test_matrix_tree_vs_brute_enumeration(G, root):
    root %= G.n
    assert spanning_tree_count(G, root) == brute_tree_count(G, root)


def test_sandpile_group_examples():
    assert sandpile_group_snf(de_bruijn(4, 3), 0) == from_cyclic_orders([4])
    assert sandpile_group_snf(kautz(3, 2), 0) == from_cyclic_orders([3])
    for n in (1, 2, 5, 8):
        assert sandpile_group_snf(de_bruijn(n, 1), 0) == TRIVIAL_GROUP
    assert _critical_group_snf(Digraph(1, ((1,),))) == TRIVIAL_GROUP
    assert sandpile_group_snf(de_bruijn(3, 0), 0) == TRIVIAL_GROUP


def test_root_independence_on_eulerian_families():
    for g in (de_bruijn(6, 2), de_bruijn(5, 3), kautz(6, 2), kautz(4, 3)):
        groups = {sandpile_group_snf(g, r) for r in range(g.n)}
        assert len(groups) == 1
        assert groups.pop() == _critical_group_snf(g)


def test_group_order_is_tree_count():
    for g in (de_bruijn(6, 2), de_bruijn(4, 3), kautz(5, 2), kautz(3, 3)):
        for r in range(g.n):
            assert sandpile_group_snf(g, r).order == spanning_tree_count(g, r)
