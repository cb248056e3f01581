import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1ppr.graph import (
    Graph,
    NodeSet,
    build_from_edges,
    exterior,
    parse_snap_edgelist,
    vertex_boundary,
    volume,
)


def test_nodeset_basic():
    s = NodeSet([3, 1, 2, 1])
    assert len(s) == 3
    assert list(s) == [1, 2, 3]
    assert 2 in s and 5 not in s
    assert s == NodeSet(np.array([1, 2, 3]))
    assert NodeSet(s) == s


def test_nodeset_rejects_negative_and_2d():
    with pytest.raises(ValueError):
        NodeSet([-1, 2])
    with pytest.raises(ValueError):
        NodeSet(np.zeros((2, 2), dtype=np.int64))


def test_nodeset_ids_read_only():
    s = NodeSet([1, 2])
    with pytest.raises(ValueError):
        s.ids[0] = 9


@given(
    st.sets(st.integers(0, 40)),
    st.sets(st.integers(0, 40)),
)
def test_nodeset_ops_match_python_sets(a, b):
    na, nb = NodeSet(a), NodeSet(b)
    assert set(na.union(nb)) == a | b
    assert set(na.intersection(nb)) == a & b
    assert set(na.difference(nb)) == a - b
    assert na.issubset(nb) == (a <= b)


def path_graph(n):
    g, _ = build_from_edges([(i, i + 1) for i in range(n - 1)])
    return g


def test_build_symmetrizes_and_dedups():
    g, remap = build_from_edges([(0, 1), (1, 0), (0, 1), (1, 1), (1, 2)])
    assert g.n == 3
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert remap.tolist() == [0, 1, 2]


def test_build_compacts_ids():
    g, remap = build_from_edges([(10, 30), (30, 20)])
    assert g.n == 3
    assert remap.tolist() == [10, 20, 30]
    # structure: 10-30, 30-20 -> compact 0-2, 2-1
    assert g.has_edge(0, 2) and g.has_edge(1, 2) and not g.has_edge(0, 1)


def test_build_rejects_empty_and_negative():
    with pytest.raises(ValueError, match="empty graph"):
        build_from_edges([(2, 2)])
    with pytest.raises(ValueError, match="non-negative"):
        build_from_edges([(-1, 2)])


def test_csr_invariants():
    g, _ = build_from_edges([(0, 2), (2, 1), (0, 1), (3, 0)])
    assert g.row_offsets[0] == 0 and g.row_offsets[-1] == g.neighbors.size
    for u in range(g.n):
        row = g.neighbors_of(u)
        assert np.all(np.diff(row) > 0)
        assert g.degree(u) == row.size
    assert np.allclose(g.sqrt_degrees**2, g.degrees)
    assert np.allclose(g.sqrt_degrees * g.inv_sqrt_degrees, 1.0)


def test_iter_edges_round_trip():
    edges = [(0, 2), (2, 1), (0, 1), (3, 0), (3, 4)]
    g, _ = build_from_edges(edges)
    again, _ = build_from_edges(list(g.iter_edges()))
    assert g.equals(again)
    assert len(list(g.iter_edges())) == g.edge_count


def test_parse_snap_comments_and_errors():
    text = "# comment\n\n0 1\n1\t2\n"
    g, remap = parse_snap_edgelist(io.StringIO(text))
    assert g.n == 3 and g.edge_count == 2

    with pytest.raises(ValueError, match="line 2"):
        parse_snap_edgelist(io.StringIO("0 1\n0 1 2\n"))
    with pytest.raises(ValueError, match="line 3.*non-integer"):
        parse_snap_edgelist(io.StringIO("0 1\n# fine\n0 x\n"))
    with pytest.raises(ValueError, match="empty graph"):
        parse_snap_edgelist(io.StringIO("# nothing\n"))


_INT64_MAX = 2**63 - 1
# (token, the id int() reads from it): tokens where np.loadtxt and int() may
# disagree sit next to plain ones
_ID_TOKENS = st.integers(0, 12).map(lambda i: (str(i), i)) | st.sampled_from([
    (str(_INT64_MAX), _INT64_MAX), ("+5", 5), ("07", 7), ("-0", 0), ("1_000", 1000), ("\u0663", 3),
])
_EDGE_LINE = st.tuples(_ID_TOKENS, _ID_TOKENS, st.sampled_from([" ", "\t", "  ", "\x0b", "\x0c"])).map(
    lambda t: (f"{t[0][0]}{t[2]}{t[1][0]}", (t[0][1], t[1][1]))
)
_SKIP_LINE = st.sampled_from(["", "   ", "# comment", "  # 1 2", "# 3 4 # note"]).map(lambda s: (s, None))
_BAD_LINE = st.one_of(
    st.sampled_from(["x 1", "1 2.5", "1.0 2", "0x1 2", "5", "1 2 3", "1 2 # note", f"{2**63} 1"]),
    st.tuples(_ID_TOKENS, st.integers(max_value=-1)).map(lambda t: f"{t[0][0]} {t[1]}"),
    st.tuples(st.integers(min_value=_INT64_MAX + 1), _ID_TOKENS).map(lambda t: f"{t[0]} {t[1][0]}"),
)


def _parse(text, max_nodes, tmp_path):
    """(graph, remap) or the error message: by np.loadtxt from a stream and
    from a file path, and by the line scan from a list of lines. The first
    two must agree with the third."""
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode())
    out = []
    for source in (io.StringIO(text), path, io.StringIO(text).readlines()):
        try:
            out.append(parse_snap_edgelist(source, max_nodes))
        except ValueError as exc:
            out.append(str(exc))
    fast, from_file, scan = out
    if isinstance(scan, str):
        assert fast == from_file == scan
    else:
        for g, remap in (fast, from_file):
            assert g.equals(scan[0]) and np.array_equal(remap, scan[1])
    return fast


@settings(max_examples=300)
@given(
    lines=st.lists(_EDGE_LINE | _SKIP_LINE, max_size=12),
    bad=st.none() | _BAD_LINE,
    where=st.integers(0, 12),
    max_nodes=st.none() | st.integers(0, 6),
    eol=st.sampled_from(["\n", "\r\n"]),
    last_eol=st.booleans(),
)
def test_parse_snap_fuzz_against_reference(lines, bad, where, max_nodes, eol, last_eol, tmp_path):
    if bad is not None:
        lines.insert(min(where, len(lines)), (bad, "bad"))
    text = eol.join(line for line, _ in lines) + (eol if last_eol and lines else "")
    got = _parse(text, max_nodes, tmp_path)
    bad_at = [i for i, (_, pair) in enumerate(lines, start=1) if pair == "bad"]
    if bad_at:
        assert got.startswith(f"line {bad_at[0]}: ")
        return
    # reference truncation: the first max_nodes distinct ids in file order
    pairs = [pair for _, pair in lines if pair is not None]
    order = list(dict.fromkeys(node for pair in pairs for node in pair))
    kept = set(order if max_nodes is None else order[:max_nodes])
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v and u in kept and v in kept}
    if not edges:
        assert got == "empty graph"
        return
    g, remap = got
    assert remap.tolist() == sorted({node for edge in edges for node in edge})
    assert {(int(remap[u]), int(remap[v])) for u, v in g.iter_edges()} == edges


@pytest.mark.parametrize("text, want", [
    ("0 1\n1 2 # note\n", "line 2: expected two node ids, got '1 2 # note'"),
    ("# a\r\n0 1\r\n1 2\r\n", [(0, 1), (1, 2)]),
    ("0 1\n1 2", [(0, 1), (1, 2)]),
    ("# a\n# b\n", "empty graph"),
    ("0 1\n1.0 2\n", "line 2: non-integer node id in '1.0 2'"),
    ("0 1\n+2 07\n", [(0, 1), (2, 7)]),
    ("0 1\n1 -2\n", "line 2: node id outside [0, 9223372036854775807] in '1 -2'"),
])
def test_parse_snap_fast_path_edge_cases(text, want, tmp_path):
    got = _parse(text, None, tmp_path)
    if isinstance(want, str):
        assert got == want
    else:
        g, remap = got
        assert [(int(remap[u]), int(remap[v])) for u, v in g.iter_edges()] == want


def test_volume_and_boundary_on_path():
    g = path_graph(6)  # 0-1-2-3-4-5
    s = NodeSet([2])
    assert volume(g, s) == 2
    assert volume(g, NodeSet([0, 5])) == 2
    assert vertex_boundary(g, s) == NodeSet([1, 3])
    assert exterior(g, s) == NodeSet([0, 4, 5])
    assert vertex_boundary(g, NodeSet()) == NodeSet()
    assert exterior(g, NodeSet()) == NodeSet(range(6))
    with pytest.raises(ValueError, match="out of range"):
        volume(g, NodeSet([6]))


def test_boundary_of_everything_is_empty():
    g = path_graph(4)
    s = NodeSet(range(4))
    assert vertex_boundary(g, s) == NodeSet()
    assert exterior(g, s) == NodeSet()
    assert volume(g, s) == 2 * g.edge_count


@given(
    pairs=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=40),
    members=st.sets(st.integers(0, 14)),
)
def test_vertex_boundary_and_exterior_against_set_reference(pairs, members):
    edges = {(u, v) for u, v in pairs if u != v}
    if not edges:
        return
    g, remap = build_from_edges(pairs)
    compact = {int(node): i for i, node in enumerate(remap)}
    adj = {i: set() for i in range(g.n)}
    for u, v in edges:
        adj[compact[u]].add(compact[v])
        adj[compact[v]].add(compact[u])
    inside = {compact[i] for i in members if i in compact}
    boundary = {j for i in inside for j in adj[i]} - inside
    s = NodeSet(inside)
    assert vertex_boundary(g, s) == NodeSet(boundary)
    assert exterior(g, s) == NodeSet(set(range(g.n)) - inside - boundary)


@given(st.integers(2, 25), st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_build_from_random_edges_is_symmetric(n, extra, rng_seed):
    rng = np.random.default_rng(rng_seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    edges += [
        (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(extra)
    ]
    try:
        g, _ = build_from_edges(edges)
    except ValueError:
        return  # everything collapsed to self-loops
    src = np.repeat(np.arange(g.n), np.diff(g.row_offsets))
    # symmetric: (u, v) present iff (v, u) present
    fwd = set(zip(src.tolist(), g.neighbors.tolist()))
    assert fwd == {(v, u) for u, v in fwd}
    assert not any(u == v for u, v in fwd)
    assert int(g.degrees.min()) >= 1


_SPARSE_IDS = st.integers(0, 6) | st.integers(2**40, 2**40 + 3) | st.just(_INT64_MAX)


@settings(max_examples=300)
@given(pairs=st.lists(st.tuples(_SPARSE_IDS, _SPARSE_IDS), max_size=30))
def test_build_from_edges_against_set_reference(pairs):
    """Repeats, both orientations, self-loops and sparse large ids give the
    CSR of the plain undirected edge set over the ids that keep an edge."""
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    if not edges:
        with pytest.raises(ValueError, match="^empty graph$"):
            build_from_edges(pairs)
        return
    g, remap = build_from_edges(pairs)
    nodes = sorted({node for edge in edges for node in edge})
    rows = [sorted({b for a, b in edges if a == u} | {a for a, b in edges if b == u}) for u in nodes]
    compact = {node: i for i, node in enumerate(nodes)}
    assert remap.tolist() == nodes
    assert g.n == len(nodes)
    assert g.row_offsets.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
    assert g.neighbors.tolist() == [compact[v] for r in rows for v in r]
    assert g.degrees.tolist() == [len(r) for r in rows]
    assert np.array_equal(g.sqrt_degrees, np.sqrt(g.degrees.astype(np.float64)))


def test_build_from_edges_rejects_key_overflow(monkeypatch):
    import l1ppr.graph as graph

    # with 4 distinct nodes, a key bound of 15 cannot hold 4 * 4 keys
    monkeypatch.setattr(graph, "_MAX_ID", 15)
    with pytest.raises(ValueError, match="overflow"):
        build_from_edges([(0, 1), (2, 3)])
    build_from_edges([(0, 1), (1, 2)])
