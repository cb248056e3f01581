import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from l1ppr import SynthParams, generate, graph, path_instance
from l1ppr.graph import (
    Graph,
    NodeSet,
    _distinct,
    _rows,
    _union,
    build_from_edges,
    parse_snap_edgelist,
    vertex_boundary,
    volume,
)

from oracle import random_connected_graph, traced


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


def test_nodeset_rejects_non_integer_ids():
    for ids in ([1.5, 2.0], [True, False], np.array([0.0, 3.0])):
        with pytest.raises(ValueError, match="integers"):
            NodeSet(ids)
    assert len(NodeSet([])) == 0 and len(NodeSet(np.array([]))) == 0


def test_nodeset_repr_shows_at_most_eight_ids():
    assert repr(NodeSet([2, 1])) == "NodeSet([1, 2])"
    assert repr(NodeSet(range(10))) == "NodeSet([0, 1, 2, 3, 4, 5, 6, 7, '...'])"


def test_nodeset_ids_read_only():
    s = NodeSet([1, 2])
    with pytest.raises(ValueError):
        s.ids[0] = 9


@given(
    st.sets(st.integers(0, 40)),
    st.sets(st.integers(0, 40)),
)
def test_nodeset_ops_match_python_sets(a, b):
    """The operations' results are sorted, distinct, int64 and read-only,
    like the constructor's, which they skip."""
    na, nb = NodeSet(a), NodeSet(b)
    got = na.union(nb)
    assert list(got) == sorted(a | b)
    assert got.ids.dtype == np.int64 and not got.ids.flags.writeable
    assert na.issubset(nb) == (a <= b)


@pytest.mark.parametrize("ids", [[], [4], [1, 2, 5], [5, 2, 1], [3, 3]])
def test_nodeset_neither_aliases_nor_freezes_its_input(ids):
    a = np.array(ids, dtype=np.int64)
    s = NodeSet(a)
    assert a.flags.writeable and not np.shares_memory(s.ids, a)
    a[:] = 9
    assert s.ids.tolist() == sorted(set(ids))


_INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
# few distinct values, so runs of equal entries are common, or any int64
_INT64_ARRAYS = hnp.arrays(np.int64, st.integers(0, 40), elements=st.one_of(st.integers(-3, 3), _INT64))
_ARRANGEMENTS = {
    "as drawn": lambda a: a,
    "sorted": np.sort,
    "reversed": lambda a: np.sort(a)[::-1],
    "distinct": np.unique,
    "all equal": lambda a: np.full_like(a, a[0]) if a.size else a,
}


@given(_INT64_ARRAYS, st.sampled_from(sorted(_ARRANGEMENTS)))
@example(np.empty(0, dtype=np.int64), "as drawn")
@example(np.array([-7]), "as drawn")
def test_distinct_is_np_unique(arr, how):
    arr = _ARRANGEMENTS[how](arr)
    got, want = _distinct(arr), np.unique(arr)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert not np.shares_memory(got, arr)


@given(
    _INT64_ARRAYS,
    _INT64_ARRAYS,
    st.sampled_from(["as drawn", "disjoint", "nested", "equal"]),
    st.sampled_from(sorted(_ARRANGEMENTS)),
    st.booleans(),
)
@example(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), "as drawn", "as drawn", False)
@example(np.array([5]), np.array([5]), "as drawn", "as drawn", False)
def test_union_is_np_union1d(a, b, pair, how, swap):
    if pair == "disjoint":
        b = b[~np.isin(b, a)]
    elif pair == "nested":
        b = a[::2]
    elif pair == "equal":
        b = a.copy()
    a, b = _ARRANGEMENTS[how](a), _ARRANGEMENTS[how](b)
    if swap:
        a, b = b, a
    got, want = _union(a, b), np.union1d(a, b)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert not (np.shares_memory(got, a) or np.shares_memory(got, b))


SRC = Path(__file__).resolve().parents[1] / "src" / "l1ppr"


def test_package_set_operations_take_the_sort_path():
    """numpy 2 runs np.union1d and a plain np.unique through a hash table;
    the package's node sets go through graph._distinct and graph._union.
    An np.unique call must ask for an index, an inverse or counts, which
    numpy computes by sorting."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")):
                continue
            name = node.func.attr
            returns = any(k.arg and k.arg.startswith("return_") for k in node.keywords)
            if name == "union1d" or (name == "unique" and not returns):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert not found, found


def test_build_symmetrizes_and_dedups():
    g, remap = build_from_edges([(0, 1), (1, 0), (0, 1), (1, 1), (1, 2)])
    assert g.n == 3
    assert g.edge_count == 2
    assert g.edge_array().tolist() == [[0, 1], [1, 2]]
    assert remap.tolist() == [0, 1, 2]


def test_build_compacts_ids():
    g, remap = build_from_edges([(10, 30), (30, 20)])
    assert g.n == 3
    assert remap.tolist() == [10, 20, 30]
    # structure: 10-30, 30-20 -> compact 0-2, 2-1
    assert g.edge_array().tolist() == [[0, 2], [1, 2]]


def test_build_rejects_empty_and_negative():
    with pytest.raises(ValueError, match="empty graph"):
        build_from_edges([(2, 2)])
    with pytest.raises(ValueError, match="non-negative"):
        build_from_edges([(-1, 2)])
    # ids are never paired across rows: only (m, 2) pairs make edges
    with pytest.raises(ValueError, match=r"shape \(m, 2\), got shape \(2, 3\)"):
        build_from_edges(np.array([[0, 1, 2], [3, 4, 5]]))
    with pytest.raises(ValueError, match=r"shape \(m, 2\), got shape \(3,\)"):
        build_from_edges([0, 1, 2])


def test_build_rejects_non_integer_ids():
    for edges in ([(0.5, 1)], np.array([[0.0, 1.0]]), [(True, False)]):
        with pytest.raises(ValueError, match="integers"):
            build_from_edges(edges)


def test_csr_invariants():
    g, _ = build_from_edges([(0, 2), (2, 1), (0, 1), (3, 0)])
    assert g.row_offsets[0] == 0 and g.row_offsets[-1] == g.neighbors.size
    for u in range(g.n):
        row = g.neighbors[g.row_offsets[u]:g.row_offsets[u + 1]]
        assert np.all(np.diff(row) > 0)
        assert g.degrees[u] == row.size
    assert np.allclose(g.sqrt_degrees**2, g.degrees)
    assert np.allclose(g.sqrt_degrees * g.inv_sqrt_degrees, 1.0)


def test_iter_edges_round_trip():
    edges = [(0, 2), (2, 1), (0, 1), (3, 0), (3, 4)]
    g, _ = build_from_edges(edges)
    again, _ = build_from_edges(g.edge_array())
    assert g.equals(again)
    assert len(g.edge_array()) == g.edge_count


@given(
    pairs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=60),
    data=st.data(),
)
def test_edge_array_row_ranges_join_to_the_whole(pairs, data):
    """The edges of consecutive row ranges [lo, hi), concatenated, are
    ``edge_array()``, whatever the cuts: empty ranges, single rows, or one
    range of every row."""
    if all(u == v for u, v in pairs):
        return
    g, _ = build_from_edges(pairs)
    cuts = sorted(data.draw(st.lists(st.integers(0, g.n), max_size=6)))
    bounds = [0, *cuts, g.n]
    pieces = [g.edge_array(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert all(piece.dtype == np.int64 and piece.shape[1:] == (2,) for piece in pieces)
    assert np.array_equal(np.concatenate(pieces), g.edge_array())


def test_parse_snap_comments_and_errors(tmp_path):
    path = tmp_path / "edges.txt"

    def parse(text):
        path.write_text(text)
        return parse_snap_edgelist(path)

    g, remap = parse("# comment\n\n0 1\n1\t2\n")
    assert g.n == 3 and g.edge_count == 2

    with pytest.raises(ValueError, match="line 2"):
        parse("0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="line 3.*non-integer"):
        parse("0 1\n# fine\n0 x\n")
    with pytest.raises(ValueError, match="empty graph"):
        parse("# nothing\n")


_INT64_MAX = 2**63 - 1
# (token, the id it writes): a sign, leading zeros and the largest id sit
# next to plain ones
_ID_TOKENS = st.integers(0, 12).map(lambda i: (str(i), i)) | st.sampled_from([
    (str(_INT64_MAX), _INT64_MAX), ("+5", 5), ("07", 7), ("-0", 0),
])
_EDGE_LINE = st.tuples(_ID_TOKENS, _ID_TOKENS, st.sampled_from([" ", "\t", "  ", "\x0b", "\x0c"])).map(
    lambda t: (f"{t[0][0]}{t[2]}{t[1][0]}", (t[0][1], t[1][1]))
)
_SKIP_LINE = st.sampled_from(["", "   ", "# comment", "  # 1 2", "# 3 4 # note"]).map(lambda s: (s, None))
_BAD_LINE = st.one_of(
    # int() alone would take 1_000 and an Arabic-Indic three
    st.sampled_from(["x 1", "1 2.5", "1.0 2", "0x1 2", "5", "1 2 3", "1 2 # note", f"{2**63} 1",
                     "1_000 2", "2 \u0663"]),
    st.tuples(_ID_TOKENS, st.integers(max_value=-1)).map(lambda t: f"{t[0][0]} {t[1]}"),
    st.tuples(st.integers(min_value=_INT64_MAX + 1), _ID_TOKENS).map(lambda t: f"{t[0]} {t[1][0]}"),
)


def _parse(text, max_nodes, tmp_path):
    """(graph, remap) or the error message of parsing ``text`` from a file,
    which must agree with the line scan alone (``np.loadtxt`` stubbed out)."""
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode())
    out = []
    for scan_only in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if scan_only:
                mp.setattr(graph, "_loadtxt_edges", lambda text, path: None)
            try:
                out.append(parse_snap_edgelist(path, max_nodes))
            except ValueError as exc:
                out.append(str(exc))
    fast, scan = out
    if isinstance(scan, str):
        assert fast == scan
    else:
        assert fast[0].equals(scan[0]) and np.array_equal(fast[1], scan[1])
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
    assert {(int(remap[u]), int(remap[v])) for u, v in g.edge_array()} == edges


@pytest.mark.parametrize("text, want", [
    ("0 1\n1 2 # note\n", "line 2: expected two node ids, got '1 2 # note'"),
    ("# a\r\n0 1\r\n1 2\r\n", [(0, 1), (1, 2)]),
    ("0 1\n1 2", [(0, 1), (1, 2)]),
    ("# a\n# b\n", "empty graph"),
    ("0 1\n1.0 2\n", "line 2: non-integer node id in '1.0 2'"),
    ("0 1\n+2 07\n", [(0, 1), (2, 7)]),
    ("0 1\n1 -2\n", "line 2: node id outside [0, 9223372036854775807] in '1 -2'"),
    # ids are an optional sign and ASCII digits: int() alone would take both
    ("0 1\n1_0 2\n", "line 2: non-integer node id in '1_0 2'"),
    ("0 1\n\u0663 2\n", "line 2: non-integer node id in '\u0663 2'"),
])
def test_parse_snap_fast_path_edge_cases(text, want, tmp_path):
    got = _parse(text, None, tmp_path)
    if isinstance(want, str):
        assert got == want
    else:
        g, remap = got
        assert [(int(remap[u]), int(remap[v])) for u, v in g.edge_array()] == want


def test_volume_and_boundary_on_path():
    g = path_instance(4).graph  # 0-1-2-3-4-5
    s = NodeSet([2])
    assert volume(g, s) == 2
    assert volume(g, NodeSet([0, 5])) == 2
    assert vertex_boundary(g, s) == NodeSet([1, 3])
    assert vertex_boundary(g, NodeSet()) == NodeSet()
    with pytest.raises(ValueError, match="out of range"):
        volume(g, NodeSet([6]))


def test_boundary_of_everything_is_empty():
    g = path_instance(2).graph
    s = NodeSet(range(4))
    assert vertex_boundary(g, s) == NodeSet()
    assert volume(g, s) == 2 * g.edge_count


@given(
    pairs=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=40),
    members=st.sets(st.integers(0, 14)),
)
def test_vertex_boundary_against_set_reference(pairs, members):
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
    got = vertex_boundary(g, s)
    assert got == NodeSet(boundary)
    assert got.ids.dtype == np.int64 and not got.ids.flags.writeable


@given(
    case_seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 2**31), max_size=40),
    how=st.sampled_from(["as drawn", "sorted", "reversed", "repeated"]),
)
@example(case_seed=0, picks=[], how="as drawn")
def test_rows_is_the_concatenation_of_each_row(case_seed, picks, how):
    """``_rows`` gives the rows of any node array, empty, unsorted or with
    repeats, one after another, and the length of each."""
    rng = np.random.default_rng(case_seed)
    g = random_connected_graph(rng, int(rng.integers(2, 30)))
    nodes = np.array([i % g.n for i in picks], dtype=np.int64)
    nodes = {"as drawn": nodes, "sorted": np.sort(nodes), "reversed": np.sort(nodes)[::-1],
             "repeated": np.repeat(nodes, 2)}[how]
    rows = [g.neighbors[g.row_offsets[i]:g.row_offsets[i + 1]] for i in nodes.tolist()]
    nbrs, lens = _rows(g, nodes)
    assert nbrs.dtype == lens.dtype == np.int64
    assert nbrs.tolist() == [int(j) for row in rows for j in row]
    assert lens.tolist() == [len(row) for row in rows]


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


def test_build_compaction_same_on_both_sides_of_the_dense_guard():
    """Ids below the input length compact through a presence array, others
    through a search of their sorted distinct values; both give the same
    graph and the same id map."""
    rng = np.random.default_rng(5)
    ids = np.flatnonzero(rng.random(300) < 0.6)  # gapped ids
    edges = rng.choice(ids, size=(400, 2))
    top = int(edges.max())
    assert top < edges.size
    dense, dense_remap = build_from_edges(edges)
    # the same edges with the largest id, or every id, moved past the guard
    for far in (np.where(edges == top, 10**12, edges), edges + 10**12):
        assert int(far.max()) >= far.size
        sparse, sparse_remap = build_from_edges(far)
        assert sparse.equals(dense)
        assert np.array_equal(sparse.degrees, dense.degrees)
        assert sparse_remap.dtype == dense_remap.dtype == np.int64
        assert np.array_equal(sparse_remap, np.unique(far[far[:, 0] != far[:, 1]]))
    assert np.array_equal(dense_remap, np.unique(edges[edges[:, 0] != edges[:, 1]]))
    # an edge like (0, 10**12) sends a tiny input down the sparse path
    g, remap = build_from_edges([(0, 10**12), (10**12, 5)])
    h, remap_h = build_from_edges([(0, 2), (2, 1)])  # dense: compacts to itself
    assert g.equals(h) and remap.tolist() == [0, 5, 10**12] and remap_h.tolist() == [0, 1, 2]


_GRAPH_ARRAYS = ("row_offsets", "neighbors", "degrees", "sqrt_degrees", "inv_sqrt_degrees")


def _same_arrays(a, b):
    """Whether ``a`` and ``b`` agree in dtype, shape, bytes and write flag."""
    return (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            and a.flags.writeable == b.flags.writeable)


@given(
    pairs=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=40),
    data=st.data(),
)
def test_build_shortcuts_give_the_graph_of_the_full_path(pairs, data):
    """An edge array with no self-loop, no repeat and gap-free ids skips the
    pair copy, the id ranking and the key gather. It builds the graph that a
    self-loop or a reversed repeat, which take the copy or the gather, and
    ids past the dense guard, which take the sparse path, leave
    unchanged; so does a gap below the largest id, which the build ranks
    away. The caller's read-only array is read, never written, and no
    returned array shares its memory."""
    distinct = {}
    for u, v in pairs:
        if u != v:
            distinct.setdefault((min(u, v), max(u, v)), (u, v))
    if not distinct:
        return
    _, inverse = np.unique(np.array(list(distinct.values())), return_inverse=True)
    edges = inverse.reshape(-1, 2).astype(np.int64)  # ids compacted: no gap
    loop = data.draw(st.integers(0, int(edges.max())))
    again = data.draw(st.integers(0, len(edges) - 1))
    gap = data.draw(st.integers(0, int(edges.max())))
    g, remap = build_from_edges(edges)
    inputs = {
        "as drawn": (edges, remap),
        "self-loop": (np.concatenate((edges, [[loop, loop]])), remap),
        "reversed repeat": (np.concatenate((edges, edges[again:again + 1, ::-1])), remap),
        "one gap": (edges + (edges >= gap), remap + (remap >= gap)),
        "sparse ids": (edges + 10**12, remap + 10**12),
    }
    for name, (arr, want_remap) in inputs.items():
        arr.setflags(write=False)
        before = arr.copy()
        h, remap_h = build_from_edges(arr)
        assert np.array_equal(arr, before), name
        returned = [getattr(h, a) for a in _GRAPH_ARRAYS] + [remap_h]
        assert not any(np.shares_memory(arr, a) for a in returned), name
        assert h.n == g.n, name
        for a in _GRAPH_ARRAYS:
            assert _same_arrays(getattr(h, a), getattr(g, a)), (name, a)
        want_remap.setflags(write=False)
        assert _same_arrays(remap_h, want_remap), name


def test_build_holds_no_edge_length_scratch_on_dense_ids():
    """Beyond its input and its output, a build of gap-free ids holds at its
    peak one byte per directed entry, and a few int64 per node: on the
    ``cli_pipeline`` graph of the benchmark, whose 215,140 directed entries
    far outnumber its 1,060 nodes, the tracemalloc peak less what the build
    returns stays within 1 B per entry plus 64 B per node. A build of the
    same edges shifted by 10**12, whose sparse ids are ranked by a search,
    holds the int64 ranks as well: 8 B per entry plus 64 B per node."""
    g, _ = generate(SynthParams(exterior_size=400, deg_ext=398))
    edges = g.edge_array()
    entries = 2 * len(edges)
    assert (entries, g.n) == (215_140, 1_060)
    for shift, per_entry in ((0, 1), (10**12, 8)):
        shifted = edges + shift
        peak, held, (h, remap) = traced(lambda: build_from_edges(shifted))
        assert h.equals(g)
        assert np.array_equal(remap, np.arange(g.n) + shift)
        assert peak - held <= per_entry * entries + 64 * g.n, (shift, peak, held)
        del h, remap, shifted


def test_build_from_edges_rejects_key_overflow(monkeypatch):
    import l1ppr.graph as graph

    # with 4 distinct nodes, a key bound of 15 cannot hold 4 * 4 keys
    monkeypatch.setattr(graph, "_MAX_ID", 15)
    with pytest.raises(ValueError, match="overflow"):
        build_from_edges([(0, 1), (2, 3)])
    build_from_edges([(0, 1), (1, 2)])
