"""Immutable undirected graphs in CSR form, with set and boundary primitives.

The adjacency access point for local algorithms is :meth:`Graph.neighbors_of`;
everything downstream (gradients, boundary computations) reads rows only for
the nodes it is entitled to touch, which keeps edge-access counts proportional
to the degree volume of the sets involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

__all__ = [
    "NodeSet",
    "Graph",
    "build_from_edges",
    "parse_snap_edgelist",
    "volume",
    "vertex_boundary",
    "exterior",
]


class NodeSet:
    """Immutable sorted set of node indices backed by an int64 array."""

    __slots__ = ("_ids",)

    def __init__(self, ids: Iterable[int] | np.ndarray = ()):
        if isinstance(ids, NodeSet):
            self._ids = ids._ids
            return
        arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("node ids must form a one-dimensional sequence")
        if arr.size and int(arr.min()) < 0:
            raise ValueError("node ids must be non-negative")
        arr = np.unique(arr)
        arr.setflags(write=False)
        self._ids = arr

    @property
    def ids(self) -> np.ndarray:
        """Strictly increasing int64 array of members (read-only)."""
        return self._ids

    def __len__(self) -> int:
        return int(self._ids.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __contains__(self, node: int) -> bool:
        i = int(np.searchsorted(self._ids, node))
        return i < self._ids.size and int(self._ids[i]) == int(node)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeSet) and np.array_equal(self._ids, other._ids)

    def __repr__(self) -> str:
        inner = self._ids.tolist()
        if len(inner) > 8:
            inner = inner[:8] + ["..."]
        return f"NodeSet({inner})"

    def union(self, other: "NodeSet") -> "NodeSet":
        return NodeSet(np.union1d(self._ids, other._ids))

    def intersection(self, other: "NodeSet") -> "NodeSet":
        return NodeSet(np.intersect1d(self._ids, other._ids, assume_unique=True))

    def difference(self, other: "NodeSet") -> "NodeSet":
        return NodeSet(np.setdiff1d(self._ids, other._ids, assume_unique=True))

    def issubset(self, other: "NodeSet") -> bool:
        if not len(self):
            return True
        return bool(np.isin(self._ids, other._ids, assume_unique=True).all())


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph in compressed sparse row form.

    Invariants (enforced at construction): neighbor lists sorted ascending,
    symmetric adjacency, no self-loops or duplicate edges, and every node has
    degree at least one.
    """

    n: int
    row_offsets: np.ndarray   # int64, length n+1
    neighbors: np.ndarray     # int64, concatenated sorted rows
    degrees: np.ndarray       # int64, degrees[i] == row span length
    sqrt_degrees: np.ndarray      # float64, sqrt(d_i)
    inv_sqrt_degrees: np.ndarray  # float64, 1/sqrt(d_i)

    def neighbors_of(self, node: int) -> np.ndarray:
        """Sorted neighbor row of ``node`` (a read-only view)."""
        return self.neighbors[self.row_offsets[node]:self.row_offsets[node + 1]]

    def degree(self, node: int) -> int:
        return int(self.degrees[node])

    @property
    def edge_count(self) -> int:
        return int(self.neighbors.size) // 2

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors_of(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == int(v)

    def equals(self, other: "Graph") -> bool:
        return (
            self.n == other.n
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.neighbors_of(u):
                if u < v:
                    yield u, int(v)


_MAX_ID = np.iinfo(np.int64).max


def build_from_edges(
    edge_list: Iterable[tuple[int, int]] | np.ndarray,
    n_hint: int | None = None,
) -> tuple[Graph, np.ndarray]:
    """Build a graph from raw (u, v) pairs.

    Input pairs may repeat, appear in either orientation, or be self-loops;
    duplicates and self-loops are dropped and the edge set is symmetrized.
    Nodes that end up with zero degree do not get an index: node ids are
    compacted, and the returned int64 array maps each compact id back to the
    original id (``remap[new] == original``).
    """
    if isinstance(edge_list, np.ndarray):
        arr = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    else:
        arr = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("node indices must be non-negative")
    if n_hint is not None and arr.size and int(arr.max()) >= n_hint:
        raise ValueError(f"node index {int(arr.max())} exceeds n_hint={n_hint}")
    arr = arr[arr[:, 0] != arr[:, 1]]
    if arr.size == 0:
        raise ValueError("empty graph")
    present, compact = np.unique(arr.ravel(), return_inverse=True)
    n = int(present.size)
    if n > _MAX_ID // n:
        raise ValueError(f"{n} distinct nodes overflow the int64 edge key")
    cu, cv = compact.reshape(-1, 2).T
    # One int64 key per directed pair, sorted: rows in order, each row's
    # neighbors ascending. A plain sort beats np.unique on this key.
    key = np.concatenate((cu * n + cv, cv * n + cu))
    del cu, cv, compact
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    neighbors = key % n
    key //= n  # now the source of each pair
    degrees = np.bincount(key, minlength=n).astype(np.int64)
    del key
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    sqrt_degrees = np.sqrt(degrees.astype(np.float64))
    inv_sqrt_degrees = 1.0 / sqrt_degrees
    for a in (row_offsets, neighbors, degrees, sqrt_degrees, inv_sqrt_degrees, present):
        a.setflags(write=False)
    return Graph(n, row_offsets, neighbors, degrees, sqrt_degrees, inv_sqrt_degrees), present



def parse_snap_edgelist(
    text_stream: TextIO | Iterable[str], max_nodes: int | None = None
) -> tuple[Graph, np.ndarray]:
    """Parse a whitespace-separated edge list ('#' lines are comments).

    Returns the compacted graph together with the compact-to-original id map,
    so results can be reported in the file's own node numbering.

    With ``max_nodes`` set, only the first ``max_nodes`` distinct node ids in
    file order (``u`` before ``v`` within a line) are kept, and edges touching
    any other id are dropped. Every line is still checked.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(text_stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two node ids, got {stripped!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id in {stripped!r}") from None
        if not (0 <= u <= _MAX_ID and 0 <= v <= _MAX_ID):
            raise ValueError(f"line {lineno}: node id outside [0, {_MAX_ID}] in {stripped!r}")
        pairs.append((u, v))
    if not pairs:
        raise ValueError("empty graph")
    edges = np.array(pairs, dtype=np.int64)
    del pairs  # the tuples take several times the array's memory
    if max_nodes is not None:
        ids, first = np.unique(edges.ravel(), return_index=True)
        kept = ids[np.argsort(first)[: max(max_nodes, 0)]]
        edges = edges[np.isin(edges, kept).all(axis=1)]
    return build_from_edges(edges)


def _check_in_range(g: Graph, s: NodeSet) -> None:
    if len(s) and int(s.ids[-1]) >= g.n:
        raise ValueError(f"node index {int(s.ids[-1])} out of range for graph with n={g.n}")


def volume(g: Graph, s: NodeSet) -> int:
    """Sum of degrees over ``s``."""
    _check_in_range(g, s)
    return int(g.degrees[s.ids].sum())


def vertex_boundary(g: Graph, s: NodeSet) -> NodeSet:
    """Nodes outside ``s`` with at least one neighbor inside it."""
    _check_in_range(g, s)
    if not len(s):
        return NodeSet()
    member = np.zeros(g.n, dtype=bool)
    member[s.ids] = True
    touched = np.unique(np.concatenate([g.neighbors_of(i) for i in s.ids]))
    return NodeSet(touched[~member[touched]])


def exterior(g: Graph, s: NodeSet) -> NodeSet:
    """Complement of ``s`` and its vertex boundary."""
    closed = np.zeros(g.n, dtype=bool)
    closed[s.ids] = True
    closed[vertex_boundary(g, s).ids] = True
    return NodeSet(np.flatnonzero(~closed))
