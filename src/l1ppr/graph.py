"""Immutable undirected graphs in CSR form, with set and boundary primitives.

The adjacency access point for local algorithms is :meth:`Graph.neighbors_of`;
everything downstream (gradients, boundary computations) reads rows only for
the nodes it is entitled to touch, which keeps edge-access counts proportional
to the degree volume of the sets involved.
"""

from __future__ import annotations

import io
import os
import warnings
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
        return bool(_find(self._ids, np.array([node]))[0][0])

    def contains(self, nodes: np.ndarray) -> np.ndarray:
        """Boolean array: which entries of the int array ``nodes`` are members."""
        return _find(self._ids, nodes)[0]

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


def _find(ids: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Look up the array ``nodes`` in the strictly increasing array ``ids``:
    a mask of the nodes found, and positions ``j`` with ``ids[j] == nodes``
    where the mask holds."""
    j = np.searchsorted(ids, nodes)
    found = j < ids.size
    found[found] = ids[j[found]] == nodes[found]
    return found, j


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

    def edge_array(self) -> np.ndarray:
        """Each undirected edge once, as the row (u, v) with u < v of an int64
        (m, 2) array, in sorted order."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.row_offsets))
        keep = src < self.neighbors
        return np.stack((src[keep], self.neighbors[keep]), axis=1)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, in sorted order."""
        return map(tuple, self.edge_array().tolist())


_MAX_ID = np.iinfo(np.int64).max


def build_from_edges(
    edge_list: Iterable[tuple[int, int]] | np.ndarray,
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
    source: os.PathLike | TextIO | Iterable[str], max_nodes: int | None = None
) -> tuple[Graph, np.ndarray]:
    """Parse a whitespace-separated edge list ('#' lines are comments).

    ``source`` is the path of a UTF-8 file (an ``os.PathLike``), a text
    stream, or any other iterable of lines. Returns the compacted graph
    together with the compact-to-original id map, so results can be reported
    in the file's own node numbering.

    With ``max_nodes`` set, only the first ``max_nodes`` distinct node ids in
    file order (``u`` before ``v`` within a line) are kept, and edges touching
    any other id are dropped. Every line is still checked.

    A path or a stream (anything with ``read``) is read whole and parsed by
    ``np.loadtxt``; given a path, numpy reads the file in blocks, about twice
    as fast as line by line from a stream. The line scan decides instead,
    with its errors and line numbers, whenever the two could disagree: a
    ``#`` inside a line that is not a comment, a ``loadtxt`` error or
    warning, or a result that is not a nonempty two-column array of
    non-negative ids. Other iterables of lines go straight to the line scan.
    """
    if isinstance(source, os.PathLike):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
        edges = _loadtxt_edges(text, source)
    elif hasattr(source, "read"):
        text = source.read()
        edges = _loadtxt_edges(text, io.StringIO(text))
    else:
        text, edges = None, None
    if edges is None:
        edges = _scan_edges(source if text is None else io.StringIO(text))
    if max_nodes is not None:
        ids, first = np.unique(edges.ravel(), return_index=True)
        kept = ids[np.argsort(first)[: max(max_nodes, 0)]]
        edges = edges[np.isin(edges, kept).all(axis=1)]
    return build_from_edges(edges)


def _loadtxt_edges(text: str, fname: os.PathLike | TextIO) -> np.ndarray | None:
    """The (u, v) rows of ``text``, read by ``np.loadtxt`` from ``fname``
    (which holds the same text), or None where the line scan has to decide."""
    if _has_inline_comment(text):
        return None  # loadtxt would keep the part of the line before the '#'
    try:
        with warnings.catch_warnings():
            # numpy 1.2x only warns on a token such as 1.0, and truncates it
            warnings.simplefilter("error")
            edges = np.loadtxt(fname, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
    except (ValueError, OverflowError, Warning):
        return None
    if edges.shape[1] != 2 or edges.size == 0 or int(edges.min()) < 0:
        return None
    return edges


def _has_inline_comment(text: str) -> bool:
    """Whether a line of ``text`` has a '#' that does not start it."""
    i = text.find("#")
    while i != -1:
        if i and text[i - 1] != "\n":
            return True
        end = text.find("\n", i)
        if end == -1:
            return False
        i = text.find("#", end)
    return False


def _scan_edges(lines: Iterable[str]) -> np.ndarray:
    """The (u, v) rows, one line at a time; raises on the first bad line."""
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(lines, start=1):
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
    return np.array(pairs, dtype=np.int64)


def _check_in_range(g: Graph, s: NodeSet) -> None:
    if len(s) and int(s.ids[-1]) >= g.n:
        raise ValueError(f"node index {int(s.ids[-1])} out of range for graph with n={g.n}")


def volume(g: Graph, s: NodeSet) -> int:
    """Sum of degrees over ``s``."""
    _check_in_range(g, s)
    return int(g.degrees[s.ids].sum())


def _rows(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency rows of the int array ``nodes``, concatenated in order,
    and the length of each."""
    row_offsets = g.row_offsets
    lens = row_offsets[nodes + 1] - row_offsets[nodes]
    shift = np.repeat(row_offsets[nodes] - np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    return g.neighbors[np.arange(int(lens.sum()), dtype=np.int64) + shift], lens


def vertex_boundary(g: Graph, s: NodeSet) -> NodeSet:
    """Nodes outside ``s`` with at least one neighbor inside it."""
    _check_in_range(g, s)
    touched = np.unique(_rows(g, s.ids)[0])
    return NodeSet(touched[~s.contains(touched)])


def exterior(g: Graph, s: NodeSet) -> NodeSet:
    """Complement of ``s`` and its vertex boundary."""
    return NodeSet(np.arange(g.n)).difference(s.union(vertex_boundary(g, s)))
