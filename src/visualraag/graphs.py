"""Immutable finite simplicial graphs with bitset adjacency.

Vertices are dense integer ids 0..n-1; display names live in a side table
and are used for all serialization.  Vertex sets are plain Python ints used
as bitmasks, which makes link-containment and separator checks single
machine-word operations for the graph sizes this package targets.
``reach`` and ``components`` walk any graph given by neighbour masks; they
are the package's one connectivity walk, used for hosts, diagonal graphs,
witness forests and trees alike; ``bfs_forest`` is its one walk with parent
pointers, behind both the 2-colouring and the witness hulls.

All functions here are pure; a Graph never mutates after construction, so
everything is safe for concurrent reads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


def bits(iterable: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in iterable:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield vertex ids of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def reach(adj: Sequence[int] | Mapping[int, int], start: int, active: int) -> int:
    """Bitmask of the vertices reachable from ``start`` (a vertex id) inside
    ``active``, where ``adj[v]`` is the neighbour mask of vertex v.

    The package's one graph walk: every connectivity, component and tree
    test goes through it or through ``components``.  ``adj`` may be a dict
    over the vertices that have neighbours.
    """
    reached = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & active & ~reached
        reached |= frontier
    return reached


def components(adj: Sequence[int], active: int) -> list[int]:
    """Connected components of the graph ``adj`` restricted to ``active``, as
    masks, in order of their lowest vertex."""
    comps = []
    rest = active
    while rest:
        comp = reach(adj, (rest & -rest).bit_length() - 1, rest)
        comps.append(comp)
        rest &= ~comp
    return comps


class NotBipartiteError(ValueError):
    """Raised by bipartition; carries an odd closed walk as evidence."""

    def __init__(self, odd_walk: list[int]):
        super().__init__(f"graph is not bipartite; odd closed walk {odd_walk}")
        self.odd_walk = odd_walk


@dataclass(frozen=True)
class TwoColoring:
    """A proper 2-coloring, stored as the bitmask of each color class."""

    red: int
    blue: int

    def same_class(self, u: int, v: int) -> bool:
        return bool((self.red >> u & 1) == (self.red >> v & 1))


class Graph:
    """Finite simplicial graph: unique display names plus bitset adjacency.

    No self-loops, no multi-edges; adjacency is symmetric.  ``adj[v]`` is the
    bitmask of neighbors of ``v`` (the link).
    """

    __slots__ = ("names", "adj", "_index")

    def __init__(self, names: Sequence[str], adj: Sequence[int]):
        names = tuple(names)
        adj = tuple(adj)
        if len(names) != len(adj):
            raise ValueError("names and adjacency rows disagree in length")
        if len(set(names)) != len(names):
            raise ValueError("display names must be unique")
        full = (1 << len(names)) - 1
        for v, row in enumerate(adj):
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {names[v]}")
            if row & ~full:
                raise ValueError(f"adjacency row of {names[v]} mentions unknown vertices")
            for w in iter_bits(row):
                if not adj[w] >> v & 1:
                    raise ValueError(f"adjacency not symmetric between {names[v]} and {names[w]}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_index", {name: v for v, name in enumerate(names)})

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Graph is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, names: Sequence[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        names = list(names)
        index = {name: v for v, name in enumerate(names)}
        adj = [0] * len(names)
        for a, b in edges:
            u, w = index[a], index[b]
            if u == w:
                raise ValueError(f"self-loop at {a}")
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        return cls(names, adj)

    @classmethod
    def from_int_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on vertices named "0".."n-1" with integer edge pairs."""
        adj = [0] * n
        for u, w in edges:
            if u == w:
                raise ValueError(f"self-loop at {u}")
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        return cls([str(i) for i in range(n)], adj)

    # -- basics ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.names == other.names and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.names, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {self.edge_count()} edges)"

    def vertex_id(self, name: str) -> int:
        return self._index[name]

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self.adj[u] >> w & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for w in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, w)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def subgraph(self, mask: int) -> "Graph":
        """Induced subgraph on the vertices of ``mask``, names preserved."""
        verts = bit_list(mask)
        pos = {v: i for i, v in enumerate(verts)}
        adj = [bits(pos[w] for w in iter_bits(self.adj[v] & mask)) for v in verts]
        return Graph([self.names[v] for v in verts], adj)

    # -- connectivity helpers (masks) --------------------------------------

    def is_connected_mask(self, active: int) -> bool:
        """Is the induced subgraph on ``active`` connected?  Empty counts as connected."""
        if active == 0:
            return True
        start = (active & -active).bit_length() - 1
        return reach(self.adj, start, active) == active

    def components(self, active: int) -> list[int]:
        """Connected components of the induced subgraph on ``active``, as masks."""
        return components(self.adj, active)


# --------------------------------------------------------------------------
# vocabulary operations


def link(g: Graph, v: int) -> int:
    """Neighbors of v, as a bitmask."""
    if not 0 <= v < g.n:
        raise KeyError(f"unknown vertex id {v}")
    return g.adj[v]


def is_triangle_free(g: Graph) -> bool:
    for u, w in g.edges():
        if g.adj[u] & g.adj[w]:
            return False
    return True


def is_incomplete(g: Graph) -> bool:
    """True iff some pair of distinct vertices is non-adjacent.

    The empty graph and a single vertex count as complete.
    """
    full = g.full_mask
    return any(g.adj[v] | 1 << v != full for v in range(g.n))


def cliques(g: Graph, active: int | None = None) -> Iterator[int]:
    """All cliques of g (inside ``active`` when given) as bitmasks, the empty
    clique included.

    Plain recursive extension; inputs are small, and on triangle-free graphs
    this degenerates to the empty set, vertices, and edges.
    """

    def extend(current: int, candidates: int) -> Iterator[int]:
        yield current
        for v in iter_bits(candidates):
            # keep candidates above v to avoid duplicates
            above = candidates & ~((1 << (v + 1)) - 1)
            yield from extend(current | 1 << v, above & g.adj[v])

    yield from extend(0, g.full_mask if active is None else active)


def has_separating_clique(g: Graph, active: int | None = None, through: int | None = None) -> bool:
    """Is there a clique whose removal leaves more than one component?

    Works on the induced subgraph on ``active`` (all of g by default) without
    building it.  A disconnected graph is separated by the empty clique.  All
    cliques are tested; for triangle-free graphs that means the empty set,
    single vertices, and edges.  Given ``through``, only the cliques holding
    that vertex are: the caller knows every separating clique holds it
    (``dismantle._dismantle`` proves this for a dominator).
    """
    if active is None:
        active = g.full_mask
    base = 0 if through is None else 1 << through
    pool = active if through is None else active & g.adj[through]
    for c in cliques(g, pool):
        if not g.is_connected_mask(active & ~(c | base)):
            return True
    return False


def bfs_forest(adj: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first forest of the graph ``adj``: (parent, depth, order).

    Each component is rooted at its lowest unreached vertex, neighbours are
    scanned in increasing order and queued first in, first out.  ``parent``
    is -1 at a root; ``order`` lists the vertices as they were reached.
    """
    n = len(adj)
    parent, depth, order = [-1] * n, [0] * n, []
    unreached = (1 << n) - 1
    head = 0
    while unreached:  # once every vertex is reached, the queue adds nothing
        if head == len(order):
            low = unreached & -unreached
            unreached ^= low
            order.append(low.bit_length() - 1)
        u = order[head]
        head += 1
        new = adj[u] & unreached
        unreached ^= new
        d = depth[u] + 1
        while new:
            low = new & -new
            w = low.bit_length() - 1
            parent[w], depth[w] = u, d
            order.append(w)
            new ^= low
    return parent, depth, order


def bipartition(g: Graph) -> TwoColoring:
    """Proper 2-coloring with the first vertex of each component red: the
    even-depth vertices of ``bfs_forest``.

    Raises NotBipartiteError with an odd closed walk when impossible:
    through the first vertex v in the forest's order with a neighbour of
    its own parity, and the lowest such neighbour.
    """
    parent, depth, order = bfs_forest(g.adj)
    red = bits(v for v in order if not depth[v] & 1)
    for v in order:
        clash = g.adj[v] & (red if red >> v & 1 else ~red)
        if clash:
            raise NotBipartiteError(_odd_walk(parent, v, (clash & -clash).bit_length() - 1))
    return TwoColoring(red, g.full_mask & ~red)


def _odd_walk(parent: list[int], v: int, w: int) -> list[int]:
    """Closed odd walk through the offending edge v-w, via BFS-tree paths;
    v and w are adjacent, so both paths end at one root."""

    def path_to_root(x: int) -> list[int]:
        out = [x]
        while parent[out[-1]] >= 0:
            out.append(parent[out[-1]])
        return out

    pv, pw = path_to_root(v), path_to_root(w)
    return pv[::-1] + pw[:-1]


def dominator(g: Graph, v: int, active: int | None = None) -> int | None:
    """The lowest vertex whose link contains v's in the induced subgraph on
    ``active``, or None when v is no satellite there."""
    if active is None:
        active = g.full_mask
    lv = g.adj[v] & active
    for w in iter_bits(active & ~(1 << v)):
        if not lv & ~g.adj[w]:
            return w
    return None


def find_edge_cycle(adj: dict[int, set[int]]) -> list[int] | None:
    """A cycle of the graph given by an adjacency dict, as its vertices in
    order, or None when the graph is a forest."""
    visited: set[int] = set()

    def dfs(v: int, par: int | None, path: list[int]) -> list[int] | None:
        visited.add(v)
        path.append(v)
        for w in adj[v]:
            if w == par:
                continue
            if w in path:
                return path[path.index(w):]
            if w not in visited:
                got = dfs(w, v, path)
                if got is not None:
                    return got
        path.pop()
        return None

    for root in adj:
        if root not in visited:
            got = dfs(root, None, [])
            if got is not None:
                return got
    return None


def induced_cycles(g: Graph) -> Iterator[list[int]]:
    """Chordless cycles, each yielded once up to rotation and reflection.

    DFS from the smallest cycle vertex; a path extends only by vertices
    adjacent to nothing on the path except its last vertex, so every closed
    walk found is induced.  Enumeration is exponential in general.
    """
    def extend(path: list[int], blocked: int) -> Iterator[list[int]]:
        # blocked: the start and every vertex below it, the path, and the
        # neighbours of the path's inner vertices
        last = path[-1]
        if len(path) >= 3 and g.adj[last] >> path[0] & 1:
            # closing edge exists; any longer path through `last` would carry
            # the chord start-last, so close (canonically) and stop.
            if path[1] < last:
                yield list(path)
            return
        for w in iter_bits(g.adj[last] & ~blocked):
            yield from extend(path + [w], blocked | g.adj[last])

    for s in range(g.n):
        below = (2 << s) - 1
        for u in iter_bits(g.adj[s] & ~below):
            yield from extend([s, u], below | 1 << u)


def n_chords(g: Graph, cycle: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """Paths of length n (n = 1 or 2) between cycle vertices whose two cycle
    subsegments both have more than n edges.

    For n=2 the middle vertex may lie on or off the cycle.
    """
    if n not in (1, 2):
        raise ValueError("only 1-chords and 2-chords are defined here")
    length = len(cycle)
    out: list[tuple[int, ...]] = []
    for i, j in itertools.combinations(range(length), 2):
        d = min(j - i, length - (j - i))
        if d <= n:
            continue
        x, y = cycle[i], cycle[j]
        if n == 1:
            if g.has_edge(x, y):
                out.append((x, y))
        else:
            for m in iter_bits(g.adj[x] & g.adj[y]):
                out.append((x, m, y))
    return out


# --------------------------------------------------------------------------
# serialization: JSON and graph6


def to_json_dict(g: Graph) -> dict:
    return {
        "vertices": list(g.names),
        "edges": [[g.names[u], g.names[w]] for u, w in g.edges()],
    }


def to_json(g: Graph, **kwargs) -> str:
    return json.dumps(to_json_dict(g), **kwargs)


def from_json_dict(data: dict) -> Graph:
    try:
        names = data["vertices"]
        edges = [(a, b) for a, b in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    try:
        return Graph.from_edges(names, edges)
    except KeyError as exc:
        raise ValueError(f"malformed graph JSON: edge names unknown vertex {exc}") from exc
    except TypeError as exc:  # a vertex name that is not hashable
        raise ValueError(f"malformed graph JSON: {exc}") from exc


def from_json(text: str) -> Graph:
    return from_json_dict(json.loads(text))


_G6_HEADER = ">>graph6<<"


def from_graph6(line: str | bytes) -> Graph:
    """Parse one graph6 line (names become "0".."n-1")."""
    if isinstance(line, bytes):
        line = line.decode("ascii")
    line = line.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in line]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    if data[0] < 63:
        n, data = data[0], data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) + (data[2] << 6) + data[3]
        data = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) + b
        data = data[8:]
    else:
        raise ValueError("truncated graph6 size field")
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise ValueError("graph6 body has wrong length")
    bitstream = []
    for b in data:
        for k in range(5, -1, -1):
            bitstream.append(b >> k & 1)
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph([str(i) for i in range(n)], adj)


def to_graph6(g: Graph) -> str:
    """Serialize to a graph6 string (standard format, no header)."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        head = [126, 126] + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
    stream = []
    for j in range(1, n):
        for i in range(j):
            stream.append(g.adj[i] >> j & 1)
    while len(stream) % 6:
        stream.append(0)
    body = []
    for k in range(0, len(stream), 6):
        val = 0
        for b in stream[k:k + 6]:
            val = val << 1 | b
        body.append(val + 63)
    return "".join(chr(c) for c in head + body)
