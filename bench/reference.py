"""Independent reference checks used to build and to judge the benchmark corpora.

Graphs here are plain lists of adjacency bitmasks (``adj[v]`` is the set of
neighbours of ``v``).  Nothing in this module imports ``visualraag``: the
checks that decide which inputs a workload holds, and whether a reported
obstruction is real, must not share code with the program they judge.
"""

from __future__ import annotations

import itertools


def bit_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------- graph6


def decode_graph6(line: str) -> list[int]:
    """Adjacency bitmasks of a graph6 string (at most 258047 vertices)."""
    data = [ord(c) - 63 for c in line.strip()]
    if data[0] == 63:
        n = data[1] << 12 | data[2] << 6 | data[3]
        data = data[3:]
    else:
        n = data[0]
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if data[1 + k // 6] >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def encode_graph6(adj: list[int]) -> str:
    n = len(adj)
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    stream = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    stream += [0] * (-len(stream) % 6)
    body = [
        sum(b << (5 - k) for k, b in enumerate(stream[s:s + 6])) for s in range(0, len(stream), 6)
    ]
    return "".join(chr(c + 63) for c in head + body)


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """The same graph with vertex ``v`` renamed ``perm[v]``."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        out[perm[v]] = sum(1 << perm[w] for w in bit_list(row))
    return out


# ------------------------------------------------------------ preconditions


def is_triangle_free(adj: list[int]) -> bool:
    return not any(adj[u] & adj[w] for u in range(len(adj)) for w in bit_list(adj[u]))


def is_incomplete(adj: list[int]) -> bool:
    full = (1 << len(adj)) - 1
    return any(adj[v] | 1 << v != full for v in range(len(adj)))


def _connected(adj: list[int], active: int) -> bool:
    if not active:
        return True
    seen = active & -active
    frontier = seen
    while frontier:
        nxt = 0
        for v in bit_list(frontier):
            nxt |= adj[v]
        frontier = nxt & active & ~seen
        seen |= frontier
    return seen == active


def has_separating_clique(adj: list[int]) -> bool:
    """Triangle-free inputs only: the cliques are the empty set, vertices and edges."""
    full = (1 << len(adj)) - 1
    cliques = [0] + [1 << v for v in range(len(adj))]
    cliques += [1 << u | 1 << w for u in range(len(adj)) for w in bit_list(adj[u]) if u < w]
    return any(not _connected(adj, full & ~c) for c in cliques)


def qualifies(adj: list[int]) -> bool:
    """Incomplete, triangle-free and without a separating clique."""
    return is_incomplete(adj) and is_triangle_free(adj) and not has_separating_clique(adj)


# -------------------------------------------------------------- squares, CFS


def induced_squares(adj: list[int]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every 4-set {a,b,c,d} that induces a 4-cycle with diagonals {a,b}, {c,d}.

    The 4-sets are enumerated as a non-adjacent pair plus two of its common
    neighbours; in a triangle-free graph those two are never adjacent.  Each
    square is listed once, with the diagonal holding its smallest vertex first.
    """
    out = []
    n = len(adj)
    for a, b in itertools.combinations(range(n), 2):
        if adj[a] >> b & 1:
            continue
        for c, d in itertools.combinations(bit_list(adj[a] & adj[b]), 2):
            if adj[c] >> d & 1:
                continue
            if a < c:
                out.append(((a, b), (c, d)))
    return out


def cfs_status(adj: list[int]) -> str:
    """"NotCFS", "CFS" or "StronglyCFS", derived from the induced squares.

    The diagonal graph has one node per square diagonal and one edge per
    square; a component has full support when its diagonals, together with
    the cone vertices, cover every vertex.
    """
    n = len(adj)
    full = (1 << n) - 1
    cone = sum(1 << v for v in range(n) if adj[v] == full & ~(1 << v)) if n > 1 else 0
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d1, d2 in induced_squares(adj):
        parent.setdefault(d1, d1)
        parent.setdefault(d2, d2)
        r1, r2 = find(d1), find(d2)
        if r1 != r2:
            parent[r1] = r2
    if not parent:
        return "NotCFS"
    support: dict[tuple[int, int], int] = {}
    for d in parent:
        r = find(d)
        support[r] = support.get(r, 0) | 1 << d[0] | 1 << d[1]
    if not any(s | cone == full for s in support.values()):
        return "NotCFS"
    return "StronglyCFS" if len(support) == 1 else "CFS"


# ------------------------------------------------------------------- cycles


def is_odd_closed_walk(adj: list[int], walk: list[int]) -> bool:
    k = len(walk)
    return k % 2 == 1 and all(adj[walk[i]] >> walk[(i + 1) % k] & 1 for i in range(k))


def is_induced_cycle(adj: list[int], cycle: list[int]) -> bool:
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    mask = sum(1 << v for v in cycle)
    for i, v in enumerate(cycle):
        expected = 1 << cycle[i - 1] | 1 << cycle[(i + 1) % k]
        if adj[v] & mask != expected:
            return False
    return True


def has_2_chord(adj: list[int], cycle: list[int]) -> bool:
    """A path x-m-y between cycle vertices more than two steps apart both ways."""
    k = len(cycle)
    for i, j in itertools.combinations(range(k), 2):
        if min(j - i, k - (j - i)) > 2 and adj[cycle[i]] & adj[cycle[j]]:
            return True
    return False


def is_wheel_rim(adj: list[int], hexagon: list[int]) -> bool:
    """Some hub adjacent to all even positions is adjacent to a hub of the odd ones."""
    evens = sum(1 << v for v in hexagon[0::2])
    odds = sum(1 << v for v in hexagon[1::2])
    hubs_x = [v for v in range(len(adj)) if evens & ~adj[v] == 0]
    hubs_y = [v for v in range(len(adj)) if odds & ~adj[v] == 0]
    return any(adj[x] >> y & 1 for x in hubs_x for y in hubs_y)


def is_forbidden_cycle(adj: list[int], cycle: list[int]) -> str | None:
    """The defect of an induced cycle, or None when it has none."""
    if not is_induced_cycle(adj, cycle):
        return None
    if len(cycle) == 6 and not is_wheel_rim(adj, cycle):
        return "hexagon_not_wheel_rim"
    if len(cycle) > 6 and not has_2_chord(adj, cycle):
        return "long_cycle_without_2_chord"
    return None


def smaller_class(adj: list[int]) -> int | None:
    """Size of the smaller colour class of a connected graph, or None when it
    is not bipartite."""
    color = {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in bit_list(adj[v]):
            if w not in color:
                color[w] = 1 - color[v]
                stack.append(w)
            elif color[w] == color[v]:
                return None
    ones = sum(color.values())
    return min(ones, len(color) - ones)
