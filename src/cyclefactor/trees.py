"""Rooted trees, multi-noded rooted trees, and their Prufer-style codecs.

A multi-noded rooted tree is a rooted tree on S + {0} together with an edge
function beta that picks, for every edge, one of the f_i ordered nodes of the
edge's parent vertex.  The classic Prufer sequence extends to a 2xn matrix
codec for these objects, which is the enumeration backbone of this package.

Nodes inside a multi-noded vertex are addressed as (vertex, position) with
positions 1..f_i running left to right.

The tree records are plain records whose constructors check nothing: the
``*_from_json`` readers prove outside data with ``check_tree``, ``check_mnr``
and ``check_labeled``, which also prove a tree built by hand.  So is a codec
matrix: ``matrix_from_json`` proves its rows, ``mnr_decode`` the tree they code.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ._json import array, fields, integer, integers, mapping, pairs


class TrivialTreeError(ValueError):
    """Raised when a codec is applied to the single-vertex tree."""


@dataclass(frozen=True)
class RootedTree:
    """A tree on S + {0} rooted at 0, stored as a child -> parent map.

    ``parents`` holds one (child, parent) pair per non-root vertex, sorted by
    child.
    """

    svertices: tuple[int, ...]
    parents: tuple[tuple[int, int], ...]
    _pmap: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(sorted(self.parents)))
        object.__setattr__(self, "_pmap", dict(self.parents))

    @property
    def n(self) -> int:
        return len(self.svertices)

    def parent_of(self, v: int) -> int:
        return self._pmap[v]

    def children_of(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = {0: []}
        for s in self.svertices:
            children[s] = []
        for c, p in self.parents:
            children[p].append(c)
        return children


def check_tree(tree: RootedTree) -> RootedTree:
    """The tree, once its parent map is proved a tree on S + {0} rooted at 0."""
    svertices = tree.svertices
    if 0 in svertices:
        raise ValueError("0 is reserved for the root")
    if any(a >= b for a, b in zip(svertices, svertices[1:])):
        raise ValueError("vertex set must be strictly increasing")
    if [c for c, _ in tree.parents] != list(svertices):
        raise ValueError("parent map must cover every non-root vertex once")
    sset = set(svertices)
    for c, p in tree.parents:
        if p != 0 and p not in sset:
            raise ValueError(f"unknown parent {p}")
    # each vertex has one parent, so one walk from the root meets it at
    # most once, and misses exactly the vertices on or below a cycle
    children = tree.children_of()
    reached = [0]
    for v in reached:  # breadth first: the list grows while it is read
        reached.extend(children[v])
    if len(reached) <= len(svertices):
        v = min(sset - set(reached))
        raise ValueError(f"vertex {v} is not reached from the root: it lies on or below a cycle")
    return tree


def _deletion_steps(tree: RootedTree) -> list[tuple[int, int]]:
    """(leaf, parent) pairs in largest-leaf deletion order; the root stays."""
    if tree.n == 0:
        raise TrivialTreeError("the trivial tree has no codec")
    child_count = {v: len(kids) for v, kids in tree.children_of().items()}
    heap = [-s for s in tree.svertices if not child_count[s]]  # negated leaves
    heapq.heapify(heap)
    steps = []
    while heap:
        v = -heapq.heappop(heap)
        w = tree.parent_of(v)
        steps.append((v, w))
        child_count[w] -= 1
        if w != 0 and not child_count[w]:
            heapq.heappush(heap, -w)
    return steps


def prufer_encode(tree: RootedTree) -> tuple[int, ...]:
    """The Prufer sequence of a rooted tree: parents of deleted largest leaves.

    The sequence has length |S| and always ends in the root 0.
    """
    return tuple(w for _, w in _deletion_steps(tree))


def _decode_steps(seq, svertices) -> list[tuple[int, int]]:
    seq = tuple(seq)
    svertices = tuple(sorted(svertices))
    n = len(svertices)
    if n == 0:
        raise TrivialTreeError("the trivial tree has no codec")
    if len(seq) != n:
        raise ValueError(f"sequence length {len(seq)} != |S| = {n}")
    if seq[-1] != 0:
        raise ValueError("sequence must end in the root 0")
    allowed = set(svertices) | {0}
    if len(allowed) != n + 1:  # S repeats a value or holds 0
        raise ValueError(f"S must hold distinct nonzero values, got {list(svertices)}")
    if any(w not in allowed for w in seq):
        raise ValueError("sequence entries must lie in S + {0}")
    # remaining[x]: how often x still occurs in the sequence; x is a leaf at 0
    remaining = dict.fromkeys(allowed, 0)
    for w in seq:
        remaining[w] += 1
    heap = [-s for s in svertices if not remaining[s]]  # negated leaves
    heapq.heapify(heap)
    steps = []
    for w in seq:
        steps.append((-heapq.heappop(heap), w))
        remaining[w] -= 1
        if w != 0 and not remaining[w]:
            heapq.heappush(heap, -w)
    return steps


def prufer_decode(seq, svertices) -> RootedTree:
    """Invert ``prufer_encode``; the sequence must end in 0 and have length |S|."""
    return RootedTree(tuple(sorted(svertices)), tuple(_decode_steps(seq, svertices)))


@dataclass(frozen=True)
class MultiNodedRootedTree:
    """A rooted tree plus vertex data and a node-selecting edge function.

    ``vertex_data[0]`` is the node count of the root; ``vertex_data[i]`` that
    of the i-th smallest S-vertex.  ``beta`` stores one (child, b) pair per
    edge, keyed by the child end; b selects a node of the parent end.
    """

    tree: RootedTree
    vertex_data: tuple[int, ...]
    beta: tuple[tuple[int, int], ...]
    _fmap: dict = field(init=False, repr=False, compare=False, default=None)
    _bmap: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(sorted(self.beta)))
        object.__setattr__(self, "_fmap", dict(zip((0,) + self.tree.svertices, self.vertex_data)))
        object.__setattr__(self, "_bmap", dict(self.beta))

    def f_of(self, vertex: int) -> int:
        return self._fmap[vertex]

    def beta_of(self, child: int) -> int:
        return self._bmap[child]

    @property
    def total_nodes(self) -> int:
        return sum(self.vertex_data)

    def nodes(self) -> list[tuple[int, int]]:
        """All (vertex, position) node addresses, root first."""
        verts = (0,) + self.tree.svertices
        return [(v, p) for v, f in zip(verts, self.vertex_data) for p in range(1, f + 1)]


def check_mnr(m: MultiNodedRootedTree) -> MultiNodedRootedTree:
    """The tree, once its vertex data and beta (keyed by its children) fit its proved tree."""
    if len(m.vertex_data) != m.tree.n + 1:
        raise ValueError("vertex data must list the root and every S-vertex")
    if any(f < 1 for f in m.vertex_data):
        raise ValueError("node counts must be positive")
    for c, b in m.beta:
        cap = m.f_of(m.tree.parent_of(c))
        if not 1 <= b <= cap:
            raise ValueError(f"beta({c}) = {b} exceeds the parent's {cap} nodes")
    return m


@dataclass(frozen=True)
class LabeledMNR:
    """A multi-noded rooted tree whose nodes are bijectively labeled by [d]."""

    mnr: MultiNodedRootedTree
    labels: tuple[tuple[tuple[int, int], int], ...]
    _lmap: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))
        object.__setattr__(self, "_lmap", dict(self.labels))

    def label_of(self, node: tuple[int, int]) -> int:
        return self._lmap[node]


def check_labeled(lm: LabeledMNR) -> LabeledMNR:
    """The labeled tree, once its labels are proved a bijection from its nodes onto [1, d]."""
    if [node for node, _ in lm.labels] != sorted(lm.mnr.nodes()):
        raise ValueError("labels must cover every node exactly once")
    d = lm.mnr.total_nodes
    if sorted(x for _, x in lm.labels) != list(range(1, d + 1)):
        raise ValueError(f"labels must be a bijection onto [1, {d}]")
    return lm


@dataclass(frozen=True)
class PruferMatrix:
    """The 2xn codec image of a multi-noded rooted tree, parents over beta values; a plain record."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]


def mnr_encode(m: MultiNodedRootedTree) -> PruferMatrix:
    """Encode: Prufer sequence on top, beta of each deleted edge below."""
    steps = _deletion_steps(m.tree)
    return PruferMatrix(
        top=tuple(w for _, w in steps),
        bottom=tuple(m.beta_of(v) for v, _ in steps),
    )


def mnr_decode(h: PruferMatrix, svertices, vertex_data) -> MultiNodedRootedTree:
    """Invert ``mnr_encode`` for the given S, increasing, and vertex data in S's order."""
    svertices = tuple(svertices)
    vertex_data = tuple(vertex_data)
    if len(vertex_data) != len(svertices) + 1:
        raise ValueError("vertex data must list the root and every S-vertex")
    steps = _decode_steps(h.top, svertices)
    if any(a >= b for a, b in zip(svertices, svertices[1:])):
        raise ValueError(f"S must be strictly increasing, since vertex_data follows its order, got {list(svertices)}")
    if len(h.bottom) != len(h.top):
        raise ValueError("matrix rows must be nonempty and of equal length")
    beta = tuple((v, b) for (v, _), b in zip(steps, h.bottom))
    if any(f < 1 for f in vertex_data):
        raise ValueError("node counts must be positive")
    m = MultiNodedRootedTree(RootedTree(svertices, tuple(steps)), vertex_data, beta)
    for (v, w), b in zip(steps, h.bottom):
        if not 1 <= b <= m.f_of(w):
            raise ValueError(f"bottom entry {b} exceeds the {m.f_of(w)} nodes of vertex {w}")
    return m


def mnr_cardinality(vertex_data) -> int:
    """(sum of node counts)^(n-1) * f_0 for n >= 1 S-vertices."""
    vertex_data = tuple(vertex_data)
    n = len(vertex_data) - 1
    if n < 1:
        raise ValueError("need at least one non-root vertex")
    if any(f < 1 for f in vertex_data):
        raise ValueError("node counts must be positive")
    return sum(vertex_data) ** (n - 1) * vertex_data[0]


def enumerate_mnr(svertices, vertex_data):
    """Every multi-noded rooted tree for the given S, increasing, and vertex data, once each.

    Streams in lexicographic order of the codec matrix columns, a column
    being the pair (parent entry, beta entry).
    """
    svertices = tuple(svertices)
    vertex_data = tuple(vertex_data)
    n = len(svertices)
    if len(vertex_data) != n + 1:
        raise ValueError("vertex data must list the root and every S-vertex")
    mnr_cardinality(vertex_data)  # at least one non-root vertex, positive counts
    alphabet = sorted(
        (w, b)
        for w, f in zip((0,) + svertices, vertex_data)
        for b in range(1, f + 1)
    )
    last = [(0, b) for b in range(1, vertex_data[0] + 1)]
    for prefix in itertools.product(alphabet, repeat=n - 1):
        for end in last:
            cols = prefix + (end,)
            h = PruferMatrix(tuple(w for w, _ in cols), tuple(b for _, b in cols))
            yield mnr_decode(h, svertices, vertex_data)


def tree_to_json(tree: RootedTree) -> dict:
    return {
        "S": list(tree.svertices),
        "edges": [[p, c] for c, p in tree.parents],
    }


def tree_from_json(data: dict) -> RootedTree:
    svertices, edges = fields(data, "S", "edges")
    svertices = tuple(sorted(integers(svertices, "S")))
    return check_tree(RootedTree(svertices, tuple((c, p) for p, c in pairs(edges, "edges"))))


def mnr_to_json(m: MultiNodedRootedTree) -> dict:
    edges = sorted(((m.tree.parent_of(c), c) for c in m.tree.svertices))
    return {
        "S": list(m.tree.svertices),
        "vertex_data": list(m.vertex_data),
        "edges": [{"parent": p, "child": c, "beta": m.beta_of(c)} for p, c in edges],
    }


def mnr_from_json(data: dict) -> MultiNodedRootedTree:
    svertices, vertex_data, edges = fields(data, "S", "vertex_data", "edges")
    svertices = tuple(sorted(integers(svertices, "S")))
    parents, beta = [], []
    for edge in array(edges, "edges"):
        if not isinstance(edge, dict) or not {"parent", "child", "beta"} <= edge.keys():
            raise ValueError(f"edges must hold objects with parent, child and beta, got {edge!r}")
        p, c, b = (integer(edge[k], "edges") for k in ("parent", "child", "beta"))
        parents.append((c, p))
        beta.append((c, b))
    tree = check_tree(RootedTree(svertices, tuple(parents)))
    return check_mnr(MultiNodedRootedTree(tree, integers(vertex_data, "vertex_data"), tuple(beta)))


def labeled_mnr_to_json(lm: LabeledMNR) -> dict:
    data = mnr_to_json(lm.mnr)
    data["labels"] = {f"({v},{p})": x for (v, p), x in lm.labels}
    return data


def labeled_mnr_from_json(data: dict) -> LabeledMNR:
    return labels_from_json(mnr_from_json(data), data)


def labels_from_json(m: MultiNodedRootedTree, data: dict) -> LabeledMNR:
    """The tree ``m``, already read from ``data``, labeled by the data's labels."""
    (labels_in,) = fields(data, "labels")
    labels = []
    for key, x in mapping(labels_in, "labels").items():
        try:
            v, p = (int(t) for t in key.strip("()").split(","))
        except ValueError:
            raise ValueError(f'labels keys must read "(vertex,position)", got {key!r}') from None
        labels.append(((v, p), integer(x, "labels")))
    return check_labeled(LabeledMNR(m, tuple(labels)))


def matrix_to_json(h: PruferMatrix, svertices, vertex_data) -> dict:
    return {
        "S": list(svertices),
        "vertex_data": list(vertex_data),
        "top": list(h.top),
        "bottom": list(h.bottom),
    }


def matrix_from_json(data: dict) -> tuple[PruferMatrix, tuple[int, ...], tuple[int, ...]]:
    top, bottom, svertices, vertex_data = fields(data, "top", "bottom", "S", "vertex_data")
    top, bottom = integers(top, "top"), integers(bottom, "bottom")
    if len(top) != len(bottom) or not top:
        raise ValueError("matrix rows must be nonempty and of equal length")
    if top[-1] != 0:
        raise ValueError("last top entry must be the root 0")
    if any(b < 1 for b in bottom):
        raise ValueError("bottom entries must be positive")
    return PruferMatrix(top, bottom), integers(svertices, "S"), integers(vertex_data, "vertex_data")


def mnr_to_dot(m: MultiNodedRootedTree, labels: dict | None = None) -> str:
    """DOT text for the multi-noded representation: ported boxes, top down.

    ``labels`` optionally maps (vertex, position) to a node label to display
    inside the ports.
    """
    lines = ["graph mnr {", "  rankdir=TB;", '  node [shape=record];']
    verts = (0,) + m.tree.svertices
    for v, f in zip(verts, m.vertex_data):
        cells = []
        for p in range(1, f + 1):
            text = str(labels[(v, p)]) if labels else ""
            cells.append(f"<p{p}> {text}")
        name = "root" if v == 0 else f"s{v}"
        lines.append(f'  {name} [label="{{{name}|{{{"|".join(cells)}}}}}"];')
    for c in m.tree.svertices:
        parent = m.tree.parent_of(c)
        pname = "root" if parent == 0 else f"s{parent}"
        lines.append(f"  {pname}:p{m.beta_of(c)} -- s{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
