"""Conversions between factorization graphs and labeled multi-noded trees.

``phi_labeled`` roots a factorization graph at the [d]-vertex 1 and folds
each factor vertex into a multi-noded vertex whose nodes carry its children;
``psi`` unfolds back.  For an unlabeled multi-noded rooted tree there is a
unique node labeling whose unfolding is a factorization graph, and
``unique_labeling`` computes it as the order of one walk over the nodes.

The maps run on the base cycle (1 2 ... d); every other d-cycle is a
conjugate of it.  ``convert`` carries a graph or factorization on another
circle onto (1 2 ... m) where it reads it, by ``perm.positions``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .graph import FactorizationGraph
from .perm import standard_cycle
from .trees import LabeledMNR, MultiNodedRootedTree, RootedTree


_VERTEX, _NODE, _LABEL, _CLOSE = "vertex", "node", "label", "close"  # unique_labeling's walk


@dataclass
class LabelRanges:
    """The label interval of every node- and vertex-rooted subtree."""

    node_ranges: dict[tuple[int, int], tuple[int, int]]
    vertex_ranges: dict[int, tuple[int, int]]


def phi_labeled(g: FactorizationGraph) -> LabeledMNR:
    """Fold a factorization graph into a labeled multi-noded rooted tree.

    The root is a single-noded vertex 0 holding the node labeled 1; the j-th
    factor vertex becomes an (e_j - 1)-noded vertex whose nodes carry its
    children in increasing order, attached to its parent's node.  It trusts
    g to be a factorization graph, as ``graph.gate_failure`` proves, whose
    tau is (1 2 ... d), as ``psi`` returns it and ``convert`` provides it.
    """
    parent = g._walk(1)  # rooted at the [d]-vertex 1
    svalues = g.svertices
    owner = {1: (0, 1)}  # [d]-value -> (vertex, position) of the node holding it
    vertex_data = [1]
    for s in svalues:  # the adjacency lists each S-vertex's children increasing
        kids = [v for v in g.neighbors_of_s(s) if v != parent[s]]
        vertex_data.append(len(kids))
        for pos, v in enumerate(kids, start=1):
            owner[v] = (s, pos)
    homes = [owner[parent[s]] for s in svalues]  # the parent node of each S-vertex
    tree = RootedTree(svalues, tuple((s, w) for s, (w, _) in zip(svalues, homes)))
    mnr = MultiNodedRootedTree(tree, tuple(vertex_data), tuple((s, b) for s, (_, b) in zip(svalues, homes)))
    return LabeledMNR(mnr, tuple((node, v) for v, node in owner.items()))


def psi(lm: LabeledMNR) -> FactorizationGraph:
    """Unfold a labeled multi-noded rooted tree into an S-[d] bipartite tree.

    Each S-vertex is joined to the labels of its own nodes and to the label
    of the parent node it hangs from.  It trusts the S-vertices to avoid
    [0, d], as the tree reader of ``convert`` proves; whether the result is a
    factorization graph is exactly the characterization predicate.
    """
    m = lm.mnr
    d = m.total_nodes
    label_of, parent_of, beta_of = lm.label_of, m.tree.parent_of, m.beta_of
    edges = [(v, x) for (v, _), x in lm.labels if v]  # each S-vertex to its own nodes, the root 0 left out
    edges.extend([(s, label_of((parent_of(s), beta_of(s)))) for s in m.tree.svertices])
    return FactorizationGraph(m.tree.svertices, frozenset(edges), standard_cycle(d))


def unique_labeling(m: MultiNodedRootedTree) -> tuple[LabeledMNR, LabelRanges]:
    """The unique node labeling whose unfolding is a factorization graph.

    The labels number the nodes in the order of one walk: a vertex's nodes
    left to right, and around each node first the vertices attached to it
    whose values are below its vertex's value, largest first, then the node
    itself, then the attached vertices above that value, largest first.  The
    root 0 sorts below every S-vertex, so every vertex attached to it comes
    after its node.  The walk closes each vertex- and node-rooted subtree on
    an interval of labels, returned as ``LabelRanges``.
    """
    if m.vertex_data[0] != 1:
        raise ValueError("the root must be single-noded for the labeling to exist")
    parent_of = m.tree.parent_of
    attached: dict[tuple[int, int], list[int]] = {}
    for c, b in m.beta:  # sorted by child, so every list increases
        attached.setdefault((parent_of(c), b), []).append(c)

    labels: dict[tuple[int, int], int] = {}
    ranges = LabelRanges({}, {})
    last = 0  # the last label given
    stack: list = [(_VERTEX, 0)]
    while stack:
        kind, item = stack.pop()
        if kind is _LABEL:
            last += 1
            labels[item] = last
        elif kind is _CLOSE:
            spans, key, first = item
            spans[key] = (first, last)
        elif kind is _VERTEX:  # its nodes, left to right
            stack.append((_CLOSE, (ranges.vertex_ranges, item, last + 1)))
            stack.extend([(_NODE, (item, pos)) for pos in range(m.f_of(item), 0, -1)])
        else:  # a node: the vertices below its vertex's value, itself, those above
            kids = attached.get(item)
            if not kids:  # a leaf node: its label is its whole range
                last += 1
                labels[item] = last
                ranges.node_ranges[item] = (last, last)
                continue
            split = bisect_left(kids, item[0]) if item[0] else 0
            stack.append((_CLOSE, (ranges.node_ranges, item, last + 1)))
            stack.extend([(_VERTEX, c) for c in kids[split:]])  # popped largest first
            stack.append((_LABEL, item))
            stack.extend([(_VERTEX, c) for c in kids[:split]])
    return LabeledMNR(m, tuple((node, labels[node]) for node in m.nodes())), ranges
