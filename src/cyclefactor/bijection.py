"""Conversions between factorization graphs and labeled multi-noded trees.

``phi_labeled`` roots a factorization graph at the [d]-vertex 1 and folds
each factor vertex into a multi-noded vertex whose nodes carry its children;
``psi`` unfolds back.  For an unlabeled multi-noded rooted tree there is a
unique node labeling whose unfolding is a factorization graph, and
``unique_labeling`` computes it level by level from subtree node counts.

The core maps assume the base cycle is (1 2 ... d).  Graphs over another
base cycle are relabeled on the way in (see ``standardize``); the value map
is recoverable from the original cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    FactorizationGraph,
    SVertexSet,
    characterization_failure,
)
from .perm import standard_cycle
from .trees import LabeledMNR, MultiNodedRootedTree, RootedTree


@dataclass
class LabelRanges:
    """Witness intervals: labels of every node- and vertex-rooted subtree."""

    node_ranges: dict[tuple[int, int], tuple[int, int]]
    vertex_ranges: dict[int, tuple[int, int]]


def phi_labeled(g: FactorizationGraph) -> LabeledMNR:
    """Fold a factorization graph into a labeled multi-noded rooted tree.

    The root is a single-noded vertex 0 holding the node labeled 1; the j-th
    factor vertex becomes an (e_j - 1)-noded vertex whose nodes carry its
    children in increasing order, attached to its parent's node.
    """
    failure = characterization_failure(g)
    if failure is not None:
        raise ValueError(f"not a factorization graph: {failure}")
    if g.tau != standard_cycle(g.d):
        g = standardize_graph(g)[0]

    parent = g._walk(1)  # rooted at the [d]-vertex 1
    svalues = tuple(g.svertices)

    children: dict[int, tuple[int, ...]] = {}
    for s in svalues:
        nbrs = g.neighbors_of_s(s)
        kids = tuple(sorted(v for v in nbrs if v != parent[s]))
        children[s] = kids

    owner = {1: (0, 1)}  # [d]-value -> (vertex, position) of the node holding it
    for s in svalues:
        for pos, v in enumerate(children[s], start=1):
            owner[v] = (s, pos)

    tree_parents = []
    beta = []
    for s in svalues:
        pvertex, ppos = owner[parent[s]]
        tree_parents.append((s, pvertex))
        beta.append((s, ppos))

    vertex_data = (1,) + tuple(len(children[s]) for s in svalues)
    tree = RootedTree(svalues, tuple(tree_parents))
    mnr = MultiNodedRootedTree(tree, vertex_data, tuple(beta))
    labels = tuple((node, v) for v, node in owner.items())
    return LabeledMNR(mnr, labels)


def phi(g: FactorizationGraph) -> MultiNodedRootedTree:
    """``phi_labeled`` with the node labels discarded."""
    return phi_labeled(g).mnr


def psi(lm: LabeledMNR) -> FactorizationGraph:
    """Unfold a labeled multi-noded rooted tree into an S-[d] bipartite tree.

    Each S-vertex is joined to the labels of its own nodes and to the label
    of the parent node it hangs from.  Total on labeled trees; whether the
    result is a factorization graph is exactly the characterization
    predicate.
    """
    m = lm.mnr
    d = m.total_nodes
    edges = set()
    for s in m.tree.svertices:
        for pos in range(1, m.f_of(s) + 1):
            edges.add((s, lm.label_of((s, pos))))
        pvertex = m.tree.parent_of(s)
        edges.add((s, lm.label_of((pvertex, m.beta_of(s)))))
    return FactorizationGraph(
        d, SVertexSet(m.tree.svertices), frozenset(edges), standard_cycle(d)
    )


def _top_down(children: dict[int, list[int]]) -> list[int]:
    """The root 0 and every S-vertex reachable from it, each after its parent."""
    order = [0]
    for v in order:  # breadth first: the list grows while it is read
        order.extend(children[v])
    return order


def _subtree_node_counts(m: MultiNodedRootedTree):
    """Node counts of every vertex- and node-rooted subtree."""
    children = m.tree.children_of()
    vertex_count: dict[int, int] = {}
    for v in reversed(_top_down(children)):
        vertex_count[v] = m.f_of(v) + sum(vertex_count[c] for c in children[v])
    attached: dict[tuple[int, int], list[int]] = {}
    for c in m.tree.svertices:
        node = (m.tree.parent_of(c), m.beta_of(c))
        attached.setdefault(node, []).append(c)
    node_count = {
        node: 1 + sum(vertex_count[c] for c in attached.get(node, ()))
        for node in m.nodes()
    }
    return vertex_count, node_count, attached


def unique_labeling(m: MultiNodedRootedTree) -> tuple[LabeledMNR, LabelRanges]:
    """The unique node labeling whose unfolding is a factorization graph.

    Works down the levels: a vertex's interval is split across its nodes by
    subtree node counts; around each node, the attached vertices with
    smaller values stack below the node's label (nearest first) and the
    others stack above it (largest nearest).
    """
    if m.vertex_data[0] != 1:
        raise ValueError("the root must be single-noded for the labeling to exist")
    d = m.total_nodes
    vertex_count, node_count, attached = _subtree_node_counts(m)

    vertex_ranges: dict[int, tuple[int, int]] = {0: (1, d)}
    node_ranges: dict[tuple[int, int], tuple[int, int]] = {}
    labels: dict[tuple[int, int], int] = {}

    children = m.tree.children_of()
    level = [0]
    while level:
        next_level: list[int] = []
        for vertex in sorted(level):
            alpha, beta = vertex_ranges[vertex]
            start = alpha
            for pos in range(1, m.f_of(vertex) + 1):
                node = (vertex, pos)
                node_ranges[node] = (start, start + node_count[node] - 1)
                start += node_count[node]
            if start != beta + 1:
                raise RuntimeError("node counts do not tile the vertex interval")
            for pos in range(1, m.f_of(vertex) + 1):
                node = (vertex, pos)
                a, _ = node_ranges[node]
                kids = sorted(attached.get(node, ()))
                below = [c for c in kids if c < vertex]
                above = [c for c in kids if c > vertex]
                label = a + sum(vertex_count[c] for c in below)
                labels[node] = label
                lo = label
                for c in below:  # packs [.., label-1] downward in value order
                    vertex_ranges[c] = (lo - vertex_count[c], lo - 1)
                    lo -= vertex_count[c]
                hi = label
                for c in reversed(above):  # packs [label+1, ..] upward
                    vertex_ranges[c] = (hi + 1, hi + vertex_count[c])
                    hi += vertex_count[c]
                next_level.extend(kids)
        level = next_level

    lm = LabeledMNR(m, tuple(labels.items()))
    return lm, LabelRanges(node_ranges, vertex_ranges)


def check_label_ranges(lm: LabeledMNR) -> tuple[bool, LabelRanges | None]:
    """Decide whether a labeling unfolds to a factorization graph.

    True iff every node- and vertex-rooted subtree carries an interval of
    labels and the intervals tile each other in the required order: a
    vertex's node intervals run left to right, and around each node the
    attached vertices with smaller values stack below the node's label
    (nearest first), the others above it (largest nearest).  Returns the
    witness intervals when they exist.  A multi-noded root never passes:
    its unfolding has too few edges to be a tree.
    """
    m = lm.mnr
    if m.vertex_data[0] != 1:
        return False, None
    children = m.tree.children_of()
    vertex_count, node_count, attached = _subtree_node_counts(m)

    # The labels are a bijection onto [d], so a subtree's labels form an
    # interval iff their span is exactly as wide as its node count.
    low: dict[int, int] = {}
    high: dict[int, int] = {}
    for v in reversed(_top_down(children)):
        labs = [lm.label_of((v, pos)) for pos in range(1, m.f_of(v) + 1)]
        low[v] = min(labs + [low[c] for c in children[v]])
        high[v] = max(labs + [high[c] for c in children[v]])

    vertex_ranges = {}
    for v, count in vertex_count.items():
        if high[v] - low[v] + 1 != count:
            return False, None
        vertex_ranges[v] = (low[v], high[v])
    node_ranges = {}
    for node in m.nodes():
        kids = attached.get(node, ())
        label = lm.label_of(node)
        lo = min([label] + [low[c] for c in kids])
        hi = max([label] + [high[c] for c in kids])
        if hi - lo + 1 != node_count[node]:
            return False, None
        node_ranges[node] = (lo, hi)

    verts = (0,) + m.tree.svertices
    for vertex in verts:
        # node intervals tile the vertex interval left to right
        alpha, beta = vertex_ranges[vertex]
        cursor = alpha
        for pos in range(1, m.f_of(vertex) + 1):
            a, b = node_ranges[(vertex, pos)]
            if a != cursor:
                return False, None
            cursor = b + 1
        if cursor != beta + 1:
            return False, None
        # around each node: smaller-valued vertices below, larger above
        for pos in range(1, m.f_of(vertex) + 1):
            node = (vertex, pos)
            a, b = node_ranges[node]
            label = lm.label_of(node)
            kids = sorted(attached.get(node, ()))
            below = [c for c in kids if c < vertex]
            above = [c for c in kids if c > vertex]
            cursor = a
            for c in reversed(below):
                ca, cb = vertex_ranges[c]
                if ca != cursor:
                    return False, None
                cursor = cb + 1
            if cursor != label:
                return False, None
            cursor = label + 1
            for c in reversed(above):
                ca, cb = vertex_ranges[c]
                if ca != cursor:
                    return False, None
                cursor = cb + 1
            if cursor != b + 1:
                return False, None

    return True, LabelRanges(node_ranges, vertex_ranges)


def standardize_graph(g: FactorizationGraph) -> tuple[FactorizationGraph, dict[int, int]]:
    """Relabel the [d]-side so the base cycle becomes (1 2 ... m), m its length."""
    m = g.tau.length
    relabel = {x: i + 1 for i, x in enumerate(g.tau.elements)}
    edges = frozenset((s, relabel[v]) for s, v in g.edges)
    return (
        FactorizationGraph(m, g.svertices, edges, standard_cycle(m)),
        relabel,
    )
