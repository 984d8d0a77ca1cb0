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

from .graph import FactorizationGraph, check_svertices
from .perm import standard_cycle
from .trees import LabeledMNR, MultiNodedRootedTree, RootedTree


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
    g to be a factorization graph, as ``graph.gate_failure`` proves.
    """
    if g.tau != standard_cycle(g.d):
        g = standardize_graph(g)[0]

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


def phi(g: FactorizationGraph) -> MultiNodedRootedTree:
    """``phi_labeled`` with the node labels discarded."""
    return phi_labeled(g).mnr


def psi(lm: LabeledMNR) -> FactorizationGraph:
    """Unfold a labeled multi-noded rooted tree into an S-[d] bipartite tree.

    Each S-vertex is joined to the labels of its own nodes and to the label
    of the parent node it hangs from.  Total on labeled trees whose
    S-vertices avoid [0, d]; whether the result is a factorization graph is
    exactly the characterization predicate.
    """
    m = lm.mnr
    d = m.total_nodes
    check_svertices(d, m.tree.svertices)
    edges = set()
    for s in m.tree.svertices:
        for pos in range(1, m.f_of(s) + 1):
            edges.add((s, lm.label_of((s, pos))))
        pvertex = m.tree.parent_of(s)
        edges.add((s, lm.label_of((pvertex, m.beta_of(s)))))
    return FactorizationGraph(d, m.tree.svertices, frozenset(edges), standard_cycle(d))


def _subtree_node_counts(m: MultiNodedRootedTree):
    """The breadth-first vertex order and the node counts of every subtree.

    ``attached[node]`` lists the vertices hanging from a node in increasing
    order.
    """
    children = m.tree.children_of()
    order = [0]  # every vertex after its parent
    for v in order:  # breadth first: the list grows while it is read
        order.extend(children[v])
    vertex_count: dict[int, int] = {}
    for v in reversed(order):
        vertex_count[v] = m.f_of(v) + sum(vertex_count[c] for c in children[v])
    attached: dict[tuple[int, int], list[int]] = {}
    for c in m.tree.svertices:
        node = (m.tree.parent_of(c), m.beta_of(c))
        attached.setdefault(node, []).append(c)
    node_count = {
        node: 1 + sum(vertex_count[c] for c in attached.get(node, ()))
        for node in m.nodes()
    }
    return order, vertex_count, node_count, attached


def unique_labeling(m: MultiNodedRootedTree) -> tuple[LabeledMNR, LabelRanges]:
    """The unique node labeling whose unfolding is a factorization graph.

    Works down from the root: a vertex's interval is split across its nodes
    by subtree node counts; around each node, the attached vertices with
    values smaller than its vertex's stack below the node's label (nearest
    first) and the others stack above it (largest nearest).  The root 0
    sorts below every S-vertex, so all vertices attached to it stack above.
    A vertex's labels depend only on the interval its parent gives it, so
    any top-down order works.
    """
    if m.vertex_data[0] != 1:
        raise ValueError("the root must be single-noded for the labeling to exist")
    d = m.total_nodes
    order, vertex_count, node_count, attached = _subtree_node_counts(m)

    vertex_ranges: dict[int, tuple[int, int]] = {0: (1, d)}
    node_ranges: dict[tuple[int, int], tuple[int, int]] = {}
    labels: dict[tuple[int, int], int] = {}

    for vertex in order:
        start = vertex_ranges[vertex][0]
        for pos in range(1, m.f_of(vertex) + 1):
            node = (vertex, pos)
            node_ranges[node] = (start, start + node_count[node] - 1)
            kids = attached.get(node, ())
            below = [c for c in kids if vertex and c < vertex]
            above = [c for c in kids if not vertex or c > vertex]
            label = start + sum(vertex_count[c] for c in below)
            labels[node] = label
            lo = label
            for c in below:  # packs [.., label-1] downward in value order
                vertex_ranges[c] = (lo - vertex_count[c], lo - 1)
                lo -= vertex_count[c]
            hi = label
            for c in reversed(above):  # packs [label+1, ..] upward
                vertex_ranges[c] = (hi + 1, hi + vertex_count[c])
                hi += vertex_count[c]
            start += node_count[node]

    lm = LabeledMNR(m, tuple(labels.items()))
    return lm, LabelRanges(node_ranges, vertex_ranges)


def standardize_graph(g: FactorizationGraph) -> tuple[FactorizationGraph, dict[int, int]]:
    """Relabel the [d]-side so the base cycle becomes (1 2 ... m), m its length."""
    m = g.tau.length
    relabel = {x: i + 1 for i, x in enumerate(g.tau.elements)}
    edges = frozenset((s, relabel[v]) for s, v in g.edges)
    return (
        FactorizationGraph(m, g.svertices, edges, standard_cycle(m)),
        relabel,
    )
