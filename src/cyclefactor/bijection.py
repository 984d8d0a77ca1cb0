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

from .graph import FactorizationGraph, SVertexSet, factorization_of
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
    children in increasing order, attached to its parent's node.
    """
    # the membership gate; a lone vertex is the graph of the empty
    # factorization of a 1-cycle, which Factorization cannot hold
    if g.svertices or g.tau.length != 1:
        factorization_of(g)
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


def _subtree_node_counts(m: MultiNodedRootedTree):
    """Node counts of every vertex- and node-rooted subtree."""
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


def standardize_graph(g: FactorizationGraph) -> tuple[FactorizationGraph, dict[int, int]]:
    """Relabel the [d]-side so the base cycle becomes (1 2 ... m), m its length."""
    m = g.tau.length
    relabel = {x: i + 1 for i, x in enumerate(g.tau.elements)}
    edges = frozenset((s, relabel[v]) for s, v in g.edges)
    return (
        FactorizationGraph(m, g.svertices, edges, standard_cycle(m)),
        relabel,
    )
