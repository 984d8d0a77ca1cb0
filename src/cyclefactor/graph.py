"""Bipartite support graphs of factorizations and their characterization.

A factorization (sigma_1, ..., sigma_{r-1}) of a d-cycle tau is recorded as
the bipartite graph on S + supp(tau) joining the j-th S-vertex to the support
of sigma_j.  In genus 0 these graphs are trees, and membership in the image
is characterized intrinsically: every [d]-vertex must split the tree into
circle arcs whose counterclockwise order matches the increasing order of its
S-neighbors (the CICPP predicate below).  CPP and CICPP read the component
of each point once round tau: CPP counts the changes of component, CICPP
compares the runs of components with the vertex's S-neighbors.

The library's membership gate is ``gate_failure``: a tree whose S-vertices
have degree >= 2 is a factorization graph iff reading each S-vertex's
neighbors clockwise gives cycles that multiply to tau.  Such a tree is the
graph of that reading, and every factorization graph reads clockwise.  CICPP
stays the paper's theorem; ``verify`` checks that it carves out the same set.
``FactorizationGraph`` is a plain record: ``graph_from_json`` checks that
outside data is an S-[d] bipartite graph, the gate proves a graph read from
outside or built by hand, and the arrows build and trust theirs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ._json import fields, integer, integers, pairs
from .factorization import Factorization, FactorizationType, validate
from .perm import (
    Cycle,
    check_cycle,
    clockwise_reading,
    split_circle_product,
    standard_cycle,
)


def default_svertices(d: int, count: int) -> tuple[int, ...]:
    """The default choice S = {d+1, ..., d+count}."""
    return tuple(range(d + 1, d + count + 1))


@dataclass(frozen=True)
class FactorizationGraph:
    """An S-[d] bipartite graph with a reference circle.

    The [d]-side is the support of ``tau`` (the full [1, d] for whole graphs;
    a sub-circle for the subtrees produced by :func:`decompose_at_last`).
    ``svertices`` is a strictly increasing tuple of integers outside [0, d].
    A plain record: the constructor only builds the adjacency of the frozenset
    ``edges``, per S-vertex, with no sort of the whole edge set: each S-vertex
    lists its [d]-neighbors increasing, and each [d]-vertex its S-neighbors
    increasing, as ``has_cicpp`` needs.  ``graph_from_json`` checks outside
    data, and ``gate_failure`` proves a hand-built graph.
    """

    d: int
    svertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    tau: Cycle
    _s_adj: dict = field(init=False, repr=False, compare=False, default=None)
    _v_adj: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        s_adj: dict[int, list[int]] = {s: [] for s in self.svertices}
        for s, v in self.edges:
            s_adj[s].append(v)
        v_adj: dict[int, list[int]] = {v: [] for v in self.tau.elements}
        for s, vs in s_adj.items():  # S in increasing order
            vs.sort()
            for v in vs:
                v_adj[v].append(s)
        object.__setattr__(self, "_s_adj", {s: tuple(vs) for s, vs in s_adj.items()})
        object.__setattr__(self, "_v_adj", {v: tuple(ss) for v, ss in v_adj.items()})

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self._s_adj[s]) for s in self.svertices)

    def neighbors_of_s(self, s: int) -> tuple[int, ...]:
        return self._s_adj[s]

    def neighbors_of_v(self, v: int) -> tuple[int, ...]:
        return self._v_adj[v]

    def _walk(self, start: int, removed: int | None = None) -> dict[int, int]:
        """Parent of every vertex reached from ``start`` (mapped to 0), avoiding ``removed``."""
        parent = {start: 0}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in self._s_adj[x] if x in self._s_adj else self._v_adj[x]:
                if y != removed and y not in parent:
                    parent[y] = x
                    frontier.append(y)
        return parent

    def is_connected(self) -> bool:
        return len(self._walk(self.tau.elements[0])) == len(self.svertices) + self.tau.length

    def is_tree(self) -> bool:
        n_vertices = len(self.svertices) + self.tau.length
        return len(self.edges) == n_vertices - 1 and self.is_connected()

    def components_without(self, removed: int) -> list[tuple[frozenset[int], frozenset[int]]]:
        """(S-vertices, [d]-vertices) of each component after deleting a vertex."""
        comps = []
        seen = {removed}
        for start in sorted(set(self.svertices) | self.tau.support):
            if start in seen:
                continue
            comp = self._walk(start, removed)
            seen.update(comp)
            sset = frozenset(x for x in comp if x in self._s_adj)
            comps.append((sset, frozenset(comp.keys() - sset)))
        return comps


def graph_of(f: Factorization) -> FactorizationGraph:
    """The support graph of a factorization, on S = {d+1, ..., d+r-1}.

    It checks nothing: a factorization is validated where it is read, and the
    gate rejects the graph of factors that do not multiply to tau.  A graph
    on another S is built with ``FactorizationGraph`` directly.
    """
    ambient = f.tau.degree
    svertices = default_svertices(ambient, len(f.sigmas))
    edges = frozenset(
        (s, v) for s, sigma in zip(svertices, f.sigmas) for v in sigma.elements
    )
    return FactorizationGraph(ambient, svertices, edges, f.tau)


def _degree_failure(g: FactorizationGraph) -> str | None:
    """Names the first S-vertex of degree < 2, which neither the gate nor CICPP allows."""
    low = (s for s in g.svertices if len(g.neighbors_of_s(s)) < 2)
    return next((f"S-vertex {s} has degree < 2" for s in low), None)


def has_cpp(g: FactorizationGraph, s_vertex: int) -> bool:
    """Consecutive partition property of an S-vertex.

    True iff deleting the vertex leaves subtrees whose [d]-vertex sets are
    consecutive arcs of the circle of the graph's tau: read round it, the
    component changes once per component (a lone component never changes).
    """
    if s_vertex not in set(g.svertices):
        raise ValueError(f"no S-vertex {s_vertex} in this graph")
    if failure := _degree_failure(g):
        raise ValueError(f"{failure}; predicates undefined")
    comps = g.components_without(s_vertex)
    comp = {x: i for i, (_, dset) in enumerate(comps) for x in dset}
    reading = [comp[x] for x in g.tau.elements]
    changes = sum(a != b for a, b in zip(reading, reading[1:] + reading[:1]))
    return max(changes, 1) == len(comps)


def has_cicpp(g: FactorizationGraph, d_vertex: int) -> bool:
    """Counterclockwise increasing consecutive partition property.

    Reading the circle counterclockwise from the [d]-vertex, the subtrees
    left by deleting it must come in distinct runs (so each is an arc), in
    the increasing order of their attaching S-neighbors.  Distinctness also
    refuses two S-neighbors that share a subtree, as off a tree they can.
    """
    if d_vertex not in g.tau.support:
        raise ValueError(f"no [d]-vertex {d_vertex} in this graph")
    if failure := _degree_failure(g):
        raise ValueError(f"{failure}; predicates undefined")
    comp = {x: i for i, (ss, ds) in enumerate(g.components_without(d_vertex)) for x in ss | ds}
    i = g.tau.elements.index(d_vertex)
    ccw = reversed(g.tau.elements[i + 1 :] + g.tau.elements[:i])
    runs = [c for c, _ in itertools.groupby(comp[x] for x in ccw)]
    return len(set(runs)) == len(runs) and runs == [comp[s] for s in g.neighbors_of_v(d_vertex)]


def _shape_failure(g: FactorizationGraph) -> str | None:
    """Why g is not a tree with every S-vertex of degree >= 2, or None."""
    failure = _degree_failure(g)
    if failure is None and not g.is_tree():
        return "not a tree"
    return failure


def characterization_failure(g: FactorizationGraph) -> str | None:
    """The first reason g is not a factorization graph, or None if it is one.

    The characterization: every S-vertex has degree >= 2, the graph is a
    tree, and every [d]-vertex has CICPP on the graph's own circle.
    """
    failure = _shape_failure(g)
    if failure is not None:
        return failure
    for v in sorted(g.tau.support):
        if not has_cicpp(g, v):
            return f"[d]-vertex {v} lacks CICPP"
    return None


def is_factorization_graph(g: FactorizationGraph) -> bool:
    """Whether g is the support graph of some factorization of its tau."""
    return characterization_failure(g) is None


def gate_failure(g: FactorizationGraph) -> str | None:
    """The membership gate: why g is not a factorization graph, or None.

    On a tree whose S-vertices have degree >= 2, the clockwise reading
    multiplies to tau iff g is a factorization graph (the clockwise-reading
    lemma).  The lone vertex is the graph of the empty factorization of a
    1-cycle.
    """
    failure = _shape_failure(g)
    if failure is None and g.svertices and not validate(factorization_of(g)):
        failure = "the clockwise reading does not multiply to tau"
    return failure


def factorization_of(g: FactorizationGraph) -> Factorization:
    """Recover the factorization: read each S-vertex's neighbors clockwise.

    One walk clockwise round tau hands every [d]-vertex to its S-neighbors,
    so each S-vertex receives its neighbors in circle order.  It trusts g to
    be a factorization graph; ``gate_failure`` proves a graph read from
    outside.
    """
    if not g.svertices:
        raise ValueError(
            "the lone vertex is the graph of the empty factorization, which a Factorization cannot hold"
        )
    readings: dict[int, list[int]] = {s: [] for s in g.svertices}
    v_adj = g._v_adj
    for v in g.tau.elements:
        for s in v_adj[v]:
            readings[s].append(v)
    sigmas = tuple(Cycle(g.tau.degree, tuple(vs)) for vs in readings.values())
    ftype = FactorizationType(g.tau.length, tuple(s.length for s in sigmas))
    return Factorization(ftype, g.tau, sigmas)


@dataclass(frozen=True)
class Decomposition:
    """Result of deleting the largest S-vertex from a factorization graph.

    ``subtrees``, ``gammas`` and ``sizes`` are aligned, multi-vertex pieces
    first (there are ``k`` of them), then the single-vertex pieces, each
    group in clockwise piece order.  ``bsets[i]`` holds the 1-based factor
    indices whose S-vertices lie in ``subtrees[i]``.
    """

    k: int
    subtrees: tuple[FactorizationGraph, ...]
    bsets: tuple[frozenset[int], ...]
    gammas: tuple[Cycle, ...]
    sizes: tuple[int, ...]


def decompose_at_last(g: FactorizationGraph) -> Decomposition:
    """Split a factorization graph along its largest S-vertex into sub-factorization-graphs."""
    svalues = g.svertices
    s_last = svalues[-1]
    sigma_last = clockwise_reading(g.tau, g.neighbors_of_s(s_last))
    pieces = split_circle_product(g.tau, sigma_last.inverse())
    assert isinstance(pieces, list)

    comps = g.components_without(s_last)
    comp_by_dset = {dset: sset for sset, dset in comps}
    ordered = sorted(pieces, key=lambda c: c.length < 2)  # big pieces first, stable
    k = sum(1 for c in ordered if c.length >= 2)

    factor_index = {s: j for j, s in enumerate(svalues, start=1)}
    subtrees = []
    bsets = []
    for gamma_i in ordered:
        sset = comp_by_dset[frozenset(gamma_i.elements)]
        sub_edges = frozenset((s, v) for s in sset for v in g.neighbors_of_s(s))
        subtrees.append(
            FactorizationGraph(g.d, tuple(sorted(sset)), sub_edges, gamma_i)
        )
        bsets.append(frozenset(factor_index[s] for s in sset))

    gammas = tuple(ordered)
    sizes = tuple(c.length for c in gammas)
    return Decomposition(k, tuple(subtrees), tuple(bsets), gammas, sizes)


def enumerate_degree_graphs(d: int, e):
    """Every S-[d] bipartite graph with the prescribed S-degrees, one by one.

    This is the ambient family the characterization predicate carves the
    factorization graphs out of; it is exponential in size and meant for
    exhaustive verification at small d.
    """
    e = tuple(e)
    tau = standard_cycle(d)
    svertices = default_svertices(d, len(e))
    pools = [
        [frozenset(c) for c in itertools.combinations(range(1, d + 1), ej)] for ej in e
    ]
    for supports in itertools.product(*pools):
        edges = frozenset(
            (s, v) for s, supp in zip(svertices, supports) for v in supp
        )
        yield FactorizationGraph(d, svertices, edges, tau)


def graph_to_json(g: FactorizationGraph) -> dict:
    return {
        "d": g.d,
        "S": list(g.svertices),
        "edges": [[s, v] for s, v in sorted(g.edges)],
        "tau": list(g.tau.elements),
    }


def check_svertices(d: int, svertices) -> None:
    """Refuse S-vertices that collide with the root 0 or a [d]-vertex."""
    if any(0 <= s <= d for s in svertices):
        raise ValueError(f"S-vertices must avoid [0, {d}]")


def graph_from_json(data: dict) -> FactorizationGraph:
    """Read any S-[d] bipartite graph; ``gate_failure`` decides membership."""
    d, svertices, edges, tau = fields(data, "d", "S", "edges", "tau")
    d = integer(d, "d")
    svertices = tuple(sorted(integers(svertices, "S")))
    if any(a == b for a, b in zip(svertices, svertices[1:])):
        raise ValueError("S-vertex values must be strictly increasing")
    listed = sorted(pairs(edges, "edges"))
    if repeated := [a for a, b in zip(listed, listed[1:]) if a == b]:
        raise ValueError(f"repeated edge {repeated[0]}")
    tau = check_cycle(d, integers(tau, "tau"))
    check_svertices(d, svertices)
    sset, vset = set(svertices), tau.support
    for s, v in listed:
        if s not in sset or v not in vset:
            raise ValueError(f"edge ({s}, {v}) is not S-to-[d]")
    return FactorizationGraph(d, svertices, frozenset(listed), tau)


def graph_to_dot(g: FactorizationGraph) -> str:
    """DOT text with the [d]-vertices pinned on a circle in tau order."""
    lines = ["graph factorization {", "  layout=neato;"]
    q = g.tau.length
    radius = max(2.0, q / 4.0)
    for i, v in enumerate(g.tau.elements):
        angle = math.radians(90.0 - 360.0 * i / q)
        x, y = radius * math.cos(angle), radius * math.sin(angle)
        lines.append(
            f'  v{v} [shape=point, xlabel="{v}", pos="{x:.4f},{y:.4f}!"];'
        )
    for j, s in enumerate(g.svertices, start=1):
        lines.append(f'  s{j} [shape=circle, label="s{j}"];')
    index_of = {s: j for j, s in enumerate(g.svertices, start=1)}
    for s, v in sorted(g.edges):
        lines.append(f"  s{index_of[s]} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
