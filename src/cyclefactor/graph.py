"""Bipartite support graphs of factorizations and their characterization.

A factorization (sigma_1, ..., sigma_{r-1}) of a d-cycle tau is recorded as
the bipartite graph on S + supp(tau) joining the j-th S-vertex to the support
of sigma_j.  In genus 0 these graphs are trees, and membership in the image
is characterized intrinsically: every [d]-vertex must split the tree into
circle arcs whose counterclockwise order matches the increasing order of its
S-neighbors (the CICPP predicate below).

The library's membership gate is ``factorization_of``: a tree whose S-vertices
have degree >= 2 is a factorization graph iff reading each S-vertex's
neighbors clockwise gives cycles that multiply to tau.  Such a tree is the
graph of that reading, and every factorization graph reads clockwise.  CICPP
stays the paper's theorem; ``verify`` checks that it carves out the same set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ._json import fields, integer, integers, pairs
from .factorization import Factorization, FactorizationType, validate
from .perm import (
    Cycle,
    CircleOrder,
    split_circle_product,
    standard_cycle,
)


@dataclass(frozen=True)
class SVertexSet:
    """Strictly increasing vertex names for the factor side of the graph."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("S-vertex values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def default_svertices(d: int, count: int) -> SVertexSet:
    """The default choice S = {d+1, ..., d+count}."""
    return SVertexSet(tuple(range(d + 1, d + count + 1)))


@dataclass(frozen=True)
class FactorizationGraph:
    """An S-[d] bipartite graph with a reference circle.

    The [d]-side is the support of ``tau`` (the full [1, d] for whole graphs;
    a sub-circle for the subtrees produced by :func:`decompose_at_last`).
    """

    d: int
    svertices: SVertexSet
    edges: frozenset[tuple[int, int]]
    tau: Cycle
    _s_adj: dict = field(init=False, repr=False, compare=False, default=None)
    _v_adj: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.tau.degree != self.d:
            raise ValueError("tau must live in degree d")
        if any(0 <= s <= self.d for s in self.svertices):
            raise ValueError(f"S-vertices must avoid [0, {self.d}]")
        edges = frozenset((int(s), int(v)) for s, v in self.edges)
        object.__setattr__(self, "edges", edges)
        sset = set(self.svertices)
        vset = self.tau.support
        s_adj: dict[int, list[int]] = {s: [] for s in self.svertices}
        v_adj: dict[int, list[int]] = {v: [] for v in vset}
        for s, v in sorted(edges):
            if s not in sset or v not in vset:
                raise ValueError(f"edge ({s}, {v}) is not S-to-[d]")
            s_adj[s].append(v)
            v_adj[v].append(s)
        object.__setattr__(self, "_s_adj", {s: tuple(vs) for s, vs in s_adj.items()})
        object.__setattr__(self, "_v_adj", {v: tuple(ss) for v, ss in v_adj.items()})

    @property
    def dvertices(self) -> tuple[int, ...]:
        return self.tau.elements

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self._s_adj[s]) for s in self.svertices)

    def neighbors_of_s(self, s: int) -> tuple[int, ...]:
        if s not in self._s_adj:
            raise ValueError(f"no S-vertex {s} in this graph")
        return self._s_adj[s]

    def neighbors_of_v(self, v: int) -> tuple[int, ...]:
        if v not in self._v_adj:
            raise ValueError(f"no [d]-vertex {v} in this graph")
        return self._v_adj[v]

    def circle(self) -> CircleOrder:
        return CircleOrder(self.tau)

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


def graph_of(f: Factorization, svertices: SVertexSet | None = None) -> FactorizationGraph:
    """The support graph of a factorization; S defaults to {d+1, ..., d+r-1}."""
    if not validate(f):
        raise ValueError("not a factorization: the ordered product is not tau")
    ambient = f.tau.degree
    if svertices is None:
        svertices = default_svertices(ambient, len(f.sigmas))
    if len(svertices) != len(f.sigmas):
        raise ValueError(
            f"need {len(f.sigmas)} S-vertices, got {len(svertices)}"
        )
    edges = frozenset(
        (s, v) for s, sigma in zip(svertices, f.sigmas) for v in sigma.elements
    )
    return FactorizationGraph(ambient, svertices, edges, f.tau)


def _require_factor_degrees(g: FactorizationGraph) -> None:
    # the circle predicates assume every factor vertex keeps degree >= 2
    for s in g.svertices:
        if len(g.neighbors_of_s(s)) < 2:
            raise ValueError(f"S-vertex {s} has degree < 2; predicates undefined")


def has_cpp(g: FactorizationGraph, s_vertex: int) -> bool:
    """Consecutive partition property of an S-vertex.

    True iff deleting the vertex leaves subtrees whose [d]-vertex sets are
    consecutive arcs of the circle of the graph's tau.
    """
    if s_vertex not in set(g.svertices):
        raise ValueError(f"no S-vertex {s_vertex} in this graph")
    _require_factor_degrees(g)
    circle = g.circle()
    return all(
        circle.arc_span(dset) is not None
        for _, dset in g.components_without(s_vertex)
    )


def has_cicpp(g: FactorizationGraph, d_vertex: int) -> bool:
    """Counterclockwise increasing consecutive partition property.

    Walking the circle counterclockwise from the [d]-vertex, the subtrees
    left by deleting it must be met one after another, each once, in the
    increasing order of their attaching S-neighbors.  Meeting a subtree
    twice ends the walk, so the walk alone enforces that every subtree's
    [d]-vertices form a consecutive arc of the circle minus the vertex.
    """
    if d_vertex not in g.tau.support:
        raise ValueError(f"no [d]-vertex {d_vertex} in this graph")
    _require_factor_degrees(g)
    circle = g.circle()
    comp_of: dict[int, int] = {}
    for i, (sset, dset) in enumerate(g.components_without(d_vertex)):
        for x in sset | dset:
            comp_of[x] = i

    v_pos = circle.position(d_vertex)
    encounter: list[int] = []
    for offset in range(1, circle.size):
        i = comp_of[circle.element_at(v_pos - offset)]
        if not encounter or encounter[-1] != i:
            if i in encounter:
                return False  # component met twice: not consecutive
            encounter.append(i)
    return encounter == [comp_of[s] for s in g.neighbors_of_v(d_vertex)]


def _shape_failure(g: FactorizationGraph) -> str | None:
    """Why g is not a tree with every S-vertex of degree >= 2, or None."""
    for s in g.svertices:
        if len(g.neighbors_of_s(s)) < 2:
            return f"S-vertex {s} has degree < 2"
    if not g.is_tree():
        return "not a tree"
    return None


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


def factorization_of(g: FactorizationGraph) -> Factorization:
    """Recover the factorization: read each S-vertex's neighbors clockwise.

    This is the membership gate.  On a tree whose S-vertices have degree
    >= 2, the reading multiplies to tau iff g is a factorization graph: g is
    then the graph of the reading, and every factorization graph reads
    clockwise (the clockwise-reading lemma).  Raises ValueError starting
    "not a factorization graph" otherwise.
    """
    failure = _shape_failure(g)
    if failure is not None:
        raise ValueError(f"not a factorization graph: {failure}")
    circle = g.circle()
    sigmas = tuple(
        circle.clockwise_cycle(g.neighbors_of_s(s)) for s in g.svertices
    )
    ftype = FactorizationType(g.tau.length, tuple(s.length for s in sigmas))
    f = Factorization(ftype, g.tau, sigmas)
    if not validate(f):
        raise ValueError(
            "not a factorization graph: the clockwise reading does not multiply to tau"
        )
    return f


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
    """Split g along its largest S-vertex into sub-factorization-graphs."""
    sigma_last = factorization_of(g).sigmas[-1]
    svalues = tuple(g.svertices)
    s_last = svalues[-1]
    pieces = split_circle_product(g.tau, sigma_last.inverse())
    assert isinstance(pieces, list)

    comps = g.components_without(s_last)
    comp_by_dset = {dset: sset for sset, dset in comps}
    ordered = sorted(pieces, key=lambda c: c.length < 2)  # big pieces first, stable
    k = sum(1 for c in ordered if c.length >= 2)

    subtrees = []
    bsets = []
    for gamma_i in ordered:
        dset = frozenset(gamma_i.elements)
        sset = comp_by_dset[dset]
        sub_edges = frozenset((s, v) for s, v in g.edges if s in sset)
        subtrees.append(
            FactorizationGraph(g.d, SVertexSet(tuple(sorted(sset))), sub_edges, gamma_i)
        )
        bsets.append(frozenset(svalues.index(s) + 1 for s in sset))

    gammas = tuple(ordered)
    sizes = tuple(c.length for c in gammas)
    return Decomposition(k, tuple(subtrees), tuple(bsets), gammas, sizes)


def collapse_transposition_graph(g: FactorizationGraph) -> tuple[tuple[int, int], ...]:
    """Collapse degree-2 S-vertices into direct edges: a labeled tree on [d]."""
    edges = []
    for s in g.svertices:
        nbrs = g.neighbors_of_s(s)
        if len(nbrs) != 2:
            raise ValueError(f"S-vertex {s} has degree {len(nbrs)}, expected 2")
        edges.append((min(nbrs), max(nbrs)))
    return tuple(sorted(edges))


def enumerate_degree_graphs(d: int, e, svertices: SVertexSet | None = None, tau: Cycle | None = None):
    """Every S-[d] bipartite graph with the prescribed S-degrees, one by one.

    This is the ambient family the characterization predicate carves the
    factorization graphs out of; it is exponential in size and meant for
    exhaustive verification at small d.
    """
    e = tuple(e)
    if tau is None:
        tau = standard_cycle(d)
    if svertices is None:
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


def graph_from_json(data: dict) -> FactorizationGraph:
    d, svertices, edges, tau = fields(data, "d", "S", "edges", "tau")
    d = integer(d, "d")
    return FactorizationGraph(
        d,
        SVertexSet(tuple(sorted(integers(svertices, "S")))),
        frozenset(pairs(edges, "edges")),
        Cycle(d, integers(tau, "tau")),
    )


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
