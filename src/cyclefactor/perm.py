"""Cycles, image tuples and circular reading order on {1, ..., d}.

A permutation of {1, ..., d} is its image tuple: ``images[x - 1]`` is the
image of x.  All values are immutable and all functions are pure, so
everything here is safe to share across threads.  Composition is
right-to-left throughout: ``compose(p, q)[x - 1] == p[q[x - 1] - 1]``, i.e.
the right factor acts first.

A ``Cycle`` is a plain value: its constructor only rotates the elements to
start at their minimum.  ``check_cycle`` proves elements read from outside;
the functions here build cycles from cycles already proved and trust them.

A cycle is also a circle, its elements laid out clockwise in cycle order:
``positions`` numbers its points and ``clockwise_reading`` reads values round
it; the circle predicates and ``split_circle_product`` are plain code on it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Cycle:
    """A cyclic permutation of some subset of {1, ..., degree}.

    The element sequence is canonicalized to start at its minimum, so two
    cycles are equal iff they are rotations of each other.  Length-1 cycles
    are legal values: they carry their fixed point as support.  A plain
    value: the constructor checks nothing and only rotates the tuple
    ``elements``; ``check_cycle`` proves elements from outside to be
    distinct and inside [1, degree].

    >>> Cycle(5, (3, 1, 4)).elements
    (1, 4, 3)
    """

    degree: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = self.elements
        i = elems.index(min(elems))
        if i:
            object.__setattr__(self, "elements", elems[i:] + elems[:i])

    @property
    def length(self) -> int:
        return len(self.elements)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.elements)

    def images(self) -> tuple[int, ...]:
        """The image tuple of this cycle in its degree.

        >>> Cycle(4, (1, 3, 2)).images()
        (3, 1, 2, 4)
        """
        images = list(range(1, self.degree + 1))
        elems = self.elements
        for x, y in zip(elems, elems[1:] + elems[:1]):
            images[x - 1] = y
        return tuple(images)

    def inverse(self) -> Cycle:
        return Cycle(self.degree, tuple(reversed(self.elements)))

    def __str__(self) -> str:
        return "(" + " ".join(str(x) for x in self.elements) + ")"


def check_cycle(degree: int, elements: tuple[int, ...]) -> Cycle:
    """The cycle on ``elements``, once they are proved nonempty, distinct and in [1, degree]."""
    if not elements:
        raise ValueError("a cycle needs at least one element")
    if len(set(elements)) != len(elements):
        raise ValueError(f"repeated element in cycle {elements!r}")
    if any(not 1 <= x <= degree for x in elements):
        raise ValueError(f"cycle {elements!r} leaves [1, {degree}]")
    return Cycle(degree, elements)


def pure_cycle_type(d: int, e: int) -> tuple[int, ...]:
    """The cycle type of an e-cycle in degree d, as its partition (e, 1, ..., 1)."""
    if not 2 <= e <= d:
        raise ValueError(f"need 2 <= e <= d, got e={e}, d={d}")
    return (e,) + (1,) * (d - e)


def index(partition: tuple[int, ...]) -> int:
    """The index of a cycle type, given as its partition: the sum of (part - 1) over all parts.

    >>> index((3, 2, 1))
    3
    """
    return sum(p - 1 for p in partition)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The product pq of two image tuples, the right factor acting first.

    >>> compose((2, 3, 1), (2, 1, 3))  # (1 2 3)(1 2) = (1 3)
    (3, 2, 1)
    """
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} != {len(q)}")
    return tuple(p[y - 1] for y in q)


def product(perms, degree: int) -> tuple[int, ...]:
    """The ordered product p1 p2 ... pn of image tuples (empty product is the identity)."""
    result = tuple(range(1, degree + 1))
    for p in perms:
        result = compose(result, p)
    return result


def cycles_of(images, points=None) -> list[tuple[int, ...]]:
    """The cycles of x -> images[x-1] through ``points`` (default: every point).

    Each cycle is listed once, read from the first of ``points`` on it.  That
    is its least point when ``points`` run in increasing order and hold the
    least point of every cycle they meet, as the default does, so each tuple
    is then a canonical ``Cycle`` element sequence.

    >>> cycles_of((3, 4, 1, 2, 5))
    [(1, 3), (2, 4), (5,)]
    """
    seen = [False] * (len(images) + 1)
    cycles = []
    for start in range(1, len(images) + 1) if points is None else points:
        if seen[start]:
            continue
        seen[start] = True
        cycle = [start]
        x = images[start - 1]
        while x != start:
            seen[x] = True
            cycle.append(x)
            x = images[x - 1]
        cycles.append(tuple(cycle))
    return cycles


def standard_cycle(d: int) -> Cycle:
    """The d-cycle (1 2 ... d)."""
    return Cycle(d, tuple(range(1, d + 1)))


def positions(circle: Cycle) -> dict[int, int]:
    """Each point of the circle, whatever its degree, to its place 1, 2, ... clockwise from the minimum."""
    return {x: i for i, x in enumerate(circle.elements, start=1)}


def clockwise_reading(circle: Cycle, values) -> Cycle:
    """The cycle that visits ``values`` in their clockwise order round ``circle``.

    One pass over the circle's elements; values off the circle are dropped.

    >>> clockwise_reading(standard_cycle(20), {13, 20, 1, 2, 15}).elements
    (1, 2, 13, 15, 20)
    """
    wanted = set(values)
    return Cycle(circle.degree, tuple(x for x in circle.elements if x in wanted))


def is_counterclockwise_on(eta: Cycle, circle: Cycle) -> bool:
    """Whether eta's elements, in cycle order, go counterclockwise round the circle.

    Cycles of length <= 2 read both ways, so they count as counterclockwise.

    >>> is_counterclockwise_on(Cycle(5, (4, 2, 1)), standard_cycle(5))
    True
    """
    if not eta.support <= circle.support:
        raise ValueError(f"support of {eta} leaves the circle of {circle}")
    h = eta.elements  # read backwards from its minimum, eta must be the clockwise reading
    return len(h) <= 2 or clockwise_reading(circle, h).elements[1:] == h[:0:-1]


def is_clockwise_on(eta: Cycle, circle: Cycle) -> bool:
    """Whether eta's elements, in cycle order, go clockwise round the circle."""
    return is_counterclockwise_on(eta.inverse(), circle)


@dataclass(frozen=True)
class NotMaximal:
    """Returned when a cycle product splits into fewer cycles than maximal."""

    cycle_count: int


def split_circle_product(mu: Cycle, eta: Cycle) -> list[Cycle] | NotMaximal:
    """Split the circle of mu into the cycles of the product mu*eta.

    Writing p = |supp(eta)|, the product mu*eta decomposes into at most p
    cycles on supp(mu).  In the maximal case the circle of mu, cut after each
    element of supp(eta), falls into exactly p consecutive pieces, each of
    which read clockwise is one cycle of mu*eta; the pieces are returned in
    clockwise order starting just after the cut at the element of supp(eta)
    earliest on the circle.  Otherwise ``NotMaximal`` reports the actual
    cycle count.

    >>> [str(c) for c in split_circle_product(Cycle(3, (1, 2, 3)), Cycle(3, (3, 1)))]
    ['(2 3)', '(1)']
    """
    if mu.degree != eta.degree:
        raise ValueError(f"degree mismatch: {mu.degree} != {eta.degree}")
    if not eta.support <= mu.support:
        raise ValueError(f"support of {eta} is not contained in support of {mu}")

    # Cycle count of mu*eta on supp(mu), without building full image tuples.
    m, h = mu.elements, eta.elements
    mu_next = dict(zip(m, m[1:] + m[:1]))
    eta_next = dict(zip(h, h[1:] + h[:1]))
    prod = list(range(1, mu.degree + 1))
    for x in mu.elements:
        prod[x - 1] = mu_next[eta_next.get(x, x)]
    s = len(cycles_of(prod, mu.elements))
    if s != eta.length:
        return NotMaximal(s)

    # cut after each element of supp(eta); the last piece wraps past the end
    cuts = [i for i, x in enumerate(m) if x in eta_next]
    ends = cuts[1:] + [cuts[0] + mu.length]
    doubled = m + m
    return [Cycle(mu.degree, doubled[a + 1 : b + 1]) for a, b in zip(cuts, ends)]
