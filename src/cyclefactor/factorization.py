"""Factorizations of a d-cycle into cycle factors, and exact count formulas.

The enumeration walks tuples (sigma_1, ..., sigma_{r-1}) of cycles of
prescribed lengths whose ordered product equals (1 2 ... d), in
lexicographic order of the factor sequences, and carries that stream onto
any other d-cycle tau by one relabeling: point i becomes the i-th element
of tau.  So every stream is in lexicographic order of its factors read as
positions round tau.  Two searches produce the stream on (1 2 ... d):

* genus 0 (``_walk_genus0``): each factor lies below the remaining target
  in absolute order, so it is taken from the target's own cycles, each of
  which increases from its minimum.  Candidates stream by their minimum in
  plain ``itertools.combinations`` order, with no candidate list; a choice
  is dropped as soon as its arc closes if the later lengths cannot fill
  that arc, or all the arcs closed so far together, and a branch is
  entered only if the remaining lengths pack exactly onto the cycles it
  leaves, so every branch yields.  A node with two factors left does not
  search: on one n-cycle it yields its n completions in closed form, one
  per start of the long arc, and on two cycles each factor is a whole
  cycle.  Nodes wait on an explicit stack, so no type is too deep to walk.
* every genus (``_search``, the one search core): each factor is taken from
  a table of candidates, the last factor is solved for, and branches whose
  remaining target is too far (in Cayley distance) from the identity for the
  remaining lengths are pruned.  Each distinct target's distance is measured
  once, the last two factors are solved once per distinct target, and nodes
  wait on an explicit stack.  It runs the positive-genus stream, the
  brute-force Hurwitz count (tables of whole conjugacy classes, a leaf test
  for the last type, transitivity filtered from the stream), and serves as
  the genus-0 walker's oracle in ``verify`` and the tests.

Both yield one batch per node with two factors left: the factors above the
node, then the node's solved (sigma, last factor) pairs.  ``factor_batches``
is that stream, the only one: a count reads only the pairs, ``enumerate``
renders a prefix once per batch, and ``enumerate_factorizations`` wraps it
into records on tau, each prefix factor once per batch.

A ``Factorization`` holds tau and the factors; its type (d; e_1, ..., e_{r-1})
is d = |tau| and the factors' lengths, and ``genus(d, e)`` checks a type.
The search core reads cycles through the one cycle walker, ``perm.cycles_of``.
``validate`` checks a given factorization in O(|tau| + sum(e_i)): each
factor changes the running product only on its own support.
All counts are exact integers; Hurwitz numbers are exact rationals.
"""

from __future__ import annotations

import functools
import itertools
from array import array as typed_array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import itemgetter
from typing import Iterator

from ._json import array, fields, integer, integers
from .perm import (
    Cycle,
    check_cycle,
    cycles_of,
    index,
    pure_cycle_type,
    standard_cycle,
)
from .trees import mnr_cardinality


class CapExceededError(RuntimeError):
    """A brute-force search was requested beyond its configured size cap."""


def genus(d: int, e) -> int:
    """The genus g of the type (d; e_1, ..., e_{r-1}), from sum(e_i - 1) = d - 1 + 2g.

    It refuses a degree below 1, no factor length, a length outside [2, d],
    and a g that is not a nonnegative integer.
    """
    e = tuple(e)
    if d < 1:
        raise ValueError("degree must be positive")
    if not e:
        raise ValueError("need at least one factor length (r >= 2)")
    if any(not 2 <= ei <= d for ei in e):
        raise ValueError(f"factor lengths must lie in [2, {d}]: {e!r}")
    total = sum(ei - 1 for ei in e)
    excess = total - (d - 1)
    if excess < 0 or excess % 2:
        raise ValueError(f"sum(e_i - 1) = {total} is not d-1+2g for a nonnegative integer g (d = {d})")
    return excess // 2


@dataclass(frozen=True)
class Factorization:
    """A tuple of cycles multiplying (left to right) to the base cycle tau.

    The type is read off the record: d is the length of tau and the factor
    lengths are the sigmas' lengths.  The ambient degree is ``tau.degree``;
    it equals d for factorizations of a full d-cycle, and is larger for the
    sub-factorizations living on a sub-circle.  A plain record: the reader,
    ``factorization_from_json``, checks outside data, and ``validate`` proves
    a hand-built value.
    """

    tau: Cycle
    sigmas: tuple[Cycle, ...]

    @property
    def d(self) -> int:
        return self.tau.length


def validate(f: Factorization) -> bool:
    """True iff there are factors, each of length >= 2, inside supp(tau), multiplying to tau.

    The product is kept as one image map on supp(tau) that each factor
    changes only on its own support, so the cost is O(|tau| + sum(e_i)),
    whatever the ambient degree.  A product equal to tau makes the genus of
    the factors' lengths a nonnegative integer.
    """
    if not f.sigmas or any(s.length < 2 for s in f.sigmas):
        return False
    support = f.tau.support
    if any(not s.support <= support for s in f.sigmas):
        return False
    tau = f.tau.elements
    images = dict(zip(tau, tau))
    for s in f.sigmas:
        elems = s.elements
        # p <- p o s: on supp(s), p'(x) = p(s(x)); read every value before writing
        moved = [images[y] for y in elems[1:]] + [images[elems[0]]]
        for x, y in zip(elems, moved):
            images[x] = y
    # the factors sit inside supp(tau), so off it both sides are the identity
    return all(images[x] == y for x, y in zip(tau, tau[1:] + tau[:1]))


def _cycle_tables(d: int, e: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(canonical elements, inverse images) of every e-cycle, in lexicographic order.

    Image arrays are 0-indexed with 1-based values, so composition is a
    single lookup chain.
    """
    tables = []
    for first in range(1, d + 1):
        for rest in itertools.permutations(range(first + 1, d + 1), e - 1):
            elems = (first, *rest)
            tables.append((elems, Cycle(d, elems[::-1]).images()))
    return tables


def _single_cycle(length: int):
    """A leaf test: the moved points in cycle order, if the target is one `length`-cycle."""

    def leaf(imgs):
        moved = [x for x, y in enumerate(imgs, 1) if x != y]
        if len(moved) != length:
            return None
        (elems,) = cycles_of(imgs, moved[:1])
        return elems if len(elems) == length else None

    return leaf


def _gather(target):
    """inv -> the image tuple of sigma^{-1} * target, as one C-level call.

    ``itemgetter`` with a single index returns a scalar, so a one-point
    target gets its own one-tuple.
    """
    if len(target) == 1:
        (i,) = target
        return lambda inv: (inv[i - 1],)
    return itemgetter(*[y - 1 for y in target])


def _search(target, tables, budgets, leaf, stats: dict | None = None):
    """Depth-first search over one factor per table, the last factor solved.

    ``target`` is what the factors still to choose must multiply to;
    ``tables[k]`` lists (key, inverse images) for the (k+1)-th factor, and
    choosing it turns the target into sigma^{-1} * target.  A branch is cut
    when the target is further from the identity, in Cayley distance, than
    ``budgets[k]``, the index the remaining factors can add up to.  The root
    is not tested: each caller's root (a d-cycle, the identity) is within it.
    After the last table, ``leaf(target)`` returns the solved last entry or None.

    The search yields one batch (prefix, found) per last-level visit that
    has a solution: ``prefix`` is the tuple of keys chosen above it, and
    ``found`` the visit's (key, entry) pairs, so every ``prefix + pair`` is
    one output, (*keys, entry).  With no table the one batch is ((),
    ((entry,),)).

    Each distinct target is measured once per call, on first sight: a dict
    keeps its Cayley distance (one ``cycles_of`` walk), which the prune
    reads, and one ``itemgetter`` over its points (``_gather``), which a
    pushed node keeps in place of its target, so every child costs one
    C-level call on the chosen factor's inverse images; the dict holds at
    most d! entries.  The pairs (key, entry) of the last two factors depend
    only on the target the last table starts from, so they are solved once
    per distinct target and kept for this call; a batch holds that memo's
    own tuple, so a caller counts a visit by its length and builds no
    output.  Nodes wait on an explicit stack.  ``stats`` counts the nodes
    entered (the root and every stacked child), the distinct targets solved
    and the reuses of a solved target.
    """
    stats = {} if stats is None else stats
    stats.update(nodes=1, targets=0, reuses=0)
    last = len(tables) - 1
    if last < 0:
        hit = leaf(target)
        if hit is not None:
            yield (), ((hit,),)
        return
    measured: dict = {}
    solved: dict = {}

    def measure(target):  # (Cayley distance from the identity, gather), once per distinct target
        m = measured[target] = (len(target) - len(cycles_of(target)), _gather(target))
        return m

    def solve(target):
        # (key, entry) for each last-table key whose solved last factor exists
        stats["targets"] += 1
        distance, gather = measured.get(target) or measure(target)
        if distance > budgets[last]:
            found = ()
        else:
            found = tuple((key, hit) for key, inv in tables[last] if (hit := leaf(gather(inv))) is not None)
        solved[target] = found
        return found

    if not last:
        if found := solve(target):
            yield (), found
        return
    out = [None] * last
    stack = [(_gather(target), iter(tables[0]))]
    while stack:
        k = len(stack) - 1
        gather, children = stack[-1]
        if k + 1 == last:
            reuses = 0
            for key, inv in children:
                out[k] = key
                child = gather(inv)
                found = solved.get(child)
                if found is None:
                    found = solve(child)
                else:
                    reuses += 1
                if found:
                    yield tuple(out), found
            stats["reuses"] += reuses
            stack.pop()
        else:
            budget = budgets[k + 1]
            for key, inv in children:
                child = gather(inv)
                distance, child_gather = measured.get(child) or measure(child)
                if distance <= budget:
                    out[k] = key
                    stats["nodes"] += 1
                    stack.append((child_gather, iter(tables[k + 1])))
                    break
            else:
                stack.pop()


def _cayley_batches(d: int, tau: Cycle, e: tuple[int, ...], stats: dict | None = None):
    """The `_search` batches for any genus; tau and e are already validated."""
    target = tau.images()
    # remaining Cayley-distance budget before sigma_{k+1} is chosen
    budgets = [sum(ei - 1 for ei in e[k:]) for k in range(len(e))]
    by_length = {ei: _cycle_tables(d, ei) for ei in set(e[:-1])}
    return _search(target, [by_length[ei] for ei in e[:-1]], budgets, _single_cycle(e[-1]), stats)


def _cayley_stream(d: int, tau: Cycle, e: tuple[int, ...], stats: dict | None = None):
    """The `_search` outputs one by one: the oracle the walker is checked against."""
    return (prefix + pair for prefix, found in _cayley_batches(d, tau, e, stats) for pair in found)


def _packs(items: tuple[int, ...], bins: tuple[int, ...]) -> bool:
    """Whether the items (largest first) split into groups filling each bin exactly.

    The bins' total always equals the items', so once only unit items are
    left they fill whatever room remains.  Until then each item in turn goes
    into each distinct room that holds it, depth first on an explicit stack;
    a state (items placed, rooms left) that failed once is not entered again.
    """
    end = items.index(1) if 1 in items else len(items)
    if not end:
        return True

    def placements(i, rooms):
        for j, room in enumerate(rooms):
            if room >= items[i] and room not in rooms[:j]:
                yield i + 1, tuple(sorted((*rooms[:j], room - items[i], *rooms[j + 1 :])))

    seen = set()
    stack = [placements(0, tuple(sorted(bins)))]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif state[0] == end:
            return True
        elif state not in seen:
            seen.add(state)
            stack.append(placements(*state))
    return False


def _walk_genus0(d: int, e: tuple[int, ...], stats: dict):
    """Yield the factorizations of a genus-0 type of (1 2 ... d) in batches, in lexicographic order.

    A batch is (prefix, completions): ``prefix`` is the tuple of factors
    chosen above a node with two factors left, and ``completions`` a lazy
    iterator of that node's (sigma, last factor) pairs, so every ``prefix +
    pair`` is one output.  With one factor the one batch is ((), ((c,),)).

    A node holds the nontrivial cycles of the remaining target.  In genus 0
    sigma_{k+1} lies below the target in absolute order: its support is an
    e_k-subset of one target cycle, and sigma^{-1} * target cuts that cycle
    into e_k arcs, each starting at a chosen element.  Every cycle of the
    target increases from its minimum (the noncrossing-partition picture),
    so sigma is read from its minimum m, the other elements are the ones
    after m, and the choices come in ``itertools.combinations`` order:
    candidates stream by m, sigma's e_k - 2 inner elements are chosen depth
    first (``heads``; for e_k = 2 the head is m alone, with no stack), and
    its last element q in one flat loop per head, the same for every e_k.
    An arc is tested as soon as its end is chosen: an arc of a elements is
    viable only if a - 1 is the sum of some of the later (e_i - 1), counted
    with multiplicity, and so must be the sum of (a - 1) over all the arcs
    closed so far, since disjoint arcs are filled by disjoint factors.  The
    arc from q round to m closes the last, and with it all of them: that
    sum does not depend on q, so it is tested once per head.  The child is
    the other cycles, the arcs the head kept as it closed them, and q's two
    arcs.  A child is entered only if the later lengths pack exactly onto
    its cycles (unit items always do, so once every later length is 2 the
    test is skipped), and any exact packing completes, so every node
    yields; nodes wait on an explicit stack.

    A cycle c of exactly e_k elements is taken whole, with no cut loop (its
    forced choices pass every arc test) and no packing test: every node's
    lengths e_i - 1, i >= k, pack exactly onto its cycles, as on the root;
    those in c's room sum to e_k - 1 and can swap with e_k - 1 itself, so
    the rest pack onto the other cycles.
    A node with the two factors e_{r-2}, e_{r-1} left yields its (sigma,
    last factor) pairs with no search, in O(n) per output.  If its target is
    one cycle c of length n = e_{r-2} + e_{r-1} - 1, it has exactly n
    completions (Goulden-Jackson: a lone n-cycle has n minimal
    factorizations into an a-cycle and a b-cycle).  Each is fixed by the
    start s of the arc c[s:s+b] that becomes the last factor; sigma is c[s]
    and the n - b elements outside that arc, and they come by s.  If its
    target is two cycles, each factor is one of them whole (a cycle has one
    minimal factorization into itself), so sigma is each cycle of length
    e_{r-2} in turn, by minimum, and the other cycle is the last factor.
    Consecutive prefixes share their leading tuples as the same objects.

    ``stats`` counts the nodes entered, the candidates tested and the dead
    ends among them (candidates whose child fails the packing), once per
    node: a searching node adds its counts when its candidates run out, a
    node in closed form when its batch is made, and counts as the search
    would: one node, and one candidate per completion, none of them a dead
    end (on two cycles the arc tests refuse every cut of the longer cycle).
    """
    last = len(e) - 1
    if not last:
        yield (), ((tuple(range(1, d + 1)),),)
        return
    # bit a of viable[k] is set iff a - 1 is the sum of some (e_i - 1), i > k
    viable = [0] * last
    sums = 1
    for k in range(last, 0, -1):
        sums |= sums << (e[k] - 1)
        viable[k - 1] = sums << 1
    # every length from e[twos] on is 2, so a child at level twos or deeper packs
    twos = len(e)
    while twos and e[twos - 1] == 2:
        twos -= 1
    fits: dict = {}

    def packs(child, k):
        lengths = tuple(sorted(map(len, child)))
        ok = fits.get((k, lengths))
        if ok is None:
            items = tuple(sorted((ei - 1 for ei in e[k:]), reverse=True))
            ok = fits[k, lengths] = _packs(items, tuple(n - 1 for n in lengths))
        return ok

    def heads(c, p, ek, arcs_ok, others):
        # (sigma but its last element, that element's position, the sum of (a - 1) over the
        # arcs closed so far, the other cycles and those arcs) for each choice of sigma's
        # ek - 2 inner elements, depth first; kept[i] holds the arcs closed up to cut[i]
        n = len(c)
        cut, used, kept, choices = [p], [0], [others], [iter(range(p + 1, n - ek + 2))]
        while choices:
            at, u = cut[-1], used[-1]
            for q in choices[-1]:
                arc = q - at  # the new arc, and all the closed arcs together, must be fillable
                if arcs_ok >> arc & 1 and arcs_ok >> (u + arc) & 1:
                    cut.append(q)
                    used.append(u + arc - 1)
                    kept.append(kept[-1] + [c[at:q]] if arc > 1 else kept[-1])
                    if len(cut) < ek - 1:
                        choices.append(iter(range(q + 1, n - ek + 1 + len(cut))))
                        break
                    yield tuple(map(c.__getitem__, cut)), q, used.pop(), kept.pop()
                    cut.pop()
            else:
                choices.pop()
                cut.pop()
                used.pop()
                kept.pop()

    def children(cycles, k):
        # (sigma_{k+1}, the child's cycles) for each candidate that passes, in order
        ek, arcs_ok = e[k], viable[k]
        check = k + 1 < twos
        found = dead = 0
        # (m, (c, the other cycles), p) for each element m = c[p] with at least ek - 1
        # elements after it; the cycles' runs of minima, merged by value
        starts = [
            zip(c, itertools.repeat((c, cycles[:ci] + cycles[ci + 1 :])), range(len(c) - ek + 1))
            for ci, c in enumerate(cycles)
            if len(c) >= ek
        ]
        for m, (c, others), p in starts[0] if len(starts) == 1 else sorted(itertools.chain(*starts)):
            n = len(c)
            if n == ek:  # sigma is all of c, forced, and the other cycles pack
                found += 1
                yield tuple(c), others
                continue
            end = n + p  # m's position once round the cycle, where the last arc ends
            lead = c[:p]  # the last arc wraps from c[q] round to c[p - 1]
            # for ek = 2 the head is m alone, and sigma (m, c[q])
            for head, at, u, base in heads(c, p, ek, arcs_ok, others) if ek > 2 else ((None, p, 0, others),):
                # the arc from q round to m closes every arc: their sum is the same for each q
                if not arcs_ok >> (u + end - at - 1) & 1:
                    continue
                # bit a: an arc of a, and the closed arcs with it, fill
                both = arcs_ok & arcs_ok >> u if u else arcs_ok
                for q in range(at + 1, n):
                    if both >> (q - at) & 1 and arcs_ok >> (end - q) & 1:
                        found += 1
                        if end - q > 1:
                            tail = (*lead, *c[q:]) if p else c[q:]
                            child = base + [c[at:q], tail] if q - at > 1 else base + [tail]
                        else:
                            child = base + [c[at:q]] if q - at > 1 else base
                        if check and len(child) > 1 and not packs(child, k + 1):
                            dead += 1
                        else:
                            yield (m, c[q]) if head is None else head + (c[q],), child
        stats["nodes"] += 1
        stats["candidates"] += found
        stats["dead_ends"] += dead

    def completions(cycles):
        # the node's (sigma, last factor) pairs, in order; both factors are forced
        stats["nodes"] += 1
        if len(cycles) == 2:  # each factor is a whole cycle, sigma the one of length e[last - 1]
            # the node packs, so the lengths are e[last - 1] and e[last]
            a, b = map(tuple, cycles)
            if b < a:
                a, b = b, a
            pairs = ((a, b), (b, a)) if len(a) == len(b) else ((a, b),) if len(a) == e[last - 1] else ((b, a),)
            stats["candidates"] += len(pairs)
            return pairs
        # one n-cycle c, n = e[last - 1] + e[last] - 1: sigma takes c[s] and the
        # n - b elements after the long arc c[s:s+b], which wraps once s + b > n
        c = tuple(cycles[0])
        n, b = len(c), e[last]
        stats["candidates"] += n
        return (
            (c[: s + 1] + c[s + b :], c[s : s + b]) if s + b <= n else (c[s + b - n : s + 1], c[: s + b - n] + c[s:])
            for s in (*range(n - b, -1, -1), *range(n - b + 1, n))
        )

    # the root is a view, so the arcs sliced from it share its memory: a chain
    # of d cuts would otherwise copy d^2 / 2 elements
    root = [memoryview(typed_array("q", range(1, d + 1)))]
    if last == 1:
        yield (), completions(root)
        return
    out = [None] * (last - 1)
    stack = [children(root, 0)]
    while stack:
        k = len(stack) - 1
        for sigma, child in stack[-1]:
            out[k] = sigma
            if k + 2 == last:  # the child has two factors left: one batch
                yield tuple(out), completions(child)
            else:
                stack.append(children(child, k + 1))
                break
        else:
            stack.pop()


def factor_batches(d: int, e, stats: dict | None = None):
    """Stream every factorization of (1 2 ... d) with lengths e, one batch per last-level node.

    A batch is (prefix, tails); each ``prefix + tail`` is one output, as
    min-first tuples, and consecutive prefixes share their leading tuples.
    The tails are the walker's lazy completions (genus 0), with its nodes,
    candidates and dead ends added to ``stats`` node by node, or the
    search core's solved tuple, with its nodes, targets and reuses.
    """
    e = tuple(e)
    if genus(d, e) == 0:  # validates lengths and genus
        stats = {} if stats is None else stats
        stats.update(nodes=0, candidates=0, dead_ends=0)
        return _walk_genus0(d, e, stats)
    return _cayley_batches(d, standard_cycle(d), e, stats)


def first_change(previous: tuple, elems: tuple) -> int:
    """The first position where the ``factor_batches`` prefix ``elems`` differs from ``previous``.

    Consecutive prefixes share their leading tuples as the same objects, so
    a caller keeps whatever it derived from the factors before that
    position.
    """
    i = 0
    while i < len(previous) and elems[i] is previous[i]:
        i += 1
    return i


def enumerate_factorizations(d: int, tau: Cycle, e, stats: dict | None = None) -> Iterator[Factorization]:
    """Stream every factorization of tau with factor lengths e, exactly once.

    The ``factor_batches`` outputs as records, in order and with its
    ``stats``; off (1 2 ... d) point i becomes tau[i - 1].  A prefix factor
    is wrapped once while consecutive prefixes share it, so consecutive
    records share their leading ``Cycle`` objects.
    """
    batches = factor_batches(d, e, stats)  # the type is checked before tau
    if tau.degree != d or tau.length != d:
        raise ValueError(f"tau must be a {d}-cycle of degree {d}")
    if tau == standard_cycle(d):
        wrap = functools.partial(Cycle, d)
    else:
        at = (None, *tau.elements)

        def wrap(x):  # the Cycle rotates the relabeled factor to its minimum
            return Cycle(d, tuple(map(at.__getitem__, x)))

    def gen():
        previous, head = (), []
        for prefix, tails in batches:
            i = first_change(previous, prefix)
            head[i:] = map(wrap, prefix[i:])
            previous, sigmas = prefix, tuple(head)
            for tail in tails:
                yield Factorization(tau, sigmas + tuple(map(wrap, tail)))

    return gen()


def count_factorizations(d: int, e, method: str = "bruteforce", stats: dict | None = None) -> int:
    """Count factorizations of a d-cycle with factor lengths e.

    method:
      * ``bruteforce`` counts the batches of ``factor_batches`` (any genus),
        with its ``stats``, and builds no output: in positive genus it sums
        the lengths of the solved tuples, in genus 0 it reads each node's
        completions;
      * ``formula`` returns d^(r-2), valid only in genus 0;
      * ``bijection`` routes through the tree-family cardinality that the
        encoding maps factorizations onto, also genus 0 only.
    """
    e = tuple(e)
    g = genus(d, e)
    if method == "bruteforce":
        batches = factor_batches(d, e, stats)
        if g:
            return sum(len(found) for _, found in batches)
        return sum(1 for _, tails in batches for _ in tails)
    if g != 0:
        raise ValueError(f"method {method!r} requires genus 0, got genus {g}")
    if method == "formula":
        return d ** (len(e) - 1)
    if method == "bijection":
        return mnr_cardinality((1,) + tuple(ei - 1 for ei in e))
    raise ValueError(f"unknown method {method!r}")


def count_by_cycle_index(d: int, n) -> int:
    """Count factorizations of a d-cycle with n_m factors of length m.

    ``n`` maps factor lengths m in [2, d] to multiplicities, a length with
    multiplicity 0 included.  Requires at least one factor and
    sum (m-1) n_m = d - 1, and returns d^(r-2) (r-1)! / prod n_m! exactly.
    """
    n = {int(m): int(nm) for m, nm in dict(n).items()}
    if any(not 2 <= m <= d for m in n) or any(nm < 0 for nm in n.values()):
        raise ValueError(f"bad cycle index {n!r} for degree {d}")
    r_minus_1 = sum(n.values())
    if not r_minus_1:
        raise ValueError("cycle index must list at least one factor")
    if sum((m - 1) * nm for m, nm in n.items()) != d - 1:
        raise ValueError("cycle index must satisfy sum (m-1) n_m = d - 1")
    count = d ** (r_minus_1 - 1) * factorial(r_minus_1)
    for nm in n.values():
        count //= factorial(nm)
    return count


def _check_partition(parts) -> tuple[int, ...]:
    """The cycle type ``parts`` as a tuple, once proved a weakly decreasing tuple of positive integers."""
    parts = tuple(parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("partition parts must be positive")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("partition must be weakly decreasing")
    return parts


@dataclass(frozen=True)
class HurwitzDatum:
    """Branch data lambda^1, ..., lambda^r: the cycle types of r branch points, partitions of one degree d.

    Riemann-Hurwitz, sum of index(lambda^i) = 2d - 2 + 2g, must give an integer genus g >= 0."""

    lambdas: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        lambdas = tuple(map(_check_partition, self.lambdas))
        object.__setattr__(self, "lambdas", lambdas)
        if len({sum(t) for t in lambdas}) != 1:
            raise ValueError("need one or more cycle types, all partitions of one degree d")
        total = sum(map(index, lambdas))
        if total < 2 * self.d - 2 or total % 2:
            raise ValueError(
                f"Riemann-Hurwitz violated: sum of indices {total} is not 2d - 2 + 2g "
                f"for a nonnegative integer g (d = {self.d})"
            )

    @property
    def d(self) -> int:
        return sum(self.lambdas[0])


def pure_cycle_datum(e) -> HurwitzDatum:
    """The genus-0 datum with pure-cycle branch types (e_1, ..., e_r) of the degree d with sum(e_i - 1) = 2d - 2.

    An odd sum comes out 2d - 3 for the d rounded up, which the datum refuses."""
    e = tuple(e)
    d = (sum(ei - 1 for ei in e) + 3) // 2
    return HurwitzDatum(tuple(pure_cycle_type(d, ei) for ei in e))


def _transitive(perms_images, d: int) -> bool:
    # the orbit of 1 under the factors is all of [d]
    orbit, seen = [1], {1}
    for x in orbit:
        for imgs in perms_images:
            if (y := imgs[x - 1]) not in seen:
                seen.add(y)
                orbit.append(y)
    return len(orbit) == d


HURWITZ_MAX_DEGREE = 6  # the search tables hold all d! permutations


def hurwitz_count_bruteforce(h: HurwitzDatum) -> Fraction:
    """Count Hurwitz factorizations for the datum, divided by d!.

    Enumerates tuples (sigma_1, ..., sigma_r) with the prescribed cycle
    types, product the identity, and transitive joint action.  The last
    factor is solved for.  Degrees above ``HURWITZ_MAX_DEGREE`` are refused.
    """
    d = h.d
    if d > HURWITZ_MAX_DEGREE:
        raise CapExceededError(f"degree {d} exceeds the brute-force cap {HURWITZ_MAX_DEGREE}")

    def type_of(imgs) -> tuple[int, ...]:
        return tuple(sorted(map(len, cycles_of(imgs)), reverse=True))

    by_type: dict[tuple[int, ...], list] = {}
    for images in itertools.permutations(range(1, d + 1)):
        inverse = [0] * d
        for x, y in enumerate(images, start=1):
            inverse[y - 1] = x
        by_type.setdefault(type_of(images), []).append((images, tuple(inverse)))
    tables = [by_type.get(t, []) for t in h.lambdas[:-1]]
    last_type = h.lambdas[-1]
    # remaining index budget before sigma_{k+1} is chosen
    budgets = [sum(map(index, h.lambdas[k:])) for k in range(len(h.lambdas))]

    def leaf(target):
        return target if type_of(target) == last_type else None

    batches = _search(tuple(range(1, d + 1)), tables, budgets, leaf)
    count = sum(1 for prefix, found in batches for pair in found if _transitive(prefix + pair, d))
    return Fraction(count, factorial(d))


def formula_hurwitz_simple(tau_partition) -> Fraction:
    """Closed form for genus-0 Hurwitz numbers with r - 1 simple branch points.

    The last branch point has cycle type ``tau_partition``, a partition of d;
    all others are transpositions, r - 1 = 2d - 2 - index(tau_partition).
    """
    parts = _check_partition(tau_partition)
    d = sum(parts)
    value = Fraction(factorial(2 * d - 2 - index(parts))) * Fraction(d) ** (len(parts) - 3)
    for t in parts:
        value *= Fraction(t**t, factorial(t))
    for m in Counter(parts).values():
        value /= factorial(m)
    return value


def formula_hurwitz_4point(e) -> int:
    """Genus-0 pure-cycle count with four branch points: min of e_i (d+1-e_i), d that of ``pure_cycle_datum(e)``."""
    e = tuple(e)
    if len(e) != 4:
        raise ValueError("exactly four ramification indices required")
    d = pure_cycle_datum(e).d
    return min(ei * (d + 1 - ei) for ei in e)


def factorization_to_json(f: Factorization) -> dict:
    return {
        "d": f.tau.degree,
        "tau": list(f.tau.elements),
        "sigmas": [list(s.elements) for s in f.sigmas],
    }


def factorization_from_json(data: dict) -> Factorization:
    """Read and validate a factorization; ``graph_of`` and the ``convert`` boundary trust it."""
    degree, tau, sigmas = fields(data, "d", "tau", "sigmas")
    degree = integer(degree, "d")
    tau = check_cycle(degree, integers(tau, "tau"))
    sigmas = tuple(check_cycle(degree, integers(s, "sigmas")) for s in array(sigmas, "sigmas"))
    genus(tau.length, [s.length for s in sigmas])  # names a bad type before the product
    f = Factorization(tau, sigmas)
    if not validate(f):
        raise ValueError("not a factorization: the ordered product is not tau")
    return f
