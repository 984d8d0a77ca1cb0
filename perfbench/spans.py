"""Spans around calls into the package's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function in every cyclefactor module
namespace that binds it (and a traced method on its class), so calls the
package makes internally get their own spans too: ``has_cicpp`` inside
``phi_labeled`` is a child of ``phi_labeled``.  ``uninstall`` restores the
originals, so untraced rounds run the package's own functions.

A span is (id, name, start, end, parent id).  Spans stay in memory and are
written out when the run ends; calls and self time per name are added up as
spans close, so they stay exact when the span store is full.  A function
that returns a generator also gets one span per resumption, under the same
name but without counting a call, because its work happens as the caller
pulls items.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter_ns

# (module, attribute path) of every traced function, as <module>.<name> in metrics.
TRACED = (
    ("cli", "main"),
    ("factorization", "enumerate_factorizations"),
    ("factorization", "count_factorizations"),
    ("factorization", "factorization_to_json"),
    ("factorization", "validate"),
    ("perm", "product"),
    ("perm", "compose"),
    ("graph", "graph_of"),
    ("graph", "factorization_of"),
    ("graph", "characterization_failure"),
    ("graph", "has_cicpp"),
    ("graph", "FactorizationGraph.components_without"),
    ("bijection", "phi_labeled"),
    ("bijection", "psi"),
    ("bijection", "unique_labeling"),
    ("trees", "mnr_decode"),
    ("trees", "mnr_encode"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)

# Spans kept for the dump; later spans are still counted and timed.
MAX_STORED_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.items = [0] * len(NAMES)  # items yielded by generator results
        self._columns = tuple(array("q") for _ in range(5))
        self._next_id = 0
        self._stack: list[list[int]] = []  # [id, name index, start, child ns]
        self._restore: list[tuple[object, str, object]] = []

    @property
    def spans_dropped(self) -> int:
        return self._next_id - len(self._columns[0])

    def _open(self, index: int) -> None:
        self._stack.append([self._next_id, index, perf_counter_ns(), 0])
        self._next_id += 1

    def _close(self) -> None:
        end = perf_counter_ns()
        span_id, index, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[index] += duration - child_ns
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self._columns[0]) < MAX_STORED_SPANS:
            for column, value in zip(self._columns, (span_id, index, start, end, parent)):
                column.append(value)

    def _resumed(self, index: int, gen):
        while True:
            self._open(index)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close()
            self.items[index] += 1
            yield item

    def _wrap(self, index: int, fn):
        def traced(*args, **kwargs):
            self.calls[index] += 1
            self._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if inspect.isgenerator(result):
                return self._resumed(index, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function wherever a cyclefactor module binds it."""
        modules = [
            m for name, m in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        for index, (module_name, attr) in enumerate(TRACED):
            owner = getattr(package, module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(index, original)
            targets = [owner] if path else [m for m in modules if vars(m).get(leaf) is original]
            for target in targets:
                self._restore.append((target, leaf, original))
                setattr(target, leaf, wrapper)

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._restore):
            setattr(target, leaf, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Dump the stored spans as tab-separated values, times in ns."""
        with open(path, "w") as out:
            out.write(f"# spans: {self._next_id}, not stored: {self.spans_dropped}\n")
            out.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for span_id, index, start, end, parent in zip(*self._columns):
                out.write(f"{span_id}\t{NAMES[index]}\t{start}\t{end}\t{parent}\n")
