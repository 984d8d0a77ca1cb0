"""A size-20 worked example exercising every stage of the pipeline.

One factorization of the 20-cycle into factors of lengths (2, 3, 2, 3, 3, 4,
4, 2, 5), together with the canonical JSON of its support graph, its folded
tree (plain and labeled), and the tree's codec matrix.  Regression tests
compare serialized output byte-for-byte against these strings.
"""

from __future__ import annotations

import json

from .factorization import Factorization
from .perm import Cycle, standard_cycle

SIGMA_ELEMENTS = (
    (10, 11),
    (14, 15, 19),
    (1, 19),
    (3, 4, 5),
    (1, 2, 13),
    (15, 16, 17, 18),
    (7, 8, 9, 11),
    (19, 20),
    (2, 5, 6, 11, 12),
)

D = 20


def factorization() -> Factorization:
    sigmas = tuple(Cycle(D, elems) for elems in SIGMA_ELEMENTS)
    return Factorization(standard_cycle(D), sigmas)


def dumps(data: dict) -> str:
    """The canonical one-line serialization used for golden comparisons."""
    return json.dumps(data, separators=(",", ":")) + "\n"


FACTORIZATION_JSON = dumps(
    {
        "d": D,
        "tau": list(range(1, D + 1)),
        "sigmas": [list(s) for s in SIGMA_ELEMENTS],
    }
)

GRAPH_JSON = dumps(
    {
        "d": D,
        "S": [21, 22, 23, 24, 25, 26, 27, 28, 29],
        "edges": sorted(
            [[20 + j, v] for j, s in enumerate(SIGMA_ELEMENTS, start=1) for v in s]
        ),
        "tau": list(range(1, D + 1)),
    }
)

_MNR_EDGES = [
    {"parent": 0, "child": 23, "beta": 1},
    {"parent": 0, "child": 25, "beta": 1},
    {"parent": 22, "child": 26, "beta": 2},
    {"parent": 23, "child": 22, "beta": 1},
    {"parent": 23, "child": 28, "beta": 1},
    {"parent": 25, "child": 29, "beta": 1},
    {"parent": 29, "child": 21, "beta": 3},
    {"parent": 29, "child": 24, "beta": 1},
    {"parent": 29, "child": 27, "beta": 3},
]

MNR_JSON = dumps(
    {
        "S": [21, 22, 23, 24, 25, 26, 27, 28, 29],
        "vertex_data": [1, 1, 2, 1, 2, 2, 3, 3, 1, 4],
        "edges": _MNR_EDGES,
    }
)

_LABELS = {
    "(0,1)": 1,
    "(21,1)": 10,
    "(22,1)": 14,
    "(22,2)": 15,
    "(23,1)": 19,
    "(24,1)": 3,
    "(24,2)": 4,
    "(25,1)": 2,
    "(25,2)": 13,
    "(26,1)": 16,
    "(26,2)": 17,
    "(26,3)": 18,
    "(27,1)": 7,
    "(27,2)": 8,
    "(27,3)": 9,
    "(28,1)": 20,
    "(29,1)": 5,
    "(29,2)": 6,
    "(29,3)": 11,
    "(29,4)": 12,
}

LABELED_MNR_JSON = dumps(
    {
        "S": [21, 22, 23, 24, 25, 26, 27, 28, 29],
        "vertex_data": [1, 1, 2, 1, 2, 2, 3, 3, 1, 4],
        "edges": _MNR_EDGES,
        "labels": _LABELS,
    }
)

MATRIX_JSON = dumps(
    {
        "S": [21, 22, 23, 24, 25, 26, 27, 28, 29],
        "vertex_data": [1, 1, 2, 1, 2, 2, 3, 3, 1, 4],
        "top": [23, 29, 22, 29, 23, 0, 29, 25, 0],
        "bottom": [1, 3, 2, 1, 1, 1, 3, 1, 1],
    }
)
