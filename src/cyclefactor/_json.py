"""Shape checks for decoded JSON input.

The ``*_from_json`` readers take data from outside the program, so every
field is checked for its JSON type before use: a wrong shape raises
``ValueError`` naming the field, never ``TypeError`` from deeper code.
"""

from __future__ import annotations


def mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def fields(data, *keys) -> list:
    """The values of ``keys`` in ``data``, which must be a JSON object holding them."""
    data = mapping(data, "input")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"missing field(s): {', '.join(missing)}")
    return [data[k] for k in keys]


def array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array, got {type(value).__name__}")
    return value


def integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must hold integers, got {value!r}")
    return value


def integers(value, what: str) -> tuple[int, ...]:
    return tuple(integer(x, what) for x in array(value, what))


def pairs(value, what: str) -> list[tuple[int, int]]:
    out = []
    for item in array(value, what):
        pair = integers(item, what)
        if len(pair) != 2:
            raise ValueError(f"{what} must hold pairs, got {item!r}")
        out.append(pair)
    return out
