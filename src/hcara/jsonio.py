"""JSON encoding of rational data.

Rationals travel as strings like "3/4" (bare integers "3" mean "3/1"); vectors
are arrays of such strings.  Floating-point literals are rejected outright so
no silent rounding can leak into exact predicates.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InputError
from .linear import Vector

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[+-]?\d+)?$")


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"floating-point literal {value!r} rejected; use an exact fraction "
            'string like "1/3"'
        )
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise InputError(
                f"cannot parse rational {value!r}; expected forms like "
                '"3", "-7/2"'
            )
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"cannot parse rational {text[:20]}...: {exc}") from exc
        if den == 0:
            raise InputError(f"zero denominator in {value!r}")
        return Fraction(num, den)
    raise InputError(f"cannot parse rational from {type(value).__name__}")


def rational_to_json(value: Fraction) -> str:
    return str(value)


def vector_from_json(value, dim: int | None = None) -> Vector:
    if not isinstance(value, (list, tuple)) or not value:
        raise InputError(f"expected a nonempty array for a vector, got {value!r}")
    v = tuple(rational_from_json(x) for x in value)
    if dim is not None and len(v) != dim:
        raise InputError(f"expected vector of dimension {dim}, got {len(v)}")
    return v


def vector_to_json(v: Vector) -> list[str]:
    return [str(x) for x in v]


def require_keys(obj, keys, what):
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object for {what}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InputError(f"{what} is missing keys {missing}")


def positive_int(obj, key, what) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f"{what}[{key!r}] must be a positive integer")
    return v


def dump_canonical(obj) -> str:
    """Stable serialization: identical documents are byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an over-long integer
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
