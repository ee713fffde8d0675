"""Serialization of linear systems.

JSON: {"name": optional string, "num_points": int, "lines": [[ints]]}.
Text: header line "n m" followed by m lines of space-separated points.
Dumps are canonical (sorted keys, compact separators, sorted lines) so
identical systems produce identical bytes. Loaders validate through the
LinearSystem constructor, so linearity violations surface with the
offending line pair, and under its size caps (the CLI passes the caps
LINSYS_CAPS sets).
"""

import json
from typing import Union

from .core import _INT, LinearSystem
from .errors import FormatError
from .field import _is_int
from .limits import DEFAULT_CAPS, Caps


def system_to_dict(sys: LinearSystem) -> dict:
    out = {
        "num_points": sys.num_points,
        "lines": [list(l) for l in sys.line_tuples],
    }
    if sys.name is not None:
        out["name"] = sys.name
    return out


def system_from_dict(data: dict, caps: Caps = DEFAULT_CAPS) -> LinearSystem:
    if not isinstance(data, dict):
        raise FormatError(f"expected a JSON object, got {type(data).__name__}")
    if "num_points" not in data:
        raise FormatError('missing required key "num_points"')
    if "lines" not in data:
        raise FormatError('missing required key "lines"')
    n = data["num_points"]
    if not _is_int(n):
        raise FormatError('"num_points" must be an integer')
    lines = data["lines"]
    if not isinstance(lines, list) or any(
        not isinstance(l, list) for l in lines
    ):
        raise FormatError('"lines" must be a list of lists')
    for i, l in enumerate(lines):
        if not _INT.issuperset(map(type, l)):
            for x in l:
                if not _is_int(x):
                    raise FormatError(
                        f"line {i} contains a non-integer entry of type {type(x).__name__}"
                    )
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise FormatError('"name" must be a string when present')
    return LinearSystem(n, lines, name, caps)


def dumps_json(sys: LinearSystem) -> str:
    return json.dumps(system_to_dict(sys), sort_keys=True, separators=(",", ":"))


def loads_json(text: Union[str, bytes], caps: Caps = DEFAULT_CAPS) -> LinearSystem:
    # besides JSONDecodeError, undecodable bytes and integers past str()'s
    # digit limit raise ValueError, and nesting past the recursion limit
    # RecursionError
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"invalid JSON: {e}") from e
    return system_from_dict(data, caps)


def dumps_text(sys: LinearSystem) -> str:
    rows = [f"{sys.num_points} {sys.num_lines}"]
    rows.extend(" ".join(str(v) for v in l) for l in sys.line_tuples)
    return "\n".join(rows) + "\n"


def loads_text(text: str, caps: Caps = DEFAULT_CAPS) -> LinearSystem:
    rows = [r.strip() for r in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise FormatError("empty input, expected a header line 'n m'")
    header = rows[0].split()
    if len(header) != 2:
        raise FormatError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as e:
        raise FormatError(f"header must be two integers, got {rows[0]!r}") from e
    body = rows[1:]
    if len(body) != m:
        raise FormatError(f"header announces {m} lines, found {len(body)}")
    lines = []
    for i, row in enumerate(body):
        try:
            lines.append([int(tok) for tok in row.split()])
        except ValueError as e:
            raise FormatError(f"line {i} has a non-integer token: {row!r}") from e
    return LinearSystem(n, lines, caps=caps)


def plane_to_dict(plane) -> dict:
    """Core JSON plus a "coords" field with the normalized point triples
    (each coordinate a field element encoded as an integer)."""
    out = system_to_dict(plane.system)
    out["coords"] = [list(c) for c in plane.point_coords]
    return out


def dumps_plane_json(plane) -> str:
    return json.dumps(plane_to_dict(plane), sort_keys=True, separators=(",", ":"))
