"""Size caps for searches, overridable through the LINSYS_CAPS env var.

LINSYS_CAPS holds comma-separated key=value pairs, for example
``LINSYS_CAPS="solver_points=256,iso_points=128"``. Unknown keys are
rejected so typos do not silently fall back to defaults.
"""

import os
from dataclasses import dataclass, fields, replace

CAPS_ENV = "LINSYS_CAPS"


@dataclass(frozen=True)
class Caps:
    field_order: int = 256
    plane_order: int = 16
    solver_points: int = 128
    solver_lines: int = 128
    iso_points: int = 64
    derive_subsets: int = 200_000
    # LinearSystem: declared points, and point pairs on lines (sum of
    # C(|l|, 2)), each bounded before it is allocated
    system_points: int = 100_000
    system_pairs: int = 1_000_000

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"cap {f.name} must be positive")


DEFAULT_CAPS = Caps()
_FIELD_NAMES = {f.name for f in fields(Caps)}


def caps_from_env(env: str | None = None) -> Caps:
    """Build the active caps, applying LINSYS_CAPS overrides if present."""
    raw = os.environ.get(CAPS_ENV, "") if env is None else env
    caps = DEFAULT_CAPS
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in _FIELD_NAMES:
            raise ValueError(f"bad {CAPS_ENV} entry {item!r}")
        try:
            caps = replace(caps, **{key: int(value)})
        except ValueError:
            # int() rejects non-integers, Caps rejects values below 1
            raise ValueError(f"bad {CAPS_ENV} entry {item!r}") from None
    return caps
