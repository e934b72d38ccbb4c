"""Runtime caps: explicit limits passed to every exhaustive algorithm."""
from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    """Limits guarding the exhaustive algorithms.

    enum_cap: largest group order for which full element enumeration is allowed.
    iso_cap: largest order accepted by fingerprinting / isomorphism search,
        which run only when two groups of one order must be compared.
    subgroup_limit: abort subgroup enumeration beyond this many subgroups.
    coord_cap: largest coordinate count N accepted by the wreath construction.
    """

    enum_cap: int = 250_000
    iso_cap: int = 20_000
    subgroup_limit: int = 5_000
    coord_cap: int = 24

    def with_updates(self, **kwargs) -> "Caps":
        return replace(self, **kwargs)


DEFAULT_CAPS = Caps()

# Each cap that a flag and an environment variable can raise: its `Caps`
# field, its name in messages and its variable.
_CAP_ROWS = (
    ("enum_cap", "enumeration cap", "CLASSLAB_ENUM_CAP"),
    ("iso_cap", "iso cap", "CLASSLAB_ISO_CAP"),
    ("subgroup_limit", "subgroup limit", "CLASSLAB_SUBGROUP_LIMIT"),
    ("coord_cap", "coordinate cap", "CLASSLAB_COORD_CAP"),
)
_ENV_FIELDS = {var: field_name for field_name, _, var in _CAP_ROWS}


def cap_message(caps: Caps, field_name: str, what: str, size: int) -> str:
    """The message for a size over the cap in a `Caps` field: what was
    measured, the cap's name and value, and its flag and environment variable."""
    name, var = next((n, v) for f, n, v in _CAP_ROWS if f == field_name)
    return (f"{what} {size} exceeds {name} {getattr(caps, field_name)}; "
            f"raise it with --{field_name.replace('_', '-')} or {var}")


def caps_from_env(base: Caps = DEFAULT_CAPS) -> Caps:
    """Apply CLASSLAB_* environment overrides on top of the given base caps."""
    updates = {}
    for var, field_name in _ENV_FIELDS.items():
        raw = os.environ.get(var)
        if raw is None:
            continue
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{var} must be an integer, got {raw!r}") from exc
        if value <= 0:
            raise ValueError(f"{var} must be positive, got {value}")
        updates[field_name] = value
    return base.with_updates(**updates) if updates else base
