"""Key-value text configuration format.

One `key = value` pair per line. A line whose first non-blank character is
`#` is a comment, and blank lines are ignored; a `#` anywhere else is part
of the value (`name = H100 #2` reads as `H100 #2`).
Used for hardware profiles, model specs, and coefficient files so that every
configurable input is a plain, diffable text file. A file is UTF-8 text; one
leading byte-order mark (U+FEFF) is dropped, as the trace reader drops one.

Each file's schema is the frozen dataclass it is read into (`read_fields`):
its keys are the field names, each field's annotation (`float`, `int`,
`int | None`, `bool` or `str`) gives the conversion of its value, and a field
with a default may be omitted unless the field says a file must state it
(`field(default=..., metadata={"required": True})`).
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Iterable, Mapping

from .errors import ConfigError


def parse_kv(text: str) -> dict[str, str]:
    """Parse key-value text into a mapping of raw string values, in file order."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_kv_file(path) -> dict[str, str]:
    try:
        if hasattr(path, "read_text"):
            return parse_kv(path.read_text(encoding="utf-8-sig"))
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_kv(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def format_kv(pairs: Iterable[tuple[str, str]], header: str = "") -> str:
    """Render pairs as key-value text, optionally preceded by comment lines."""
    lines = []
    if header:
        lines.extend(f"# {line}".rstrip() for line in header.splitlines())
    lines.extend(f"{key} = {value}" for key, value in pairs)
    return "\n".join(lines) + "\n"


def _bool(text: str) -> bool:
    value = text.lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ValueError(text)


# annotation text (as `from __future__ import annotations` leaves `Field.type`)
# -> (conversion, what a value must be)
_CONVERSIONS = {
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "int | None": (int, "an integer"),
    "bool": (_bool, "a boolean"),
    "str": (str, "text"),
}


def read_fields(cls, kv: Mapping[str, str], what: str, prefix: str = ""):
    """Build the dataclass `cls` from raw pairs keyed by its field names.
    `prefix` is what the file writes before each name (a coefficient group),
    so that every message names the key as the file has it. An unknown or
    missing key, an unreadable value or a ValueError of the constructor
    raises one ConfigError; the constructor's message is kept after the
    prefix, so one that begins with a field name names its key."""
    schema = fields(cls)
    unknown = kv.keys() - {f.name for f in schema}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(prefix + key for key in unknown)}")
    values = {}
    for f in schema:
        if f.name in kv:
            convert, expected = _CONVERSIONS[f.type]
            try:
                values[f.name] = convert(kv[f.name])
            except ValueError:
                raise ConfigError(f"key {prefix + f.name!r}: {kv[f.name]!r} is not {expected}") from None
        elif (f.default is MISSING and f.default_factory is MISSING) or f.metadata.get("required"):
            raise ConfigError(f"missing required key {prefix + f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from None
