"""Key-value text configuration format.

One `key = value` pair per line. A line whose first non-blank character is
`#` is a comment, and blank lines are ignored; a `#` anywhere else is part
of the value (`name = H100 #2` reads as `H100 #2`).
Used for hardware profiles, model specs, and coefficient files so that every
configurable input is a plain, diffable text file.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from .errors import ConfigError


def parse_kv(text: str) -> "OrderedDict[str, str]":
    """Parse key-value text into an ordered mapping of raw string values."""
    out: "OrderedDict[str, str]" = OrderedDict()
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


def read_kv_file(path) -> "OrderedDict[str, str]":
    if hasattr(path, "read_text"):
        return parse_kv(path.read_text(encoding="utf-8"))
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv(fh.read())


def format_kv(pairs: Iterable[tuple[str, str]], header: str = "") -> str:
    """Render pairs as key-value text, optionally preceded by comment lines."""
    lines = []
    if header:
        lines.extend(f"# {line}".rstrip() for line in header.splitlines())
    lines.extend(f"{key} = {value}" for key, value in pairs)
    return "\n".join(lines) + "\n"


def get_float(kv: dict, key: str, default: float | None = None) -> float:
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {kv[key]!r} is not a number") from None


def get_int(kv: dict, key: str, default: int | None = None) -> int:
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {kv[key]!r} is not an integer") from None


def get_bool(kv: dict, key: str, default: bool) -> bool:
    if key not in kv:
        return default
    value = kv[key].lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ConfigError(f"key {key!r}: {kv[key]!r} is not a boolean")
