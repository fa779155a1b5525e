"""Small shared helpers."""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone


def parse_timestamp(text: str) -> datetime | None:
    """Lenient ISO-8601 parse; naive values are taken as UTC; None if unusable."""
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(cleaned)
    except ValueError:
        return None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def parse_digits(text: str) -> int:
    """``text`` as a number; ValueError unless it is ASCII digits (int()
    would take "-5", " 5" or "٣") that int() converts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a number in ASCII digits: {text!r}")
    return int(text)


def content_tag(*parts: str) -> str:
    """Short stable tag derived from the given strings."""
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return digest[:12]
