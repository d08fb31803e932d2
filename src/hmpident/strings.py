"""Canonical enumeration of binary strings.

Strings over {0, 1} are ordered shortest first, lexicographically within each
length, with the empty string first.  The string of length L at index i is
2^L + i in base 2 without its leading 1, so the canonical order is the order
of those integers; the index-based table layout relies on this.
"""
from __future__ import annotations

from .errors import AlphabetError


def check_binary(v: str):
    """Raise AlphabetError if v contains a character outside {0, 1}."""
    if not set(v) <= {"0", "1"}:
        raise AlphabetError(f"not a binary string: {v!r}")


def string_index(v: str) -> int:
    """Index of v among the 2^len(v) strings of its length."""
    return int(v, 2) if v else 0


def string_name(index: int, length: int) -> str:
    """The string of the given length whose base-2 value is index."""
    return format(2 ** length + index, "b")[1:]


def strings_of_length(length: int) -> list[str]:
    return [format(i, "b")[1:] for i in range(2 ** length, 2 ** (length + 1))]


def strings_up_to(max_len: int) -> list[str]:
    """All 2^(max_len+1) - 1 strings of length <= max_len, canonical order."""
    return [format(i, "b")[1:] for i in range(1, 2 ** (max_len + 1))]
