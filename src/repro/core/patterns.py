"""The pattern language behind the selection operator ``σ_p``.

The paper deliberately abstracts over the pattern language: the word index
is a binary predicate ``W(r, p)`` stating that the text stored in region
``r`` contains a match of pattern ``p`` (Section 2.1).  This module supplies
a concrete, PAT-flavoured pattern language for indexes built from real
text:

* ``word``      — a literal token match (``σ_"x"``),
* ``pref*``     — a prefix match, PAT's most common idiom,
* anything containing ``*`` or ``?`` elsewhere — a glob over tokens.

Pattern strings are parsed once with :func:`parse_pattern`; synthetic
instances (whose word index is an explicit labelling) bypass this module
entirely and treat pattern strings as opaque labels.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass

from repro.errors import PatternError

__all__ = [
    "Pattern",
    "LiteralPattern",
    "PrefixPattern",
    "GlobPattern",
    "parse_pattern",
]


@dataclass(frozen=True, slots=True)
class Pattern:
    """Base class for parsed patterns.  ``source`` is the original string."""

    source: str

    def matches_token(self, token: str) -> bool:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class LiteralPattern(Pattern):
    """Matches a token exactly (case-sensitive, as in PAT)."""

    def matches_token(self, token: str) -> bool:
        return token == self.source


@dataclass(frozen=True, slots=True)
class PrefixPattern(Pattern):
    """Matches tokens starting with ``prefix`` (the PAT ``word*`` idiom)."""

    prefix: str = ""

    def matches_token(self, token: str) -> bool:
        return token.startswith(self.prefix)


@dataclass(frozen=True, slots=True)
class GlobPattern(Pattern):
    """Matches tokens against a shell-style glob (``*`` and ``?``)."""

    regex: "re.Pattern[str] | None" = None

    def matches_token(self, token: str) -> bool:
        assert self.regex is not None
        return self.regex.fullmatch(token) is not None


def parse_pattern(source: str) -> Pattern:
    """Parse a pattern string into its most specific :class:`Pattern` form.

    Raises :class:`~repro.errors.PatternError` for empty patterns or
    patterns that match every token (a bare ``*`` would defeat the point of
    the word index, and PAT rejects it too).
    """
    if not source:
        raise PatternError("empty pattern")
    if source == "*":
        raise PatternError("pattern '*' would match every token")
    if "*" not in source and "?" not in source:
        return LiteralPattern(source)
    if source.endswith("*") and not any(ch in source[:-1] for ch in "*?"):
        return PrefixPattern(source, prefix=source[:-1])
    return GlobPattern(source, regex=re.compile(fnmatch.translate(source)))
