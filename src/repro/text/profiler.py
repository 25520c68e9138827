"""String profiling: abstract a set of strings into regex patterns.

The image-domain region DSL (Figure 6) uses ``Relative`` motions that move
until a text box matches a *pattern*.  The paper enumerates "a finite set of
regular expression patterns generated using a string profiling technique
[11, 40] over all the common and field text values present in the cluster" —
e.g. profiling a cluster of invoices yields ``[0-9]{13}`` for engine numbers.

This module implements a FlashProfile-style abstraction: each string is
tokenized into runs of character classes, runs are abstracted into
quantified classes, and identical abstractions are merged with counts.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

_CLASS_OF_CHAR = {}


def _char_class(ch: str) -> str:
    """The regex character class of a single character."""
    cached = _CLASS_OF_CHAR.get(ch)
    if cached is not None:
        return cached
    if ch.isdigit():
        cls = "[0-9]"
    elif ch.isalpha() and ch.isupper():
        cls = "[A-Z]"
    elif ch.isalpha():
        cls = "[a-z]"
    elif ch.isspace():
        cls = r"\s"
    else:
        cls = re.escape(ch)
    _CLASS_OF_CHAR[ch] = cls
    return cls


@dataclass(frozen=True)
class Profile:
    """A regex pattern together with how many sample strings it covers."""

    pattern: str
    support: int

    def regex(self) -> re.Pattern[str]:
        return re.compile(self.pattern)

    def matches(self, text: str) -> bool:
        return self.regex().fullmatch(text) is not None


@functools.lru_cache(maxsize=8192)
def profile_string(text: str, exact_lengths: bool = True) -> str:
    """Abstract ``text`` into a regex of quantified character classes.

    With ``exact_lengths=True`` runs keep their exact length (``[0-9]{13}``);
    otherwise they become ``+`` quantified (``[0-9]+``), which trades
    specificity for generality.

    Pure in its arguments, so results are cached (bounded): every field
    task of a cluster profiles the same page texts again.
    """
    if not text:
        return ""
    pieces: list[str] = []
    run_class = _char_class(text[0])
    run_length = 1
    for ch in text[1:]:
        cls = _char_class(ch)
        if cls == run_class:
            run_length += 1
        else:
            pieces.append(_quantify(run_class, run_length, exact_lengths))
            run_class, run_length = cls, 1
    pieces.append(_quantify(run_class, run_length, exact_lengths))
    return "".join(pieces)


def _quantify(cls: str, length: int, exact: bool) -> str:
    if length == 1:
        return cls
    if exact:
        return f"{cls}{{{length}}}"
    return f"{cls}+"


def profile_strings(
    texts: Iterable[str], min_support: int = 2, max_profiles: int = 20
) -> list[Profile]:
    """Profile a corpus of strings into the most frequent patterns.

    Both exact-length and ``+``-generalized abstractions are produced, so
    that fixed-width identifiers yield e.g. ``[0-9]{13}`` while variable
    width values yield ``[0-9]+`` style patterns.  Patterns are returned by
    decreasing support, ties broken by pattern specificity (longer pattern
    first) for determinism.
    """
    counts: Counter[str] = Counter()
    for text in texts:
        text = text.strip()
        if not text:
            continue
        counts[profile_string(text, exact_lengths=True)] += 1
        counts[profile_string(text, exact_lengths=False)] += 1

    profiles = [
        Profile(pattern, support)
        for pattern, support in counts.items()
        if support >= min_support
    ]
    profiles.sort(key=lambda p: (-p.support, -len(p.pattern), p.pattern))
    return profiles[:max_profiles]


def patterns_for_cluster(
    common_values: Sequence[str],
    field_values: Sequence[str],
    max_patterns: int = 16,
) -> list[str]:
    """Candidate DSL patterns for a cluster (Figure 6 ``pattern`` terminals).

    The budget is split three ways: the field's own profiles (``Relative``
    motions often stop *at* the value), digit-bearing profiles of other
    values on the page (the engine-number / date stop patterns of Example
    5.3 — these discriminate, label prose does not), and remaining common
    profiles.
    """
    field_profiles = profile_strings(field_values, min_support=1)
    common_profiles = profile_strings(common_values, min_support=2)
    digit_profiles = [
        profile for profile in common_profiles if "[0-9]" in profile.pattern
    ]
    other_profiles = [
        profile
        for profile in common_profiles
        if "[0-9]" not in profile.pattern
    ]
    third = max(1, max_patterns // 3)
    ordered = (
        field_profiles[:third]
        + digit_profiles[: 2 * third]
        + other_profiles
        + field_profiles[third:]
        + digit_profiles[2 * third:]
    )
    patterns: list[str] = []
    for profile in ordered:
        if profile.pattern not in patterns:
            patterns.append(profile.pattern)
        if len(patterns) >= max_patterns:
            break
    return patterns
