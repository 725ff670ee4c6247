"""Text tokenization utilities for the documentation miner.

The real pipeline uses NLTK for sentence splitting and tokenization; the
community documentation we must parse is line-oriented (IRR remarks,
HTML tables flattened to text), so line splitting plus lightweight word
tokenization covers the same ground.
"""

from __future__ import annotations

import re


def split_lines(text: str) -> list[str]:
    """Split a document into non-empty, stripped lines.

    IRR ``remarks:`` prefixes are removed so downstream stages see the
    payload only.
    """
    out: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.lower().startswith("remarks:"):
            line = line[len("remarks:") :].strip()
        if line:
            out.append(line)
    return out


def normalize_tokens(text: str) -> tuple[str, ...]:
    """Lowercased alphanumeric tokens for fuzzy entity matching.

    Splits on any non-alphanumeric character, so "Harbour Exchange 8&9"
    and "HARBOUR - EXCHANGE 8 9" normalise to comparable tuples.
    """
    return tuple(t for t in re.split(r"[^a-z0-9]+", text.lower()) if t)
