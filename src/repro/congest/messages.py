"""Message payloads and CONGEST size accounting.

Payloads are plain tuples whose first element is a string tag, e.g.
``("apsp", d, s, sigma)`` for Algorithm 3's forward message or
``("acc", s, m)`` for Algorithm 5's dependency message.  A CONGEST message
carries O(log n) bits ≈ O(1) machine words; :func:`payload_words` charges
one word per non-tag element so the statistics can report both message
counts and total word volume.

The model permits a vertex to combine a *constant* number of values into a
single message (paper §3.3: the parallel BFS of Step 1 "never sends more
than a constant number of values ... combine all these values into a single
O(B)-bit message").  :class:`MessageStats` therefore tracks channel messages
(what the round/message bounds of Theorem 1 count) and raw values
separately, and the network enforces a per-channel combining cap.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

#: Maximum number of payload values a vertex may combine into the single
#: message it sends on one channel in one round.  Algorithm 3 needs at most
#: one APSP value plus a few control values (BFS tree / finalizer).
MAX_COMBINED_VALUES = 6


def payload_words(payload: tuple[Any, ...]) -> int:
    """Number of machine words a payload occupies (tag excluded)."""
    return max(1, len(payload) - 1)


@dataclass
class MessageStats:
    """Aggregate message accounting for one network run."""

    #: Channel-level messages (≤ 1 per directed channel per round).
    messages: int = 0
    #: Individual tagged values carried inside those messages.
    values: int = 0
    #: Total machine words across all values.
    words: int = 0
    #: Per-tag value counts, e.g. how many "apsp" vs "bfs" values flowed.
    by_tag: dict[str, int] = field(default_factory=dict)

    def record_channels(
        self, messages: int, values: int, words: int, tags: Mapping[str, int]
    ) -> None:
        """Record a round's channel-sends at once: ``messages`` channels
        carrying ``values`` values of ``words`` words in all, with
        ``tags`` counting values per tag (first-occurrence order)."""
        self.messages += messages
        self.values += values
        self.words += words
        by_tag = self.by_tag
        for tag, n in tags.items():
            by_tag[tag] = by_tag.get(tag, 0) + n

    def record_channel(self, payloads: list[tuple[Any, ...]]) -> None:
        """Record one channel-send of a combined list of payloads."""
        self.record_channels(
            1, len(payloads), sum(map(payload_words, payloads)), Counter(p[0] for p in payloads)
        )

    def count_for_tag(self, tag: str) -> int:
        """Number of values sent with the given tag."""
        return self.by_tag.get(tag, 0)
