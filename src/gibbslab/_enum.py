"""Composition enumeration shared by the exact-enumeration code paths."""
from __future__ import annotations

import numpy as np


def _segment_ranges(lengths: np.ndarray) -> np.ndarray:
    """0, 1, .., L_0 - 1, 0, 1, .., L_1 - 1, ...: a range per segment, concatenated."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) - np.repeat(starts, lengths)


def compositions_array(total: int, parts: int) -> np.ndarray:
    """All vectors of ``parts`` non-negative integers summing to ``total``.

    Rows are emitted in lexicographic order of the count vector; shape
    (C(total + parts - 1, parts - 1), parts).

    Built from the last column leftwards, with no loop over rows.  After k
    columns the table holds every composition into k parts of every total
    s <= ``total``, grouped by s and lexicographic within a group.  A table of
    k + 1 columns puts, for each total t and each head h = 0..t in turn, h in
    front of the group of total t - h; the last step needs t = ``total`` only.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    rows = np.arange(total + 1, dtype=np.int64)[:, None]
    group = np.ones(total + 1, dtype=np.int64)      # rows of each total s
    for k in range(1, parts):
        totals = np.arange(total + 1) if k < parts - 1 else np.array([total])
        heads = _segment_ranges(totals + 1)
        tails = np.repeat(totals, totals + 1) - heads
        sizes = group[tails]
        src = np.repeat(np.cumsum(group)[tails] - sizes, sizes) + _segment_ranges(sizes)
        rows = np.hstack([np.repeat(heads, sizes)[:, None], rows[src]])
        group = np.cumsum(group)
    return rows[-1:] if parts == 1 else rows
