"""Composition enumeration shared by the exact-enumeration code paths."""
from __future__ import annotations

import itertools

import numpy as np


def compositions_array(total: int, parts: int) -> np.ndarray:
    """All vectors of ``parts`` non-negative integers summing to ``total``.

    Rows are emitted in lexicographic order of the count vector; shape
    (C(total + parts - 1, parts - 1), parts).
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    dividers = np.array(
        list(itertools.combinations(range(total + parts - 1), parts - 1)),
        dtype=np.int64,
    )
    padded = np.hstack([
        np.full((len(dividers), 1), -1, dtype=np.int64),
        dividers,
        np.full((len(dividers), 1), total + parts - 1, dtype=np.int64),
    ])
    return np.diff(padded, axis=1) - 1

