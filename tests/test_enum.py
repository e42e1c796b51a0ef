import itertools

import numpy as np
import pytest

from gibbslab._enum import compositions_array


def compositions_by_dividers(total, parts):
    """Independent reference: stars and bars, the parts - 1 dividers placed
    by ``itertools.combinations`` in lexicographic order."""
    if parts == 1:
        return np.array([[total]])
    dividers = np.array(list(itertools.combinations(range(total + parts - 1), parts - 1)))
    padded = np.hstack([np.full((len(dividers), 1), -1), dividers,
                        np.full((len(dividers), 1), total + parts - 1)])
    return np.diff(padded, axis=1) - 1


@pytest.mark.parametrize("parts", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("total", [0, 1, 2, 5, 9])
def test_matches_itertools_in_lexicographic_order(total, parts):
    rows = compositions_array(total, parts)
    assert rows.dtype == np.int64
    np.testing.assert_array_equal(rows, compositions_by_dividers(total, parts))


def test_large_lattice():
    # the 4-node scan oracle's lattice at step 0.01
    rows = compositions_array(100, 4)
    assert rows.shape == (176851, 4)
    np.testing.assert_array_equal(rows, compositions_by_dividers(100, 4))


@pytest.mark.parametrize("total, parts", [(3, 0), (-1, 2)])
def test_invalid_arguments_rejected(total, parts):
    with pytest.raises(ValueError):
        compositions_array(total, parts)
