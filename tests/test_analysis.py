"""Array analyses: malformed inputs are refused with DataError, never numpy's own errors."""

import numpy as np
import pytest

from xrhead.analysis import analyze_embeddings, project_2d
from xrhead.errors import DataError


def test_project_2d_refuses_non_finite_rows():
    for bad in (np.nan, np.inf):
        emb = np.arange(12.0).reshape(4, 3)
        emb[1, 2] = bad
        with pytest.raises(DataError, match="finite"):
            project_2d(emb)


@pytest.mark.parametrize("analysis", [analyze_embeddings, project_2d])
def test_analyses_refuse_arrays_that_are_not_numbers(analysis):
    for bad in (np.array([["1.0", "2.0"]] * 4), np.array([[None, 1.0]] * 4)):
        with pytest.raises(DataError, match="numeric"):
            analysis(bad)


def test_analyze_refuses_bins_that_are_not_integers():
    emb = np.arange(12.0).reshape(4, 3)
    for bad in (2.5, True, "3"):
        with pytest.raises(DataError, match="bins must be an integer"):
            analyze_embeddings(emb, bins=bad)
    assert analyze_embeddings(emb, bins=np.int64(2))["counts"].tolist() == [0, 4]
