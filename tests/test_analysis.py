"""Array analyses: malformed inputs are refused with DataError, never numpy's own errors."""

import numpy as np
import pytest

import bruteforce
from xrhead.analysis import (
    analyze_embeddings,
    attention_alignment,
    mutual_information,
    project_2d,
)
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


def test_attention_alignment_refuses_no_samples():
    with pytest.raises(DataError, match="no samples"):
        attention_alignment([])


def test_analyze_refuses_bins_that_are_not_integers():
    emb = np.arange(12.0).reshape(4, 3)
    for bad in (2.5, True, "3"):
        with pytest.raises(DataError, match="bins must be an integer"):
            analyze_embeddings(emb, bins=bad)
    assert analyze_embeddings(emb, bins=np.int64(2))["counts"].tolist() == [0, 4]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutual_information_matches_the_loop_oracle(seed):
    # y copies x in about two thirds of the entries, so the MI is far from 0
    # and a relative tolerance means something
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 5, size=200)
    y = np.where(rng.random(200) < 0.65, x, rng.integers(0, 4, size=200))
    want = bruteforce.mutual_information(x.tolist(), y.tolist())
    assert want > 0.3
    assert mutual_information(x, y) == pytest.approx(want, rel=1e-14, abs=0.0)
