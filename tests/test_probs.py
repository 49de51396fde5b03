"""Probability-vector validators, the last-axis fold and the max-shifted
softmax."""

import re

import numpy as np
import pytest

from gapcraft.probs import as_conditional, as_distribution, fold_last, softmax

from oracles import reduce_softmax

BIG = 1e308  # two of these overflow a float64 sum while each stays finite


# ---------------------------------------------------------------------------
# validators: exception type and message for every way an input goes wrong
# ---------------------------------------------------------------------------

DISTRIBUTION_CASES = {
    "nan": ([0.5, np.nan, 0.5], "distribution contains non-finite entries"),
    "pos_inf": ([0.5, np.inf], "distribution contains non-finite entries"),
    "pos_and_neg_inf": ([np.inf, -np.inf, 1.0], "distribution contains non-finite entries"),
    "nan_before_negative": ([np.nan, -1.0], "distribution contains non-finite entries"),
    "sum_overflows": ([BIG, BIG], "distribution sums to inf, expected 1"),
    "negative_entry": ([1.1, -0.1], "distribution has negative entries (min -1.000e-01)"),
    "wrong_ndim": ([[1.0]], "distribution must be 1-D, got shape (1, 1)"),
    "empty": ([], "distribution sums to 0.000000000000, expected 1"),
    "bad_sum": ([0.3, 0.3], "distribution sums to 0.600000000000, expected 1"),
}

CONDITIONAL_CASES = {
    "nan": ([[0.5, 0.5], [np.nan, 1.0]], "conditional contains non-finite entries"),
    "pos_inf": ([[0.5, 0.5], [np.inf, 0.0]], "conditional contains non-finite entries"),
    "pos_and_neg_inf": ([[0.5, 0.5], [np.inf, -np.inf]], "conditional contains non-finite entries"),
    "sum_overflows": ([[0.5, 0.5], [BIG, BIG]], "conditional row 1 sums to inf, expected 1"),
    "negative_entry": ([[0.5, 0.5], [1.1, -0.1]], "conditional has negative entries (min -1.000e-01)"),
    "wrong_ndim": ([1.0], "conditional must be 2-D, got shape (1,)"),
    "no_columns": (np.zeros((2, 0)), "conditional row 0 sums to 0.000000000000, expected 1"),
    "bad_row": ([[0.5, 0.5], [0.3, 0.3]], "conditional row 1 sums to 0.600000000000, expected 1"),
}


# summing +inf and -inf, or two huge entries, warns before the ValueError
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("case", sorted(DISTRIBUTION_CASES))
def test_as_distribution_rejects(case):
    value, message = DISTRIBUTION_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        as_distribution(value)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("case", sorted(CONDITIONAL_CASES))
def test_as_conditional_rejects(case):
    value, message = CONDITIONAL_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        as_conditional(value)


def test_as_conditional_accepts_empty_batch():
    out = as_conditional(np.zeros((0, 3)))
    assert out.shape == (0, 3) and out.dtype == np.float64


def test_validators_clip_small_negatives_and_keep_values():
    p = [0.5 + 1e-9, -1e-9, 0.5]
    out = as_distribution(p)
    assert out.dtype == np.float64
    assert np.array_equal(out, [0.5 + 1e-9, 0.0, 0.5])
    rows = as_conditional([p, [0.25, 0.25, 0.5]])
    assert np.array_equal(rows, [[0.5 + 1e-9, 0.0, 0.5], [0.25, 0.25, 0.5]])


def test_validators_use_the_given_name_and_tolerance():
    with pytest.raises(ValueError, match="^source conditional sums to"):
        as_distribution([0.5, 0.4], "source conditional")
    # the sum may miss 1, and an entry fall below 0, by up to 1e-8
    assert np.array_equal(as_distribution([0.5, 0.5 + 5e-9]), [0.5, 0.5 + 5e-9])
    assert np.array_equal(as_distribution([1.0 + 5e-9, -5e-9]), [1.0 + 5e-9, 0.0])
    with pytest.raises(ValueError, match="sums to"):
        as_distribution([0.5, 0.5 + 2e-8])
    with pytest.raises(ValueError, match="negative entries"):
        as_distribution([1.0 + 2e-8, -2e-8])
    with pytest.raises(ValueError, match="^kernel row 0 sums to"):
        as_conditional([[0.5, 0.4]], "kernel")
    assert as_conditional([[0.5, 0.5 + 5e-9]]).shape == (1, 2)
    with pytest.raises(ValueError, match="^conditional row 0 sums to"):
        as_conditional([[0.5, 0.5 + 2e-8]])


# ---------------------------------------------------------------------------
# fold_last and softmax
# ---------------------------------------------------------------------------

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


FOLD_OPS = {"maximum": np.maximum, "add": np.add, "logical_and": np.logical_and}


def _special_values(shape, rng):
    """Normal draws salted with +-0.0, +-inf and NaN, some rows all -0.0."""
    x = rng.normal(size=shape) * 10.0
    pick = rng.random(shape)
    x[pick < 0.15] = -0.0
    x[(pick >= 0.15) & (pick < 0.2)] = 0.0
    x[(pick >= 0.2) & (pick < 0.25)] = np.inf
    x[(pick >= 0.25) & (pick < 0.3)] = -np.inf
    x[(pick >= 0.3) & (pick < 0.33)] = np.nan
    x.reshape(-1, shape[-1])[0] = -0.0
    return x


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("op", sorted(FOLD_OPS))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 10])
@pytest.mark.parametrize("lead", [(1000,), (40, 25), (6, 5)])
def test_fold_last_equals_reduce_bit_for_bit(op, k, lead):
    """Folds (k < 8 on 1000 rows) and the reduce fallback (k >= 8, or 30
    rows, or logical_and, which has no fold) alike, with signed zeros,
    infinities and NaN in the input."""
    ufunc = FOLD_OPS[op]
    rng = np.random.default_rng(k + 10 * len(lead))
    x = _special_values(lead + (k,), rng)
    if ufunc is np.logical_and:
        x = x > 0.0
    folded = fold_last(ufunc, x)
    assert _same_bits(folded, ufunc.reduce(x, axis=-1, keepdims=True))
    assert not np.shares_memory(folded, x)


def test_fold_last_add_of_negative_zeros_is_positive_zero():
    out = fold_last(np.add, np.array([[-0.0, -0.0], [-0.0, 0.0]]))
    assert _same_bits(out, np.zeros((2, 1)))
    assert np.signbit(fold_last(np.maximum, np.array([[-0.0]])))[0, 0]


@pytest.mark.parametrize("shape", [(240, 3), (400, 3, 3), (9, 5), (4, 2, 7), (3, 8), (2, 12)])
def test_softmax_matches_reduce_formula_bit_for_bit(shape):
    x = np.random.default_rng(sum(shape)).normal(size=shape) * 4.0
    assert _same_bits(softmax(x), reduce_softmax(x))
