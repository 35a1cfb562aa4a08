import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from surrotest.errors import LengthError, ParameterError
from surrotest.stats import binomial_test, representative_accuracy, smooth


def oracle_p_value(k, n):
    """Brute-force two-sided p-value by direct probability-mass summation."""
    pmf = [Fraction(math.comb(n, i), 2**n) for i in range(n + 1)]
    lower = sum(pmf[: k + 1])
    upper = sum(pmf[k:])
    return float(min(Fraction(1), 2 * min(lower, upper)))


# ---------------------------------------------------------------------------
# binomial_test
# ---------------------------------------------------------------------------

def test_all_successes_closed_form():
    for n in (1, 5, 10, 30):
        res = binomial_test(n, n)
        assert res.p_value == pytest.approx(min(1.0, 2.0 * 0.5**n), rel=1e-12)


def test_balanced_split_caps_at_one():
    assert binomial_test(125, 250).p_value == 1.0


def test_strong_rejection_deep_tail():
    res = binomial_test(245, 250)
    assert res.p_value < 1e-50
    assert res.reject


def test_matches_oracle_exhaustively():
    for n in range(1, 65):
        for k in range(n + 1):
            assert binomial_test(k, n).p_value == oracle_p_value(k, n), (k, n)


def test_symmetry_around_half():
    for n in (7, 20, 33):
        for k in range(n + 1):
            assert binomial_test(k, n).p_value == binomial_test(n - k, n).p_value


@pytest.mark.parametrize("n", [500, 1000])
def test_matches_oracle_at_verdict_sizes(n):
    # A full-size verdict tests 500 items; the oracle sums all n + 1 masses.
    for k in (0, 1, n // 2, n // 2 + 37, n):
        assert binomial_test(k, n).p_value == oracle_p_value(k, n), (k, n)


def test_binomial_validates_inputs():
    with pytest.raises(ParameterError):
        binomial_test(3, 0)
    with pytest.raises(ParameterError):
        binomial_test(5, 4)
    with pytest.raises(ParameterError):
        binomial_test(-1, 4)


def test_reject_flag_threshold():
    assert binomial_test(250, 250).reject
    assert not binomial_test(126, 250).reject


# ---------------------------------------------------------------------------
# smooth
# ---------------------------------------------------------------------------

def test_smooth_constant_curve():
    assert np.array_equal(smooth(np.full(12, 3.5), 5), np.full(12, 3.5))


def test_smooth_trailing_average():
    out = smooth([0.0, 0.0, 0.0, 0.0, 5.0], 5)
    assert out[-1] == pytest.approx(1.0)
    # Prefix points average over what exists so far.
    assert np.allclose(out[:4], 0.0)


def test_smooth_window_one_is_identity():
    curve = np.random.default_rng(0).normal(size=20)
    assert np.array_equal(smooth(curve, 1), curve)


def test_smooth_stays_in_range():
    curve = np.random.default_rng(1).normal(size=50)
    out = smooth(curve, 5)
    assert out.min() >= curve.min() - 1e-12
    assert out.max() <= curve.max() + 1e-12


def test_smooth_rejects_empty_and_bad_window():
    with pytest.raises(LengthError):
        smooth([], 5)
    with pytest.raises(ParameterError):
        smooth([1.0], 0)


# ---------------------------------------------------------------------------
# representative_accuracy
# ---------------------------------------------------------------------------

@dataclass
class FakeReport:
    train_loss_s5: list = field(default_factory=list)
    val_loss_s5: list = field(default_factory=list)
    test_acc_s5: list = field(default_factory=list)


def test_representative_monotone_losses_pick_last():
    n = 20
    rep = FakeReport(
        train_loss_s5=list(np.linspace(1.0, 0.1, n)),
        val_loss_s5=list(np.linspace(1.2, 0.2, n)),
        test_acc_s5=list(np.linspace(0.5, 0.9, n)),
    )
    epoch, acc = representative_accuracy(rep)
    assert epoch == n
    assert acc == pytest.approx(0.9)


def test_representative_interior_minimum():
    losses = [1.0, 0.8, 0.6, 0.5, 0.45, 0.42, 0.41, 0.40, 0.55, 0.7]
    rep = FakeReport(train_loss_s5=losses, val_loss_s5=losses,
                     test_acc_s5=[0.5 + 0.01 * i for i in range(10)])
    epoch, acc = representative_accuracy(rep)
    assert epoch == 8  # 1-based position of the combined-loss minimum
    assert acc == pytest.approx(0.57)


def test_representative_tie_takes_earliest():
    losses = [0.5, 0.3, 0.4, 0.3, 0.6]
    rep = FakeReport(train_loss_s5=losses, val_loss_s5=[0.0] * 5,
                     test_acc_s5=[0.1, 0.2, 0.3, 0.4, 0.5])
    epoch, acc = representative_accuracy(rep)
    assert epoch == 2
    assert acc == pytest.approx(0.2)


def test_representative_rejects_empty():
    with pytest.raises(LengthError):
        representative_accuracy(FakeReport())
