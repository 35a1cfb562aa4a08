import math
from fractions import Fraction

import numpy as np
import pytest

from surrotest import rnn
from surrotest.errors import ParameterError, ParseError
from surrotest.rnn import (SMOOTH_WINDOW, TrainReport, load_report,
                           record_epoch, save_report)
from surrotest.stats import binomial_test


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
# The representative epoch: rnn.record_epoch, the rule that picks the
# accuracy the binomial test is put on
# ---------------------------------------------------------------------------

def recorded(train_loss, val_loss, test_acc) -> TrainReport:
    """A report with the given raw curves, recorded one epoch at a time."""
    report = TrainReport()
    for values in zip(train_loss, val_loss, test_acc):
        record_epoch(report, *values)
    return report


def test_smooth_constant_curve():
    report = recorded(*[[3.5] * 12] * 3)
    for curve in (report.train_loss_s5, report.val_loss_s5,
                  report.test_acc_s5):
        assert curve == [3.5] * 12


def test_smooth_trailing_average():
    curve = [0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 2.0]
    report = recorded(curve, curve, curve)
    # Each point averages the last five values, or the prefix before the
    # fifth epoch.
    assert report.test_acc_s5 == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.4]
    assert SMOOTH_WINDOW == 5
    for i in range(1, 8):
        want = float(np.mean(curve[max(0, i - 5):i]))
        assert report.train_loss_s5[i - 1] == want


def test_smooth_window_one_is_identity(monkeypatch):
    monkeypatch.setattr(rnn, "SMOOTH_WINDOW", 1)
    curve = np.random.default_rng(0).normal(size=20).tolist()
    report = recorded(curve, curve, curve)
    assert report.train_loss_s5 == report.val_loss_s5 == curve
    assert report.test_acc_s5 == curve


def test_smooth_stays_in_range():
    curve = np.random.default_rng(1).normal(size=50).tolist()
    out = recorded(curve, curve, curve).val_loss_s5
    assert min(out) >= min(curve) - 1e-12
    assert max(out) <= max(curve) + 1e-12


def test_representative_monotone_losses_pick_last():
    n = 20
    report = recorded(np.linspace(1.0, 0.1, n).tolist(),
                      np.linspace(1.2, 0.2, n).tolist(),
                      np.linspace(0.5, 0.9, n).tolist())
    assert report.representative_epoch == n
    assert report.representative_accuracy == report.test_acc_s5[-1]
    assert report.representative_accuracy == pytest.approx(0.9 - 0.8 / 19)


def test_representative_interior_minimum():
    # Smoothed: 1.0, 0.9, 0.8, 0.725, 0.67, 0.554, 0.476, 0.436, 0.416,
    # 0.506, 0.722.
    losses = [1.0, 0.8, 0.6, 0.5, 0.45, 0.42, 0.41, 0.40, 0.4, 0.9, 1.5]
    report = recorded(losses, losses, [0.5 + 0.01 * i for i in range(11)])
    assert report.representative_epoch == 9
    assert report.representative_accuracy == report.test_acc_s5[8]
    assert report.representative_accuracy == pytest.approx(0.56)


def test_representative_tie_takes_earliest():
    # Smoothed train loss 0.5, 0.375, 0.375, 0.375, 0.5: epochs 2-4 tie.
    report = recorded([0.5, 0.25, 0.375, 0.375, 1.0], [0.0] * 5,
                      [0.25, 0.5, 0.75, 1.0, 0.0])
    assert report.train_loss_s5 == [0.5, 0.375, 0.375, 0.375, 0.5]
    assert report.representative_epoch == 2
    assert report.representative_accuracy == 0.375


def test_representative_rejects_empty(tmp_path):
    # A report with no epoch rows has no representative epoch, whatever
    # its sidecar says.
    path = tmp_path / "report.csv"
    save_report(path, TrainReport(n_test_items=4, representative_epoch=1,
                                  representative_accuracy=0.5))
    with pytest.raises(ParseError, match="no epoch rows") as info:
        load_report(path)
    assert str(path) in str(info.value)


def test_record_epoch_says_when_the_representative_moves():
    report = TrainReport()
    moved = [record_epoch(report, loss, loss, 0.5)
             for loss in (1.0, 0.5, 2.0, 0.1)]
    # Smoothed: 1.0, 0.75, 1.1666..., 0.9; the first epoch always counts.
    assert moved == [True, True, False, False]
    assert report.representative_epoch == 2
