"""Statistical acceptance layer: exact binomial test, curve smoothing, and
representative-accuracy selection from learning curves."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LengthError, ParameterError


@dataclass
class BinomialTestResult:
    successes: int
    trials: int
    p_value: float
    alpha: float
    reject: bool


def binomial_test(k: int, n: int, alpha: float = 0.05) -> BinomialTestResult:
    """Exact two-sided one-sample binomial test against 0.5.

    The p-value is min(1, 2 * min(P(X <= k), P(X >= k))) under
    Binomial(n, 1/2).  The null is symmetric, so the smaller tail is
    P(X <= min(k, n - k)): an exact integer sum of binomial coefficients,
    each built from the last by comb(n, i+1) = comb(n, i) * (n-i) / (i+1),
    so the result agrees bit for bit with direct mass summation.
    """
    if n < 1:
        raise ParameterError(f"need at least one trial, got n={n}")
    if not 0 <= k <= n:
        raise ParameterError(f"successes k={k} outside [0, {n}]")

    term = tail = 1
    for i in range(min(k, n - k)):
        term = term * (n - i) // (i + 1)
        tail += term
    p = float(min(Fraction(1), 2 * Fraction(tail, 2**n)))
    return BinomialTestResult(successes=k, trials=n, p_value=p, alpha=alpha,
                              reject=p < alpha)


def smooth(curve, window: int = 5) -> np.ndarray:
    """Trailing moving average; the first window-1 points average over the
    available prefix."""
    if window < 1:
        raise ParameterError(f"window must be at least 1, got {window}")
    arr = np.asarray(curve, dtype=float)
    if arr.size == 0:
        raise LengthError("cannot smooth an empty curve")
    out = np.empty_like(arr)
    for i in range(arr.size):
        lo = max(0, i - window + 1)
        out[i] = arr[lo:i + 1].mean()
    return out


def representative_accuracy(report) -> tuple:
    """Epoch (1-based) with the lowest smoothed combined loss, and the
    smoothed test accuracy there.

    Formalizes "read the accuracy off the loss plateau": the chosen epoch
    minimizes smoothed(train loss) + smoothed(validation loss); ties go to
    the earliest epoch.
    """
    train_s = np.asarray(report.train_loss_s5, dtype=float)
    val_s = np.asarray(report.val_loss_s5, dtype=float)
    acc_s = np.asarray(report.test_acc_s5, dtype=float)
    if train_s.size == 0 or val_s.size == 0 or acc_s.size == 0:
        raise LengthError("report has empty curves")
    combined = train_s + val_s
    idx = int(np.argmin(combined))  # argmin returns the first minimum
    return idx + 1, float(acc_s[idx])
