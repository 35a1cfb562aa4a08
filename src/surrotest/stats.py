"""Statistical acceptance layer: the exact binomial test that the verdict
puts on the representative model's test accuracy.  The rule that picks the
representative epoch is ``rnn.record_epoch``."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError


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
    # Python's int / int is correctly rounded, as float(Fraction(...)) is.
    p = min(1.0, 2 * tail / 2**n)
    return BinomialTestResult(successes=k, trials=n, p_value=p, alpha=alpha,
                              reject=p < alpha)
