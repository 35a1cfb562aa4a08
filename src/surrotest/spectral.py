"""Fourier machinery and constrained-randomization surrogate generators.

Two surrogate families are provided, each addressing a different null
hypothesis about the input series:

  * ft      -- linearly correlated noise (keeps the amplitude spectrum only)
  * iaaft   -- static invertible transform of linear noise: iteratively
               refined so the surrogate matches both the amplitude
               spectrum and the value distribution

Each generator takes one series (a 1-D array-like of finite samples) and
returns a ``SurrogateResult`` whose ``surrogate`` is a new 1-D array.
The pipeline makes IAAFT surrogates only (``dataset.pair_surrogates``),
since the paper's null is a static transform of linear noise; the FT
generator is a library function.

Every transform is numpy.fft, reached as ``np.fft`` at call time so that
importing this module does not load it, and no other module calls it.
Forward is unnormalized; inverse divides by n.  The projections that must
return a real series use the half-spectrum pair rfft/irfft, which is real
by construction; spectral discrepancies are measured over the full
spectrum that ``dft`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthError, NormalizationError, ParameterError
from .series import as_samples

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Discrete Fourier transform
# ---------------------------------------------------------------------------

def dft(series) -> np.ndarray:
    """Unnormalized forward transform of a series: ``np.fft.fft``'s complex
    coefficients.  An empty series raises ``LengthError``."""
    x = as_samples(series)
    if x.size == 0:
        raise LengthError("cannot transform an empty series")
    return np.fft.fft(x)


# ---------------------------------------------------------------------------
# Surrogate configuration / results
# ---------------------------------------------------------------------------

@dataclass
class SurrogateConfig:
    """IAAFT's iteration budget and seed.

    ``tolerance`` is the relative spectral discrepancy below which the
    iteration stops; ``max_iter`` caps the refinement loop.
    """

    max_iter: int = 100
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ParameterError("max_iter must be at least 1")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ParameterError(
                f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass
class SurrogateResult:
    """A surrogate series, the smallest spectral discrepancy seen while
    making it (the returned series has it), the iterations run, and
    whether the tolerance was reached."""

    surrogate: np.ndarray
    discrepancy: float
    iterations: int = 1
    converged: bool = True


# ---------------------------------------------------------------------------
# Spectral discrepancy
# ---------------------------------------------------------------------------

def spectral_discrepancy(a, b) -> float:
    """Scale-free mismatch between two amplitude spectra.

    Root-mean-square difference of the amplitude spectra of ``a`` and
    ``b``, divided by the root-mean-square amplitude of ``a``.  Zero iff
    the amplitude spectra are identical.
    """
    xa = as_samples(a)
    xb = as_samples(b)
    if xa.size != xb.size:
        raise LengthError(f"length mismatch: {xa.size} != {xb.size}")
    amp_a = np.abs(dft(xa))
    amp_b = np.abs(dft(xb))
    denom = np.sqrt(np.mean(amp_a**2))
    if denom == 0.0:
        raise NormalizationError("reference series has zero spectral energy")
    return float(np.sqrt(np.mean((amp_a - amp_b) ** 2)) / denom)


# ---------------------------------------------------------------------------
# Surrogate generators
# ---------------------------------------------------------------------------

def ft_surrogate(series, seed: int = 0) -> SurrogateResult:
    """Phase-randomized surrogate (amplitude spectrum preserved exactly)."""
    x = as_samples(series)
    if x.size < 4:
        raise LengthError("phase randomization needs at least 4 samples")
    rng = np.random.default_rng(seed)
    n = x.size
    coeffs = np.fft.rfft(x)
    # The DC bin (and the Nyquist bin for even lengths) is self-conjugate
    # and is left untouched; every other bin of the half spectrum gets a
    # fresh uniform phase.
    n_free = (n - 1) // 2
    phases = rng.uniform(0.0, _TWO_PI, size=n_free)
    coeffs[1 : n_free + 1] = np.abs(coeffs[1 : n_free + 1]) * np.exp(1j * phases)
    surr = np.fft.irfft(coeffs, n)
    try:
        disc = spectral_discrepancy(x, surr)
    except NormalizationError:
        # Zero spectral energy occurs only for an all-zero series, whose
        # surrogate is the series itself; report a clean zero.
        disc = 0.0
    return SurrogateResult(surr, disc)


def iaaft_surrogate(series, config: SurrogateConfig | None = None) -> SurrogateResult:
    """Iteratively refined surrogate matching spectrum and distribution.

    Starting from a random shuffle, each iteration first imposes the
    original amplitude spectrum (keeping the current phases) and then
    restores the original value multiset by rank ordering.  The loop stops
    once the relative spectral discrepancy of the rank-ordered iterate
    drops to ``config.tolerance``, once an iteration returns its own input
    (a fixed point: every later iteration would repeat it, so the result is
    what the full budget would give), or after ``config.max_iter``
    iterations, and the iterate with the smallest observed discrepancy is
    returned.  ``converged`` means the tolerance was reached.

    Because rank ordering is the final step of every iteration, the output
    multiset always equals the input multiset exactly; the residual error
    lives entirely in the spectrum.
    """
    if config is None:
        config = SurrogateConfig()
    x = as_samples(series)
    if x.size < 4:
        raise LengthError("iterative refinement needs at least 4 samples")

    if np.all(x == x[0]):
        # Both constraints already hold; nothing to iterate.
        return SurrogateResult(x.copy(), 0.0)

    rng = np.random.default_rng(config.seed)
    n = x.size
    target_amp = np.abs(np.fft.fft(x))
    half_amp = target_amp[: n // 2 + 1]
    amp_rms = np.sqrt(np.mean(target_amp**2))
    sorted_x = np.sort(x)

    candidate = rng.permutation(x)
    best = candidate
    best_disc = np.inf
    for iterations in range(1, config.max_iter + 1):
        coeffs = np.fft.rfft(candidate)
        mags = np.abs(coeffs)
        # Keep phases; bins with zero magnitude get phase 1 by convention.
        phases = np.where(mags > 0.0, coeffs / np.where(mags > 0.0, mags, 1.0), 1.0)
        spectrum_matched = np.fft.irfft(half_amp * phases, n)
        order = np.argsort(spectrum_matched, kind="stable")
        ranked = np.empty_like(x)
        ranked[order] = sorted_x
        disc = float(
            np.sqrt(np.mean((np.abs(np.fft.fft(ranked)) - target_amp) ** 2)) / amp_rms
        )
        if disc < best_disc:
            best_disc = disc
            best = ranked
        if disc <= config.tolerance or np.array_equal(ranked, candidate):
            break
        candidate = ranked

    return SurrogateResult(best, best_disc, iterations,
                           best_disc <= config.tolerance)

