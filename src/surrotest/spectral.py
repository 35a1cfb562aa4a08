"""Fourier machinery and constrained-randomization surrogate generators.

Four surrogate families are provided, each addressing a different null
hypothesis about the input series:

  * shuffle -- uncorrelated noise (keeps the value distribution only)
  * ft      -- linearly correlated noise (keeps the amplitude spectrum only)
  * aaft    -- static invertible transform of linear noise (one-shot
               rank/phase scheme, known to flatten the spectrum slightly)
  * iaaft   -- as aaft, but iteratively refined so the surrogate matches
               both the amplitude spectrum and the value distribution

Every transform is numpy.fft, reached as ``np.fft`` at call time so that
importing this module does not load it.  Forward is unnormalized; inverse
divides by n.  The projections that must return a real series use the
half-spectrum pair rfft/irfft, which is real by construction; spectral
discrepancies are measured over the full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LengthError, NormalizationError, ParameterError
from .series import TimeSeries, as_samples

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Discrete Fourier transform
# ---------------------------------------------------------------------------

@dataclass
class Spectrum:
    """Complex DFT coefficients of a real or complex series."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)

    def __len__(self):
        return self.coeffs.size

    @property
    def amplitudes(self) -> np.ndarray:
        return np.abs(self.coeffs)

    @property
    def amplitude_squared(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2


def dft(series) -> Spectrum:
    """Unnormalized forward transform of a series."""
    x = as_samples(series)
    if x.size == 0:
        raise LengthError("cannot transform an empty series")
    return Spectrum(np.fft.fft(x))


def idft(spectrum) -> np.ndarray:
    """Inverse transform (divides by n); complex output.

    Accepts a Spectrum or a raw coefficient array.  For coefficient sets
    with conjugate symmetry the imaginary part is rounding dust; use
    ``idft_real`` to strip it.
    """
    coeffs = spectrum.coeffs if isinstance(spectrum, Spectrum) else np.asarray(
        spectrum, dtype=complex
    )
    if coeffs.size == 0:
        raise LengthError("cannot invert an empty spectrum")
    return np.fft.ifft(coeffs)


def idft_real(spectrum) -> np.ndarray:
    """Inverse transform of a conjugate-symmetric spectrum, real output."""
    return idft(spectrum).real


# ---------------------------------------------------------------------------
# Surrogate configuration / results
# ---------------------------------------------------------------------------

@dataclass
class SurrogateConfig:
    """Algorithm selector and iteration budget for surrogate generation.

    ``tolerance`` is the relative spectral discrepancy below which the
    iterative scheme stops; ``max_iter`` caps the refinement loop.
    """

    algorithm: str = "iaaft"
    max_iter: int = 100
    tolerance: float = 1e-8
    seed: int = 0

    ALGORITHMS = ("shuffle", "ft", "aaft", "iaaft")

    def __post_init__(self):
        if self.algorithm not in self.ALGORITHMS:
            raise ParameterError(
                f"unknown surrogate algorithm {self.algorithm!r}; "
                f"expected one of {self.ALGORITHMS}"
            )
        if self.max_iter < 1:
            raise ParameterError("max_iter must be at least 1")
        if not self.tolerance > 0:
            raise ParameterError("tolerance must be positive")


@dataclass
class SurrogateResult:
    """A surrogate plus its per-iteration spectral discrepancy trace."""

    surrogate: TimeSeries
    discrepancy_trace: list = field(default_factory=list)
    iterations: int = 1
    converged: bool = True

    def __post_init__(self):
        if len(self.discrepancy_trace) != self.iterations:
            raise ParameterError("trace length must equal iterations used")


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def rank_order(donor_values, template) -> np.ndarray:
    """Rearrange the donor multiset so its ranks match the template's.

    The output contains exactly the values of ``donor_values`` (as a
    multiset), placed so that the smallest donor value sits where the
    template is smallest, and so on.  Ties in the template are broken by
    position (stable sort), so quantized data reorders deterministically.
    """
    donor = as_samples(donor_values)
    tmpl = as_samples(template)
    if donor.size != tmpl.size:
        raise LengthError(
            f"donor and template lengths differ: {donor.size} != {tmpl.size}"
        )
    order = np.argsort(tmpl, kind="stable")
    out = np.empty_like(donor)
    out[order] = np.sort(donor)
    return out


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
    amp_a = dft(xa).amplitudes
    amp_b = dft(xb).amplitudes
    denom = np.sqrt(np.mean(amp_a**2))
    if denom == 0.0:
        raise NormalizationError("reference series has zero spectral energy")
    return float(np.sqrt(np.mean((amp_a - amp_b) ** 2)) / denom)


def _result(original, surrogate_samples, trace, converged) -> SurrogateResult:
    if isinstance(original, TimeSeries):
        surr = original.with_samples(surrogate_samples, surrogate=True)
    else:
        surr = TimeSeries(surrogate_samples, meta={"surrogate": True})
    return SurrogateResult(
        surrogate=surr,
        discrepancy_trace=list(trace),
        iterations=len(trace),
        converged=converged,
    )


def _safe_discrepancy(x, candidate) -> float:
    # Zero-energy inputs only occur for all-zero series, whose surrogates
    # are the series itself; report a clean zero instead of failing.
    try:
        return spectral_discrepancy(x, candidate)
    except NormalizationError:
        return 0.0


# ---------------------------------------------------------------------------
# Surrogate generators
# ---------------------------------------------------------------------------

def shuffle_surrogate(series, seed: int = 0) -> SurrogateResult:
    """Uniform random permutation of the series (multiset preserved)."""
    x = as_samples(series)
    if x.size < 2:
        raise LengthError("shuffling needs at least 2 samples")
    rng = np.random.default_rng(seed)
    surr = rng.permutation(x)
    return _result(series, surr, [_safe_discrepancy(x, surr)], True)


def _phase_randomized(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomize the free Fourier phases of a real series.

    The DC bin (and the Nyquist bin for even lengths) is self-conjugate
    and is left untouched; every other bin of the half spectrum gets a
    fresh uniform phase.
    """
    n = x.size
    coeffs = np.fft.rfft(x)
    n_free = (n - 1) // 2
    phases = rng.uniform(0.0, _TWO_PI, size=n_free)
    coeffs[1 : n_free + 1] = np.abs(coeffs[1 : n_free + 1]) * np.exp(1j * phases)
    return np.fft.irfft(coeffs, n)


def ft_surrogate(series, seed: int = 0) -> SurrogateResult:
    """Phase-randomized surrogate (amplitude spectrum preserved exactly)."""
    x = as_samples(series)
    if x.size < 4:
        raise LengthError("phase randomization needs at least 4 samples")
    rng = np.random.default_rng(seed)
    surr = _phase_randomized(x, rng)
    return _result(series, surr, [_safe_discrepancy(x, surr)], True)


def aaft_surrogate(series, seed: int = 0) -> SurrogateResult:
    """Amplitude-adjusted phase randomization (multiset preserved exactly).

    Rank-remaps a Gaussian draw onto the series, phase-randomizes it, and
    rank-remaps the original values back onto the result.
    """
    x = as_samples(series)
    if x.size < 4:
        raise LengthError("amplitude adjustment needs at least 4 samples")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal(x.size)
    gauss_like_x = rank_order(gauss, template=x)
    randomized = _phase_randomized(gauss_like_x, rng)
    surr = rank_order(x, template=randomized)
    return _result(series, surr, [_safe_discrepancy(x, surr)], True)


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
        return _result(series, x.copy(), [0.0], True)

    rng = np.random.default_rng(config.seed)
    n = x.size
    target_amp = np.abs(np.fft.fft(x))
    half_amp = target_amp[: n // 2 + 1]
    amp_rms = np.sqrt(np.mean(target_amp**2))
    sorted_x = np.sort(x)

    candidate = rng.permutation(x)
    best = candidate
    best_disc = np.inf
    trace = []
    for _ in range(config.max_iter):
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
        trace.append(disc)
        if disc < best_disc:
            best_disc = disc
            best = ranked
        if disc <= config.tolerance or np.array_equal(ranked, candidate):
            break
        candidate = ranked

    return _result(series, best, trace, best_disc <= config.tolerance)


_GENERATORS = {
    "shuffle": shuffle_surrogate,
    "ft": ft_surrogate,
    "aaft": aaft_surrogate,
}


def make_surrogate(series, config: SurrogateConfig) -> SurrogateResult:
    """Dispatch to the configured surrogate generator."""
    if config.algorithm == "iaaft":
        return iaaft_surrogate(series, config)
    return _GENERATORS[config.algorithm](series, seed=config.seed)
