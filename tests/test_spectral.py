import numpy as np
import pytest

from surrotest.errors import LengthError, NormalizationError, ParameterError
from surrotest.spectral import (SurrogateConfig, dft, ft_surrogate,
                                iaaft_surrogate, spectral_discrepancy)


def brute_force_dft(x):
    """Independent O(n^2) oracle: literal definition of the transform."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.empty(n, dtype=complex)
    for k in range(n):
        out[k] = sum(x[t] * np.exp(-2j * np.pi * k * t / n) for t in range(n))
    return out


# ---------------------------------------------------------------------------
# dft, and the rfft/irfft pair of the FT and IAAFT projections
# ---------------------------------------------------------------------------

def test_dft_unit_impulse():
    assert np.allclose(dft([1.0, 0.0, 0.0, 0.0]), np.ones(4), atol=1e-12)


def test_dft_dc_signal():
    assert np.allclose(dft([1.0, 1.0, 1.0, 1.0]), [4.0, 0.0, 0.0, 0.0],
                       atol=1e-12)


@pytest.mark.parametrize("n", [32, 64, 128, 48, 37])
def test_dft_matches_brute_force(n):
    x = np.random.default_rng(n).normal(size=n)
    assert np.allclose(dft(x), brute_force_dft(x), atol=1e-8)


@pytest.mark.parametrize("n", [32, 64, 128, 37])
def test_round_trip(n):
    # The half-spectrum pair that ft_surrogate and iaaft_surrogate use.
    x = np.random.default_rng(n + 1).normal(size=n)
    back = np.fft.irfft(np.fft.rfft(x), n)
    assert np.max(np.abs(back - x)) < 1e-10


@pytest.mark.parametrize("n", [32, 64, 128])
def test_parseval(n):
    x = np.random.default_rng(n + 2).normal(size=n)
    energy_time = np.sum(np.abs(x) ** 2)
    energy_freq = np.sum(np.abs(dft(x)) ** 2) / n
    assert abs(energy_time - energy_freq) < 1e-10 * max(1.0, energy_time)


def test_dft_conjugate_symmetry_for_real_input():
    x = np.random.default_rng(0).normal(size=64)
    c = dft(x)
    assert np.allclose(c[1:], np.conj(c[1:][::-1]), atol=1e-10)


def test_dft_rejects_empty():
    with pytest.raises(LengthError):
        dft(np.empty(0))


# ---------------------------------------------------------------------------
# spectral_discrepancy
# ---------------------------------------------------------------------------

def test_discrepancy_identity_and_sign_flip():
    x = np.random.default_rng(5).normal(size=32)
    assert spectral_discrepancy(x, x) == 0.0
    assert spectral_discrepancy(x, -x) < 1e-14


def test_discrepancy_doubled_amplitudes():
    x = np.random.default_rng(6).normal(size=64)
    assert spectral_discrepancy(x, 2.0 * x) == pytest.approx(1.0, abs=1e-12)


def test_discrepancy_zero_energy_reference():
    with pytest.raises(NormalizationError):
        spectral_discrepancy(np.zeros(16), np.ones(16))


# ---------------------------------------------------------------------------
# FT surrogates
# ---------------------------------------------------------------------------

def test_ft_preserves_amplitude_spectrum():
    x = np.random.default_rng(8).normal(size=64)
    res = ft_surrogate(x, seed=3)
    amp_in = np.abs(dft(x))
    amp_out = np.abs(dft(res.surrogate))
    assert np.max(np.abs(amp_out - amp_in)) < 1e-10 * np.max(amp_in)


def test_ft_pure_dc_unchanged():
    x = np.full(8, 2.5)
    res = ft_surrogate(x, seed=4)
    assert np.allclose(res.surrogate, x, atol=1e-12)
    # An all-zero series has no spectral energy to normalize by; its
    # surrogate is itself, at discrepancy 0.
    res = ft_surrogate(np.zeros(8), seed=4)
    assert np.array_equal(res.surrogate, np.zeros(8))
    assert res.discrepancy == 0.0


def test_ft_output_is_real_reconstruction():
    x = np.random.default_rng(9).normal(size=33)  # odd length: no Nyquist bin
    y = ft_surrogate(x, seed=5).surrogate
    assert y.dtype == np.float64 and y.shape == x.shape
    assert np.all(np.isfinite(y))
    # The DC bin is kept, so the mean is too; the free phases are not.
    assert abs(y.mean() - x.mean()) < 1e-12
    assert not np.allclose(y, x)
    assert not np.allclose(y, ft_surrogate(x, seed=6).surrogate)


# ---------------------------------------------------------------------------
# IAAFT surrogates
# ---------------------------------------------------------------------------

def test_iaaft_constant_series_converges_immediately():
    x = np.full(16, 4.0)
    res = iaaft_surrogate(x, SurrogateConfig(seed=1))
    assert np.array_equal(res.surrogate, x)
    assert res.iterations == 1
    assert res.converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iaaft_multiset_exact(seed):
    x = np.random.default_rng(20 + seed).normal(size=64)
    # Rounded to a few levels, most values tie: rank ordering breaks ties
    # by position (a stable sort), and the multiset must still hold.
    for series in (x, np.round(x)):
        res = iaaft_surrogate(series, SurrogateConfig(seed=seed))
        assert np.array_equal(np.sort(res.surrogate), np.sort(series))


def test_iaaft_trace_invariants():
    x = np.random.default_rng(30).normal(size=64)
    res = iaaft_surrogate(x, SurrogateConfig(seed=3, max_iter=50))
    assert 1 <= res.iterations <= 50
    # Best-iterate rule: the returned surrogate has the smallest
    # discrepancy seen, which the result reports.
    returned = spectral_discrepancy(x, res.surrogate)
    assert returned == pytest.approx(res.discrepancy, rel=1e-12)


def test_iaaft_deterministic():
    x = np.random.default_rng(31).normal(size=64)
    # The rounded series ties most values; a stable sort places them the
    # same way on every call.
    for series in (x, np.round(x)):
        a = iaaft_surrogate(series, SurrogateConfig(seed=9))
        b = iaaft_surrogate(series, SurrogateConfig(seed=9))
        assert np.array_equal(a.surrogate, b.surrogate)
        assert (a.discrepancy, a.iterations) == (b.discrepancy, b.iterations)


def test_iaaft_converges_at_reachable_tolerance():
    # White noise settles to its fixed point well inside 100 iterations;
    # a 10% tolerance is safely above the short-series residual floor.
    x = np.random.default_rng(32).normal(size=128)
    res = iaaft_surrogate(x, SurrogateConfig(seed=4, tolerance=0.1, max_iter=100))
    assert res.converged
    assert res.discrepancy <= 0.1


def full_budget_iaaft(x, config):
    """Reference loop without the fixed-point stop: every iteration of the
    budget runs unless the tolerance is met."""
    rng = np.random.default_rng(config.seed)
    target_amp = np.abs(np.fft.fft(x))
    amp_rms = np.sqrt(np.mean(target_amp**2))
    candidate = rng.permutation(x)
    best, best_disc, trace = candidate, np.inf, []
    for _ in range(config.max_iter):
        coeffs = np.fft.fft(candidate)
        phases = coeffs / np.abs(coeffs)
        matched = np.fft.ifft(target_amp * phases).real
        candidate = np.empty_like(x)
        candidate[np.argsort(matched, kind="stable")] = np.sort(x)
        disc = float(np.sqrt(np.mean(
            (np.abs(np.fft.fft(candidate)) - target_amp) ** 2)) / amp_rms)
        trace.append(disc)
        if disc < best_disc:
            best, best_disc = candidate, disc
        if disc <= config.tolerance:
            break
    return best, trace


@pytest.mark.parametrize("L", [32, 64, 128])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_iaaft_fixed_point_stop_matches_full_budget(L, seed):
    x = np.random.default_rng(40 + L + seed).normal(size=L)
    config = SurrogateConfig(seed=seed, max_iter=100)
    res = iaaft_surrogate(x, config)
    best, trace = full_budget_iaaft(x, config)
    assert np.array_equal(res.surrogate, best)
    assert res.iterations < config.max_iter
    # Every iteration after the fixed point repeats its discrepancy.
    assert set(trace[res.iterations:]) <= {trace[res.iterations - 1]}
    assert res.discrepancy == min(trace[:res.iterations]) == min(trace)
    assert not res.converged


def generators(x):
    """Each surrogate generator, as a function of its seed."""
    return (lambda seed: ft_surrogate(x, seed=seed),
            lambda seed: iaaft_surrogate(x, SurrogateConfig(seed=seed)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_surrogates_reject_non_finite_series(bad):
    x = np.random.default_rng(33).normal(size=32)
    x[7] = bad
    for make in generators(x):
        with pytest.raises(ParameterError, match="finite"):
            make(5)


def test_surrogates_deterministic_given_seed():
    x = np.random.default_rng(34).normal(size=32)
    for make in generators(x):
        assert np.array_equal(make(11).surrogate, make(11).surrogate)
