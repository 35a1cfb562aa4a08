import numpy as np
import pytest

from surrotest.errors import LengthError, NormalizationError
from surrotest.series import TimeSeries
from surrotest.spectral import (SurrogateConfig, aaft_surrogate, dft,
                                ft_surrogate, iaaft_surrogate, idft,
                                idft_real, rank_order, shuffle_surrogate,
                                spectral_discrepancy)


def brute_force_dft(x):
    """Independent O(n^2) oracle: literal definition of the transform."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.empty(n, dtype=complex)
    for k in range(n):
        out[k] = sum(x[t] * np.exp(-2j * np.pi * k * t / n) for t in range(n))
    return out


# ---------------------------------------------------------------------------
# dft / idft
# ---------------------------------------------------------------------------

def test_dft_unit_impulse():
    spec = dft([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(spec.coeffs, np.ones(4), atol=1e-12)


def test_dft_dc_signal():
    spec = dft([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(spec.coeffs, [4.0, 0.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("n", [32, 64, 128, 48, 37])
def test_dft_matches_brute_force(n):
    x = np.random.default_rng(n).normal(size=n)
    assert np.allclose(dft(x).coeffs, brute_force_dft(x), atol=1e-8)


@pytest.mark.parametrize("n", [32, 64, 128, 37])
def test_round_trip(n):
    x = np.random.default_rng(n + 1).normal(size=n)
    back = idft(dft(x))
    assert np.max(np.abs(back - x)) < 1e-10


@pytest.mark.parametrize("n", [32, 64, 128])
def test_parseval(n):
    x = np.random.default_rng(n + 2).normal(size=n)
    energy_time = np.sum(np.abs(x) ** 2)
    energy_freq = np.sum(dft(x).amplitude_squared) / n
    assert abs(energy_time - energy_freq) < 1e-10 * max(1.0, energy_time)


def test_dft_conjugate_symmetry_for_real_input():
    x = np.random.default_rng(0).normal(size=64)
    c = dft(x).coeffs
    assert np.allclose(c[1:], np.conj(c[1:][::-1]), atol=1e-10)


def test_dft_rejects_empty():
    with pytest.raises(LengthError):
        dft(np.empty(0))


# ---------------------------------------------------------------------------
# rank_order
# ---------------------------------------------------------------------------

def test_rank_order_basic():
    out = rank_order([1.0, 2.0, 3.0], [0.5, -0.2, 0.9])
    assert np.array_equal(out, [2.0, 1.0, 3.0])


def test_rank_order_identity():
    donor = np.random.default_rng(3).normal(size=20)
    assert np.array_equal(rank_order(donor, donor), donor)


def test_rank_order_degenerate_donor():
    out = rank_order(np.full(5, 7.5), np.random.default_rng(4).normal(size=5))
    assert np.array_equal(out, np.full(5, 7.5))


def test_rank_order_stable_ties():
    # Equal template values keep donor order by position.
    out = rank_order([10.0, 20.0, 30.0, 40.0], [1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(out, [30.0, 10.0, 40.0, 20.0])


def test_rank_order_length_mismatch():
    with pytest.raises(LengthError):
        rank_order([1.0, 2.0], [1.0, 2.0, 3.0])


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
# shuffle surrogates
# ---------------------------------------------------------------------------

def test_shuffle_rejects_single_sample():
    with pytest.raises(LengthError):
        shuffle_surrogate(np.array([1.0]))


def test_shuffle_constant_series_unchanged():
    x = np.full(16, 3.25)
    res = shuffle_surrogate(x, seed=1)
    assert np.array_equal(res.surrogate.samples, x)


def test_shuffle_preserves_multiset():
    x = np.random.default_rng(7).normal(size=50)
    res = shuffle_surrogate(x, seed=2)
    assert np.array_equal(np.sort(res.surrogate.samples), np.sort(x))


# ---------------------------------------------------------------------------
# FT surrogates
# ---------------------------------------------------------------------------

def test_ft_preserves_amplitude_spectrum():
    x = np.random.default_rng(8).normal(size=64)
    res = ft_surrogate(x, seed=3)
    amp_in = dft(x).amplitudes
    amp_out = dft(res.surrogate.samples).amplitudes
    assert np.max(np.abs(amp_out - amp_in)) < 1e-10 * np.max(amp_in)


def test_ft_pure_dc_unchanged():
    x = np.full(8, 2.5)
    res = ft_surrogate(x, seed=4)
    assert np.allclose(res.surrogate.samples, x, atol=1e-12)


def test_ft_output_is_real_reconstruction():
    x = np.random.default_rng(9).normal(size=33)  # odd length: no Nyquist bin
    y = ft_surrogate(x, seed=5).surrogate.samples
    assert y.dtype == np.float64 and y.shape == x.shape
    assert np.all(np.isfinite(y))
    # The DC bin is kept, so the mean is too; the free phases are not.
    assert abs(y.mean() - x.mean()) < 1e-12
    assert not np.allclose(y, x)
    assert not np.allclose(y, ft_surrogate(x, seed=6).surrogate.samples)


# ---------------------------------------------------------------------------
# AAFT surrogates
# ---------------------------------------------------------------------------

def test_aaft_multiset_exact():
    x = np.random.default_rng(10).normal(size=64)
    res = aaft_surrogate(x, seed=6)
    assert np.array_equal(np.sort(res.surrogate.samples), np.sort(x))


def test_aaft_constant_input_identity():
    x = np.full(16, -1.5)
    res = aaft_surrogate(x, seed=7)
    assert np.array_equal(res.surrogate.samples, x)


def test_aaft_distinct_seeds_distinct_outputs():
    x = np.random.default_rng(11).normal(size=64)
    distinct = 0
    for seed in range(10):
        a = aaft_surrogate(x, seed=seed).surrogate.samples
        b = aaft_surrogate(x, seed=seed + 100).surrogate.samples
        distinct += not np.array_equal(a, b)
    assert distinct == 10


# ---------------------------------------------------------------------------
# IAAFT surrogates
# ---------------------------------------------------------------------------

def test_iaaft_constant_series_converges_immediately():
    x = np.full(16, 4.0)
    res = iaaft_surrogate(x, SurrogateConfig(seed=1))
    assert np.array_equal(res.surrogate.samples, x)
    assert res.iterations == 1
    assert res.converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iaaft_multiset_exact(seed):
    x = np.random.default_rng(20 + seed).normal(size=64)
    res = iaaft_surrogate(x, SurrogateConfig(seed=seed))
    assert np.array_equal(np.sort(res.surrogate.samples), np.sort(x))


def test_iaaft_trace_invariants():
    x = np.random.default_rng(30).normal(size=64)
    res = iaaft_surrogate(x, SurrogateConfig(seed=3, max_iter=50))
    assert len(res.discrepancy_trace) == res.iterations
    # Best-iterate rule: the returned surrogate realizes the trace minimum.
    returned = spectral_discrepancy(x, res.surrogate.samples)
    assert returned == pytest.approx(min(res.discrepancy_trace), rel=1e-12)


def test_iaaft_deterministic():
    x = np.random.default_rng(31).normal(size=64)
    a = iaaft_surrogate(x, SurrogateConfig(seed=9))
    b = iaaft_surrogate(x, SurrogateConfig(seed=9))
    assert np.array_equal(a.surrogate.samples, b.surrogate.samples)
    assert a.discrepancy_trace == b.discrepancy_trace


def test_iaaft_converges_at_reachable_tolerance():
    # White noise settles to its fixed point well inside 100 iterations;
    # a 10% tolerance is safely above the short-series residual floor.
    x = np.random.default_rng(32).normal(size=128)
    res = iaaft_surrogate(x, SurrogateConfig(seed=4, tolerance=0.1, max_iter=100))
    assert res.converged
    assert min(res.discrepancy_trace) <= 0.1


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
    assert np.array_equal(res.surrogate.samples, best)
    assert res.iterations < config.max_iter
    assert res.discrepancy_trace == trace[:res.iterations]
    assert min(res.discrepancy_trace) == min(trace)
    assert not res.converged


def test_iaaft_carries_series_metadata():
    ts = TimeSeries(np.random.default_rng(33).normal(size=32),
                    meta={"system": "noise"})
    res = iaaft_surrogate(ts, SurrogateConfig(seed=5))
    assert res.surrogate.meta["system"] == "noise"
    assert res.surrogate.meta["surrogate"] is True


def test_surrogates_deterministic_given_seed():
    x = np.random.default_rng(34).normal(size=32)
    for fn in (shuffle_surrogate, ft_surrogate, aaft_surrogate):
        a = fn(x, seed=11).surrogate.samples
        b = fn(x, seed=11).surrogate.samples
        assert np.array_equal(a, b)
