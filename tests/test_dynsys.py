import numpy as np
import pytest

from surrotest.dynsys import (MAP_BURN_IN, NOISE_BURN_IN, FlowParams,
                              MapParams, NoiseParams, chua_nonlinearity,
                              flow_derivative, load_realizations,
                              make_realizations, rk45_integrate,
                              save_realizations)
from surrotest.errors import (DivergenceError, LengthError, ParameterError)
from surrotest.seeding import substream
from surrotest.series import TimeSeries


def batch(system, L, N, seed, params=None) -> np.ndarray:
    """The (N, L) sample matrix of a generated batch."""
    return np.array([r.samples for r in
                     make_realizations(system, L, N, seed=seed, params=params)])


# ---------------------------------------------------------------------------
# Logistic map
# ---------------------------------------------------------------------------

def test_logistic_one_step():
    # Every sample is one step of the clipped map from the previous one.
    for r in (4.0, 3.7):
        x = batch("logistic", 64, 8, seed=1, params=MapParams(r=r))
        step = np.clip(r * x[:, :-1] * (1.0 - x[:, :-1]), 0.0, 1.0)
        assert np.array_equal(x[:, 1:], step)


def test_logistic_fixed_point_zero():
    # For r < 1 the origin attracts; once there, the series stays at 0.
    x = batch("logistic", 200, 4, seed=4, params=MapParams(r=0.5))
    assert np.all(x[:, -100:] == 0.0)


def test_logistic_burn_in_shifts_series():
    # The first sample is iterate MAP_BURN_IN + 1 of the seeded start.
    seed, r = 5, 4.0
    x = batch("logistic", 16, 3, seed=seed)
    start = np.array([substream(seed, i).uniform(0.1, 0.9) for i in range(3)])
    for _ in range(MAP_BURN_IN + 1):
        start = np.clip(r * start * (1.0 - start), 0.0, 1.0)
    assert np.array_equal(x[:, 0], start)


def test_logistic_stays_in_unit_interval():
    x = batch("logistic", 5000, 5, seed=2)
    assert np.all((x >= 0.0) & (x <= 1.0))


def test_logistic_rejects_bad_parameters():
    for r in (4.5, 0.0, float("nan")):
        with pytest.raises(ParameterError):
            MapParams(r=r)


# ---------------------------------------------------------------------------
# Henon map
# ---------------------------------------------------------------------------

def test_henon_recurrence_exact():
    # x[t+1] = 1 - a*x[t]^2 + y[t], with y[t] = b*x[t-1].
    for a, b in ((1.4, 0.3), (1.2, 0.2)):
        x = batch("henon", 64, 8, seed=3, params=MapParams(a=a, b=b))
        step = 1.0 - a * x[:, 1:-1] * x[:, 1:-1] + b * x[:, :-2]
        assert np.array_equal(x[:, 2:], step)


def test_henon_fixed_point_is_stationary():
    # At a=0.2, b=0.3 the fixed point (positive root of
    # a*x^2 + (1-b)*x - 1 = 0) attracts, so the burn-in lands on it.
    a, b = 0.2, 0.3
    x_star = (-(1 - b) + np.sqrt((1 - b) ** 2 + 4 * a)) / (2 * a)
    x = batch("henon", 16, 4, seed=6, params=MapParams(a=a, b=b))
    assert np.max(np.abs(x - x_star)) < 1e-12


def test_henon_escape_names_step():
    with pytest.raises(DivergenceError) as err:
        make_realizations("henon", 16, 4, seed=0, params=MapParams(a=5.0))
    assert err.value.step is not None
    assert f"at step {err.value.step}" in str(err.value)


# ---------------------------------------------------------------------------
# Flow derivatives
# ---------------------------------------------------------------------------

def test_lorenz_derivative_at_ones():
    d = flow_derivative("lorenz", [1.0, 1.0, 1.0])
    assert np.allclose(d, [0.0, 26.0, -5.0 / 3.0], atol=1e-14)


def test_rossler_derivative_at_ones():
    d = flow_derivative("rossler", [1.0, 1.0, 1.0])
    assert np.allclose(d, [-2.0, 1.2, -4.5], atol=1e-14)


def test_lorenz_fixed_point():
    # C+ = (sqrt(beta*(rho-1)), sqrt(beta*(rho-1)), rho-1)
    p = FlowParams()
    c = np.sqrt(p.lorenz_beta * (p.lorenz_rho - 1.0))
    d = flow_derivative("lorenz", [c, c, p.lorenz_rho - 1.0])
    assert np.max(np.abs(d)) < 1e-12


def test_flow_derivative_unknown_system():
    with pytest.raises(ParameterError):
        flow_derivative("duffing", [0.0, 0.0, 0.0])


def test_flow_derivative_batched():
    states = np.random.default_rng(0).normal(size=(5, 3))
    batched = flow_derivative("lorenz", states)
    for i in range(5):
        assert np.allclose(batched[i], flow_derivative("lorenz", states[i]))


# ---------------------------------------------------------------------------
# Chua nonlinearity
# ---------------------------------------------------------------------------

def test_chua_nonlinearity_values():
    m0, m1 = -8.0 / 7.0, -5.0 / 7.0
    assert chua_nonlinearity(0.0, m0, m1) == 0.0
    assert chua_nonlinearity(1.0, m0, m1) == pytest.approx(m0, abs=1e-15)
    assert chua_nonlinearity(-1.0, m0, m1) == pytest.approx(-m0, abs=1e-15)


def test_chua_nonlinearity_odd_and_piecewise_slopes():
    m0, m1 = -8.0 / 7.0, -5.0 / 7.0
    xs = np.linspace(-4.0, 4.0, 101)
    f = chua_nonlinearity(xs, m0, m1)
    assert np.allclose(f, -chua_nonlinearity(-xs, m0, m1), atol=1e-14)
    inner = np.abs(xs) <= 1.0
    assert np.allclose(f[inner], m0 * xs[inner], atol=1e-14)
    # Outside the kinks the slope is m1: check finite differences.
    right = xs[xs >= 1.0]
    slopes = np.diff(chua_nonlinearity(right, m0, m1)) / np.diff(right)
    assert np.allclose(slopes, m1, atol=1e-12)


# ---------------------------------------------------------------------------
# Runge-Kutta integrator
# ---------------------------------------------------------------------------

def test_rk45_stationary_point():
    f = lambda t, y: np.zeros_like(y)
    y0 = np.array([1.0, -2.0, 0.5])
    _, states = rk45_integrate(f, y0, t_end=5.0, dt_sample=1.0)
    assert np.array_equal(states, np.tile(y0, (5, 1)))


def test_rk45_exponential_growth():
    f = lambda t, y: y
    _, states = rk45_integrate(f, np.array([1.0]), t_end=1.0, dt_sample=1.0,
                               rel_tol=1e-9, abs_tol=1e-12)
    assert states[-1][0] == pytest.approx(np.e, abs=1e-6)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
def test_rk45_local_accuracy(rel_tol):
    f = lambda t, y: y
    _, states = rk45_integrate(f, np.array([1.0]), t_end=1.0, dt_sample=1.0,
                               rel_tol=rel_tol, abs_tol=1e-14)
    rel_err = abs(states[-1][0] - np.e) / np.e
    assert rel_err < 10.0 * rel_tol


def test_rk45_halving_tolerance_never_hurts():
    f = lambda t, y: y
    errors = []
    for rel_tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        _, states = rk45_integrate(f, np.array([1.0]), t_end=1.0,
                                   dt_sample=1.0, rel_tol=rel_tol,
                                   abs_tol=1e-14)
        errors.append(abs(states[-1][0] - np.e))
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_rk45_harmonic_energy_conserved():
    f = lambda t, y: np.stack([y[..., 1], -y[..., 0]], axis=-1)
    _, states = rk45_integrate(f, np.array([1.0, 0.0]), t_end=100.0,
                               dt_sample=1.0, rel_tol=1e-9, abs_tol=1e-12)
    energy = states[:, 0] ** 2 + states[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-6


def test_rk45_validates_arguments():
    f = lambda t, y: y
    with pytest.raises(ParameterError):
        rk45_integrate(f, np.array([1.0]), t_end=0.0, dt_sample=1.0)
    with pytest.raises(ParameterError):
        rk45_integrate(f, np.array([1.0]), t_end=1.0, dt_sample=-1.0)
    with pytest.raises(ParameterError):
        rk45_integrate(f, np.array([1.0]), t_end=1.0, dt_sample=1.0,
                       rel_tol=0.0)


def test_rk45_divergence_raises():
    f = lambda t, y: 30.0 * y  # runs smoothly past the escape bound
    with pytest.raises(DivergenceError):
        rk45_integrate(f, np.array([2.0]), t_end=2.0, dt_sample=2.0)


def test_rk45_finite_time_blowup_underflows():
    # dy/dt = y^2 from y0 = 2 blows up at t = 0.5; the controller chases
    # it until the step size hits the floor.
    from surrotest.errors import StiffnessError
    f = lambda t, y: y * y
    with pytest.raises((StiffnessError, DivergenceError)):
        rk45_integrate(f, np.array([2.0]), t_end=2.0, dt_sample=2.0)


# ---------------------------------------------------------------------------
# AR(1) + static nonlinearity
# ---------------------------------------------------------------------------

def latent(y: np.ndarray) -> np.ndarray:
    """Invert the observation y = x * sqrt(|x|)."""
    return np.sign(y) * np.abs(y) ** (2.0 / 3.0)


def test_ar1_innovations_are_the_seeded_draws():
    # Undoing the observation and the AR(1) step recovers each
    # realization's own innovations, drawn after its initial state.
    L, N, seed = 32, 4, 7
    for alpha in (0.2, -0.5, 0.9):
        x = latent(batch("ar1", L, N, seed, params=NoiseParams(alpha)))
        for i in range(N):
            rng = substream(seed, i)
            rng.normal()  # stationary initial state
            eps = rng.standard_normal(NOISE_BURN_IN + L - 1)[NOISE_BURN_IN:]
            assert np.allclose(x[i, 1:] - alpha * x[i, :-1], eps,
                               rtol=0.0, atol=1e-12)


def test_ar1_memoryless_when_alpha_zero():
    x = latent(batch("ar1", 400, 10, seed=5, params=NoiseParams(0.0)))
    lag1 = np.corrcoef(x[:, :-1].ravel(), x[:, 1:].ravel())[0, 1]
    assert abs(lag1) < 3.0 / np.sqrt(x.size)


def test_ar1_stationary_variance():
    # Monte Carlo check of var(x) = 1/(1 - alpha^2) at alpha = 0.8.
    x = latent(batch("ar1", 1000, 1000, seed=6, params=NoiseParams(0.8)))
    expected = 1.0 / (1.0 - 0.64)
    assert np.var(x) == pytest.approx(expected, rel=0.02)


def test_ar1_rejects_nonstationary():
    with pytest.raises(ParameterError):
        NoiseParams(1.0)
    with pytest.raises(ParameterError):
        NoiseParams(-1.2)


# ---------------------------------------------------------------------------
# Realization batches
# ---------------------------------------------------------------------------

def test_windowed_single_window_is_source():
    src = TimeSeries(np.arange(32, dtype=float))
    out = make_realizations(src, 32, 1, seed=9)
    assert len(out) == 1
    assert np.array_equal(out[0].samples, src.samples)


def test_windowed_windows_are_exact_slices():
    src = TimeSeries(np.random.default_rng(10).normal(size=200))
    out = make_realizations(src, 16, 25, seed=11)
    for r in out:
        start = r.meta["start"]
        assert np.array_equal(r.samples, src.samples[start:start + 16])


def test_windowed_source_too_short():
    src = TimeSeries(np.arange(10, dtype=float))
    with pytest.raises(LengthError):
        make_realizations(src, 32, 4, seed=0)


def test_logistic_realizations_shape_and_range():
    out = make_realizations("logistic", 32, 50, seed=12)
    assert len(out) == 50
    for r in out:
        assert len(r) == 32
        assert np.all((r.samples >= 0.0) & (r.samples <= 1.0))


def test_make_realizations_deterministic():
    for system in ("logistic", "henon", "ar1"):
        a = make_realizations(system, 16, 5, seed=13)
        b = make_realizations(system, 16, 5, seed=13)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.samples, rb.samples)


def test_make_realizations_flow_deterministic():
    a = make_realizations("lorenz", 16, 3, seed=14)
    b = make_realizations("lorenz", 16, 3, seed=14)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.samples, rb.samples)
    assert a[0].dt == 0.05


def test_make_realizations_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        make_realizations("logistic", 4, 10, seed=0)
    with pytest.raises(ParameterError):
        make_realizations("van_der_pol", 32, 10, seed=0)
    with pytest.raises(ParameterError):
        make_realizations("logistic", 32, 0, seed=0)


def test_realizations_round_trip(tmp_path):
    out = make_realizations("henon", 16, 8, seed=15)
    path = tmp_path / "r.csv"
    save_realizations(path, out)
    loaded, meta = load_realizations(path)
    assert meta["system"] == "henon"
    assert meta["L"] == 16 and meta["N"] == 8
    for a, b in zip(out, loaded):
        assert np.array_equal(a.samples, b.samples)
