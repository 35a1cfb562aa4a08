import numpy as np
import pytest

from surrotest import dynsys
from surrotest.dynsys import (_DP_A, _DP_E, _MAX_FACTOR, _MIN_FACTOR,
                              _SAFETY, BURN_IN_ABS_TOL, BURN_IN_REL_TOL,
                              ESCAPE_STATE_LIMIT, FLOW_BURN_IN, FLOW_DT,
                              MAP_BURN_IN, NOISE_BURN_IN, FlowParams,
                              MapParams, NoiseParams, chua_nonlinearity,
                              flow_derivative, flow_rhs, load_realizations,
                              make_realizations, rk45_integrate,
                              save_realizations)
from surrotest.errors import (DivergenceError, LengthError, ParameterError,
                              StiffnessError)
from surrotest.seeding import stage_seed, substream


def batch(system, L, N, seed, params=None) -> np.ndarray:
    """The (N, L) sample matrix of a generated batch."""
    return make_realizations(system, L, N, seed=seed, params=params)[0]


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


@pytest.mark.parametrize("field,value", [("lorenz_sigma", float("nan")),
                                         ("lorenz_rho", float("inf")),
                                         ("chua_m1", -float("inf"))])
def test_flow_params_reject_non_finite_coefficients(field, value):
    with pytest.raises(ParameterError, match=field):
        make_realizations("lorenz", 16, 2, params=FlowParams(**{field: value}))


def test_flow_derivative_unknown_system():
    with pytest.raises(ParameterError):
        flow_derivative("duffing", [0.0, 0.0, 0.0])


def reference_derivative(system, state, p=FlowParams()):
    """The flow equations as plain allocating expressions."""
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    if system == "lorenz":
        parts = (p.lorenz_sigma * (y - x), x * (p.lorenz_rho - z) - y,
                 x * y - p.lorenz_beta * z)
    elif system == "rossler":
        parts = (-y - z, x + p.rossler_a * y,
                 p.rossler_b + z * (x - p.rossler_c))
    else:
        fx = chua_nonlinearity(x, p.chua_m0, p.chua_m1)
        parts = (p.chua_alpha * (y - x - fx), x - y + z, -p.chua_beta * y)
    return np.stack(parts, axis=-1)


@pytest.mark.parametrize("system", ["lorenz", "rossler", "chua"])
def test_flow_kernel_writes_the_derivative_bytes(system):
    # The integrator's in-place kernel, the public derivative and the
    # plain equations agree to the bit, on a batch and on one state.
    rng = np.random.default_rng(7)
    for state in (rng.normal(scale=5.0, size=(16, 3)),
                  rng.normal(scale=5.0, size=3)):
        out = np.full_like(state, np.nan)
        flow_rhs(system)(state, out)()
        assert out.tobytes() == flow_derivative(system, state).tobytes()
        assert out.tobytes() == reference_derivative(system, state).tobytes()


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
    f = lambda y, out: lambda: out.fill(0.0)
    y0 = np.array([[1.0, -2.0, 0.5]])
    _, states = rk45_integrate(f, y0, t_end=5.0, dt_sample=1.0)
    assert np.array_equal(states, np.tile(y0, (5, 1, 1)))


def test_rk45_exponential_growth():
    f = lambda y, out: lambda: np.copyto(out, y)
    _, states = rk45_integrate(f, np.ones((1, 1)), t_end=1.0, dt_sample=1.0,
                               rel_tol=1e-9, abs_tol=1e-12)
    assert states[-1, 0, 0] == pytest.approx(np.e, abs=1e-6)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
def test_rk45_local_accuracy(rel_tol):
    f = lambda y, out: lambda: np.copyto(out, y)
    _, states = rk45_integrate(f, np.ones((1, 1)), t_end=1.0, dt_sample=1.0,
                               rel_tol=rel_tol, abs_tol=1e-14)
    rel_err = abs(states[-1, 0, 0] - np.e) / np.e
    assert rel_err < 10.0 * rel_tol


def test_rk45_halving_tolerance_never_hurts():
    f = lambda y, out: lambda: np.copyto(out, y)
    errors = []
    for rel_tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        _, states = rk45_integrate(f, np.ones((1, 1)), t_end=1.0,
                                   dt_sample=1.0, rel_tol=rel_tol,
                                   abs_tol=1e-14)
        errors.append(abs(states[-1, 0, 0] - np.e))
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def harmonic(y, out):
    def step():
        out[:, 0] = y[:, 1]
        out[:, 1] = -y[:, 0]
    return step


def test_rk45_harmonic_energy_conserved():
    _, states = rk45_integrate(harmonic, np.array([[1.0, 0.0]]), t_end=100.0,
                               dt_sample=1.0, rel_tol=1e-9, abs_tol=1e-12)
    energy = states[:, 0, 0] ** 2 + states[:, 0, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-6


def test_rk45_validates_arguments():
    f = lambda y, out: lambda: np.copyto(out, y)
    with pytest.raises(ParameterError):
        rk45_integrate(f, np.ones((1, 1)), t_end=0.0, dt_sample=1.0)
    with pytest.raises(ParameterError):
        rk45_integrate(f, np.ones((1, 1)), t_end=1.0, dt_sample=-1.0)
    with pytest.raises(ParameterError):
        rk45_integrate(f, np.ones((1, 1)), t_end=1.0, dt_sample=1.0,
                       rel_tol=0.0)
    # Only a (rows, state) batch is an initial state: one flow is a batch
    # of one row, and there are no other leading axes.
    for shape in ((3,), (2, 4, 3)):
        with pytest.raises(ParameterError, match=r"\(rows, state\) batch"):
            rk45_integrate(f, np.ones(shape), t_end=1.0, dt_sample=1.0)


def test_rk45_divergence_raises():
    # Runs smoothly past the escape bound.
    f = lambda y, out: lambda: np.multiply(30.0, y, out=out)
    with pytest.raises(DivergenceError):
        rk45_integrate(f, np.full((1, 1), 2.0), t_end=2.0, dt_sample=2.0)


def test_rk45_divergence_names_the_row():
    # Row 1 grows past the escape bound; rows 0 and 2 stay put.
    rates = np.array([[0.0], [30.0], [0.0]])
    f = lambda y, out: lambda: np.multiply(rates, y, out=out)
    with pytest.raises(DivergenceError, match="row 1 diverged"):
        rk45_integrate(f, np.full((3, 1), 2.0), t_end=2.0, dt_sample=2.0)


def test_rk45_rows_step_independently():
    # Each row of a batch gets the bytes it gets when integrated alone,
    # whatever the step sizes the other rows need.
    rates = np.array([-1.0, 3.0, -40.0])
    together = rk45_integrate(
        lambda y, out: lambda: np.multiply(rates[:, None], y, out=out),
        np.ones((3, 1)), t_end=2.0, dt_sample=0.25)[1]
    for i, rate in enumerate(rates):
        alone = rk45_integrate(
            lambda y, out: lambda: np.multiply(rate, y, out=out),
            np.ones((1, 1)), t_end=2.0, dt_sample=0.25)[1]
        assert np.array_equal(together[:, i], alone[:, 0])


def test_rk45_rows_walk_their_own_sample_grids():
    # No row waits at a sample time for the others: a batch takes as many
    # loop trips as its slowest row takes alone, six RHS calls each.
    rates = np.array([-1.0, 3.0, -40.0])

    def count_calls(rate_column, y0):
        calls = []

        def f(y, out):
            def step():
                calls.append(1)
                np.multiply(rate_column, y, out=out)
            return step

        rk45_integrate(f, y0, t_end=2.0, dt_sample=0.25)
        return len(calls)

    together = count_calls(rates[:, None], np.ones((3, 1)))
    alone = [count_calls(rate, np.ones((1, 1))) for rate in rates]
    assert together == max(alone) == 1321


def decay(y, out):
    return lambda: np.negative(y, out=out)


def test_rk45_empty_batch_has_empty_samples():
    times, states = rk45_integrate(decay, np.zeros((0, 3)), t_end=1.0,
                                   dt_sample=0.25)
    assert times.tolist() == [0.25, 0.5, 0.75, 1.0]
    assert states.shape == (4, 0, 3)


def test_rk45_finite_time_blowup_underflows():
    # dy/dt = y^2 from y0 = 2 blows up at t = 0.5; the controller chases
    # it until the step size hits the floor.
    f = lambda y, out: lambda: np.multiply(y, y, out=out)
    with pytest.raises((StiffnessError, DivergenceError)):
        rk45_integrate(f, np.full((1, 1), 2.0), t_end=2.0, dt_sample=2.0)


def test_rk45_retries_a_non_finite_stage():
    # Exact decay never leaves [0, 1], so only an over-long trial step
    # takes a stage state above 1: row 0's first trial step, 10 / rate.
    # The RHS answers such a state with inf, and the integrator rejects
    # that row's step and retries it with a smaller one.
    rates = np.array([[1000.0], [1.0]])
    wild = []

    def f(y, out):
        def step():
            np.multiply(-rates, y, out=out)
            over = np.abs(y) > 1.0
            wild.append(over.any())
            out[over] = np.inf
        return step

    times, states = rk45_integrate(f, np.ones((2, 1)), t_end=1.0,
                                   dt_sample=0.25)
    assert any(wild)
    assert np.isfinite(states).all()
    assert np.abs(states[:, 0, 0]).max() < 1e-9
    assert np.allclose(states[:, 1, 0], np.exp(-times), rtol=1e-8, atol=0.0)
    # An RHS that is never finite is retried down to the step floor.
    with pytest.raises(StiffnessError, match="step size underflow"):
        rk45_integrate(lambda y, out: lambda: out.fill(np.inf), np.ones((2, 1)),
                       t_end=1.0, dt_sample=0.25)
    # The public derivative still refuses such a state.
    with pytest.raises(ParameterError, match="must be finite"):
        flow_derivative("lorenz", [1.0, np.inf, 0.0])


# The byte reference for rk45_integrate: the same loop written plainly.
# It calls an unbound kernel ``f(y, out)`` at every stage, its
# coefficients and step size broadcast over rows and state, its constants
# are Python scalars, and a finished row keeps its step size.
@np.errstate(all="ignore")
def reference_rk45(f, y0, t_end, dt_sample, rel_tol=1e-9, abs_tol=1e-12):
    if not (np.isfinite(t_end) and t_end > 0):
        raise ParameterError(f"t_end must be positive, got {t_end}")
    if not (np.isfinite(dt_sample) and dt_sample > 0):
        raise ParameterError(f"dt_sample must be positive, got {dt_sample}")
    if not (rel_tol > 0 and abs_tol > 0):
        raise ParameterError("tolerances must be positive")

    y = np.array(y0, dtype=float)  # a copy: the loop steps it in place
    if y.ndim != 2:
        raise ParameterError(f"y0 must be a (rows, state) batch, "
                             f"got shape {y.shape}")
    rows, dim = y.shape
    n_samples = int(np.floor(t_end / dt_sample + 1e-9))
    if n_samples < 1:
        raise ParameterError("no sample times fall inside the integration span")
    sample_times = dt_sample * np.arange(1, n_samples + 1)
    h_floor = 1e-12 * t_end

    states = np.empty((n_samples, rows, dim))  # (sample, row, state)

    # Every trip of the loop below runs on these buffers and views, made
    # once per call.  Stages k0..k6 live in one array.  Coefficients
    # broadcast over rows and state and the products are summed in stage
    # order; a matrix product may reorder that sum and change the rounding
    # of every sample.
    K = np.empty((7, rows, dim))
    products = np.empty_like(K)
    y_stage = np.empty_like(y)
    stages = [(_DP_A[s, :s, None, None], K[:s], products[:s], K[s])
              for s in range(1, 7)]
    E = _DP_E[:, None, None]
    err, scale, size = (np.empty_like(y) for _ in range(3))
    finite_cells = np.empty(y.shape, dtype=bool)
    t = np.zeros(rows)
    h = np.full(rows, min(dt_sample, t_end) * 0.01)
    rest, step, norm, growth = (np.empty(rows) for _ in range(4))
    active, stalled, finite, accept, reached = (
        np.empty(rows, dtype=bool) for _ in range(5))
    step_col, accept_col = step[:, None], accept[:, None]
    # Each row walks the sample grid on its own: ``taken`` counts its
    # samples, and ``t_target`` is its next sample time, -inf once it has
    # taken all.  A time, not a count, marks a finished row because numpy's
    # integer comparison loops add 64 KB of code pages to peak RSS.
    taken = np.zeros(rows, dtype=np.intp)
    targets = np.append(sample_times, -np.inf)
    t_target = targets[taken]
    f(y, K[0])
    while True:
        np.subtract(t_target, t, out=rest)
        np.greater(rest, 0.0, out=active)
        if not active.all() or not rows:  # all() holds for no rows too
            # A row at its sample time (or past it, by rounding) takes the
            # sample and heads for the next; a finished row stays done.
            arrived = ~active & (rest > -np.inf)
            if arrived.any():
                states[taken[arrived], arrived] = y[arrived]
                taken += arrived
                t_target = targets[taken]
                continue
            if not active.any():
                return sample_times, states
        np.minimum(h, rest, out=h, where=active)
        np.less(h, h_floor, out=stalled)
        stalled &= active
        if stalled.any():
            r = int(np.argmax(stalled))
            raise StiffnessError(f"row {r}: step size underflow ({h[r]:.3e}) "
                                 f"at t={t[r]:.6g}; the problem looks stiff")
        np.multiply(h, active, out=step)  # rows that are done stay put
        for a, k_prev, prod, k_s in stages:
            np.add.reduce(np.multiply(a, k_prev, out=prod), out=y_stage)
            y_stage *= step_col
            y_stage += y
            f(y_stage, k_s)
        # y_stage now holds the stage-6 state: the fifth-order step.
        # A non-finite row is a wild trial step, not necessarily a lost
        # trajectory: it is retried with a smaller step.
        np.isfinite(y_stage, out=finite_cells)
        np.logical_and.reduce(finite_cells, axis=-1, out=finite)
        np.add.reduce(np.multiply(E, K, out=products), out=err)
        err *= step_col
        np.abs(y, out=scale)
        np.maximum(scale, np.abs(y_stage, out=size), out=scale)
        scale *= rel_tol
        scale += abs_tol
        err /= scale
        err *= err
        np.add.reduce(err, axis=-1, out=norm)
        norm /= dim
        np.sqrt(norm, out=norm)
        np.less_equal(norm, 1.0, out=accept)
        accept &= finite
        accept &= active

        np.add(t, step, out=t, where=accept)
        np.greater_equal(step, rest, out=reached)
        reached &= accept
        np.copyto(t, t_target, where=reached)
        np.copyto(y, y_stage, where=accept_col)
        np.copyto(K[0], K[6], where=accept_col)  # FSAL
        if np.abs(y, out=size).max() > ESCAPE_STATE_LIMIT:
            escaped = accept & (size.max(axis=-1) > ESCAPE_STATE_LIMIT)
            if escaped.any():
                r = int(np.argmax(escaped))
                raise DivergenceError(f"row {r} diverged near t={t[r]:.6g}",
                                      time=float(t[r]))
        # Step-size factor per row from its error norm: 0.9 * norm **
        # -0.2, clipped to [_MIN_FACTOR, _MAX_FACTOR], so _MAX_FACTOR at
        # norm 0; _MIN_FACTOR for a row whose trial step is not finite.
        # ``float_power`` calls the C library's ``pow`` element by
        # element, as Python's float ``**`` does.  numpy's vectorised
        # ``power`` may round the last bit differently, and every later
        # step of a chaotic flow would inherit the difference.
        np.float_power(norm, -0.2, out=growth)
        growth *= _SAFETY
        np.maximum(growth, _MIN_FACTOR, out=growth)
        np.minimum(growth, _MAX_FACTOR, out=growth)
        np.multiply(h, np.where(finite, growth, _MIN_FACTOR), out=h,
                    where=active)


def assert_same_bytes_as_reference(bind, y0, **span):
    """rk45_integrate(bind, ...) returns the reference's bytes; its
    states are returned."""
    times, states = rk45_integrate(bind, y0, **span)
    ref_times, ref_states = reference_rk45(
        lambda y, out: bind(y, out)(), y0, **span)
    assert times.tobytes() == ref_times.tobytes()
    assert states.shape == ref_states.shape
    assert states.tobytes() == ref_states.tobytes()
    return states


@pytest.mark.parametrize("N", [1, 5, 16])
@pytest.mark.parametrize("system", ["lorenz", "rossler", "chua"])
def test_rk45_keeps_the_reference_bytes_on_flows(system, N):
    # The burn-in and a sampled segment of a flow batch, as _batch_flow
    # integrates them; in a batch rows take their last sample on
    # different trips, and the finished ones ride along.
    bind, dt = flow_rhs(system), FLOW_DT[system]
    for seed in range(3):
        y0 = dynsys._flow_initial_conditions(system, N, seed)
        burn = assert_same_bytes_as_reference(
            bind, y0, t_end=FLOW_BURN_IN, dt_sample=FLOW_BURN_IN,
            rel_tol=BURN_IN_REL_TOL, abs_tol=BURN_IN_ABS_TOL)
        assert_same_bytes_as_reference(bind, burn[-1], t_end=16 * dt,
                                       dt_sample=dt)


def test_rk45_keeps_the_reference_bytes_on_retries_and_edges():
    span = {"t_end": 2.0, "dt_sample": 0.25}
    # Row 0's first trial steps leave a non-finite stage and are retried.
    rates = np.array([[1000.0], [1.0]])

    def wild(y, out):
        def step():
            np.multiply(-rates, y, out=out)
            out[np.abs(y) > 1.0] = np.inf
        return step

    assert_same_bytes_as_reference(wild, np.ones((2, 1)), **span)
    assert_same_bytes_as_reference(decay, np.zeros((0, 3)), **span)
    # Rows 0 and 1 take all their samples long before row 2, which needs
    # the smallest steps (41 and 105 step attempts alone, against 220),
    # and ride along with a zero step.
    rates = np.array([[-1.0], [3.0], [-40.0]])
    assert_same_bytes_as_reference(
        lambda y, out: lambda: np.multiply(rates, y, out=out),
        np.ones((3, 1)), **span)


@pytest.mark.parametrize("bind, y0", [
    # Row 1 escapes; y^2 blows up; a derivative that is never finite.
    (lambda y, out: lambda: np.multiply([[0.0], [30.0], [0.0]], y, out=out),
     np.full((3, 1), 2.0)),
    (lambda y, out: lambda: np.multiply(y, y, out=out), np.full((1, 1), 2.0)),
    (lambda y, out: lambda: out.fill(np.inf), np.ones((2, 1))),
    # A NaN initial state hides the escape of row 1; row 0 stalls.
    (lambda y, out: lambda: np.multiply(30.0 * np.ones((2, 1)), y, out=out),
     np.array([[np.nan], [0.9e12]])),
], ids=["escape", "blowup", "never-finite", "nan-start"])
def test_rk45_raises_what_the_reference_raises(bind, y0):
    with pytest.raises((StiffnessError, DivergenceError)) as got:
        rk45_integrate(bind, y0, t_end=2.0, dt_sample=2.0)
    with pytest.raises(type(got.value)) as want:
        reference_rk45(lambda y, out: bind(y, out)(), y0, t_end=2.0,
                       dt_sample=2.0)
    assert str(got.value) == str(want.value)


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
    src = np.arange(32, dtype=float)
    rows, meta = make_realizations(src, 32, 1, seed=9)
    assert rows.shape == (1, 32)
    assert np.array_equal(rows[0], src)
    assert meta == {"system": "record", "seed": 9, "mode": "windowed"}


def test_windowed_windows_are_exact_slices():
    src = np.random.default_rng(10).normal(size=200)
    rows, _ = make_realizations(src, 16, 25, seed=11)
    starts = np.random.default_rng(np.random.SeedSequence([11])).integers(
        0, 200 - 16 + 1, size=25)
    for row, start in zip(rows, starts):
        assert np.array_equal(row, src[start:start + 16])


def test_windowed_source_too_short():
    with pytest.raises(LengthError):
        make_realizations(np.arange(10, dtype=float), 32, 4, seed=0)


def test_windowed_source_must_be_finite():
    src = np.arange(64, dtype=float)
    src[40] = np.nan
    with pytest.raises(ParameterError, match="finite"):
        make_realizations(src, 16, 4, seed=0)


def test_logistic_realizations_shape_and_range():
    out = batch("logistic", 32, 50, seed=12)
    assert out.shape == (50, 32)
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_make_realizations_deterministic():
    for system in ("logistic", "henon", "ar1"):
        assert np.array_equal(batch(system, 16, 5, seed=13),
                              batch(system, 16, 5, seed=13))


def test_make_realizations_flow_deterministic():
    a, meta = make_realizations("lorenz", 16, 3, seed=14)
    assert np.array_equal(a, batch("lorenz", 16, 3, seed=14))
    assert meta["dt"] == 0.05
    assert "dt" not in make_realizations("henon", 16, 3, seed=14)[1]


@pytest.mark.parametrize("system", ["lorenz", "rossler", "chua"])
@pytest.mark.parametrize("seed", [0, 21])
def test_flow_realization_does_not_depend_on_batch_size(system, seed):
    # Every realization has its own step control, so it depends on
    # (seed, index) only.
    x16 = batch(system, 32, 16, seed)
    assert np.array_equal(batch(system, 32, 1, seed)[0], x16[0])
    assert np.array_equal(batch(system, 32, 8, seed)[5], x16[5])


# x-extent of each attractor and the least row spread to count as
# oscillating at L64.  Measured on 200 realizations (seed 0, L64): x spans
# -18.9..18.8 (Lorenz), -9.10..11.43 (Rossler) and -2.26..2.26 (Chua) with
# the burn-in at rel 1e-3 / abs 1e-6, and -18.5..18.6, -9.10..11.43 and
# -2.26..2.26 at rel 1e-6 / abs 1e-9.  The smallest row standard deviation
# was 2.5, 4.0 and 0.13 loose, 1.9, 4.0 and 0.29 tight.
ATTRACTOR_X = {"lorenz": (-20.0, 20.0, 1.0), "rossler": (-10.0, 12.0, 1.0),
               "chua": (-2.5, 2.5, 0.1)}


@pytest.mark.parametrize("system", ["lorenz", "rossler", "chua"])
def test_flow_burn_in_lands_on_attractor(system):
    # The loose-tolerance burn-in still ends on the attractor: bounded by
    # its extent, oscillating, and a different trajectory per realization.
    low, high, min_std = ATTRACTOR_X[system]
    x = batch(system, 64, 16, seed=0)
    assert np.all((x > low) & (x < high))
    assert np.all(x.std(axis=1) > min_std)
    assert len({row.tobytes() for row in x}) == 16


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions."""
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@pytest.mark.parametrize("system", ["lorenz", "rossler", "chua"])
def test_loose_burn_in_samples_the_attractor_distribution(system):
    # Chaos forgets the burn-in's error, so the first sample after the
    # loose burn-in has the same distribution as after a tight one
    # (rel 1e-6 / abs 1e-9), integrated here from other initial states.
    # Two-sample KS at the 1% level, 1.63 * sqrt(2 / N); the seeds are fixed.
    n = 200
    loose = batch(system, 8, n, seed=1)[:, 0]
    bind = flow_rhs(system)
    y0 = dynsys._flow_initial_conditions(system, n, seed=2)
    _, burn = rk45_integrate(bind, y0, t_end=FLOW_BURN_IN,
                             dt_sample=FLOW_BURN_IN, rel_tol=1e-6,
                             abs_tol=1e-9)
    dt = FLOW_DT[system]
    _, states = rk45_integrate(bind, burn[-1], t_end=dt, dt_sample=dt)
    tight = states[0, :, 0]
    assert ks_statistic(loose, tight) < 1.63 * np.sqrt(2.0 / n)


@pytest.mark.parametrize("system", [
    "lorenz",
    pytest.param("rossler", marks=pytest.mark.xfail(
        strict=True, reason="Rossler realizations leave the burn-in "
        "phase-locked: mean row correlation 0.78")),
    "chua",
])
def test_flow_batch_rows_are_independent(system):
    # Independent realizations of a chaotic flow are uncorrelated once the
    # burn-in has spread them over the attractor.
    rows = batch(system, 64, 50, seed=stage_seed(0, "generation"))
    corr = np.corrcoef(rows)
    assert corr[~np.eye(len(rows), dtype=bool)].mean() < 0.3


def test_lorenz_burn_in_rhs_budget(monkeypatch):
    # The benchmark's Lorenz batch costs exactly 14,156 right-hand sides:
    # the burn-in runs at the Dormand-Prince pair's standard tolerances,
    # and no row waits at a sample time for the others.
    calls = []
    real = dynsys.flow_rhs

    def counting_rhs(*args, **kwargs):
        bind = real(*args, **kwargs)

        def counting_bind(y, out):
            step = bind(y, out)

            def counting():
                calls.append(1)
                step()

            return counting

        return counting_bind

    monkeypatch.setattr(dynsys, "flow_rhs", counting_rhs)
    make_realizations("lorenz", 64, 16, seed=stage_seed(0, "generation"))
    assert len(calls) == 14_156


def test_make_realizations_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        make_realizations("logistic", 4, 10, seed=0)
    with pytest.raises(ParameterError):
        make_realizations("van_der_pol", 32, 10, seed=0)
    with pytest.raises(ParameterError):
        make_realizations("logistic", 32, 0, seed=0)


def test_realizations_round_trip(tmp_path):
    rows, meta = make_realizations("henon", 16, 8, seed=15)
    path = tmp_path / "r.csv"
    save_realizations(path, rows, meta)
    loaded, sidecar = load_realizations(path)
    assert sidecar == {"L": 16, "N": 8, **meta}
    assert np.array_equal(rows, loaded)
