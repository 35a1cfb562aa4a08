"""Source-process generators.

Discrete maps (logistic, Henon), continuous chaotic flows (Lorenz, Rossler,
Chua) integrated with an adaptive embedded Runge-Kutta 5(4) scheme, and the
stochastic control process: AR(1) noise pushed through the static transform
y = x * sqrt(|x|).

Each system has one generator, which produces a batch of N independent
realizations as one (N, L) array; a single series is row 0 of the N=1
batch.  ``make_realizations`` returns the rows with one provenance dict,
which ``save_realizations`` writes as the batch's sidecar.  Generation is a
deterministic function of (parameters, seed): each realization draws from
its own RNG stream derived from the batch seed (see ``seeding``).  Flow
batches are integrated together, but every realization has its own
step-size control and its own sample grid, so realization i of a batch
has the same samples whatever N is.  A flow's burn-in runs at looser
tolerances than its sampled segment: it only has to land on the attractor.

Each flow's equations are written once, as the autonomous kernel
``bind(y, out)`` that ``flow_rhs`` returns: it binds the component views of
a state buffer and a derivative buffer once and returns ``step()``, which
writes dy/dt at the buffer's current state.  ``rk45_integrate`` integrates
a (rows, state) batch from t = 0: it allocates its stage buffers and binds
one step to each once per call, and it rejects and retries a row whose
trial step leaves a non-finite stage.  On arrays this small numpy's
per-call overhead sets the cost, so the kernels and the integrator's loop
make only calls whose operands share one shape and dtype: no broadcast
operand, no Python scalar.  ``flow_derivative`` checks its state, then
binds and steps the same kernel once.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from .errors import (DivergenceError, LengthError, ParameterError, ParseError,
                     StiffnessError)
from .seeding import substream
from .series import (as_samples, file_sha256, parse_floats, read_meta,
                     read_table, write_table)

# Default burn-in discarded before sampling: enough to land on the
# attractor / in the stationary regime.
MAP_BURN_IN = 1000          # iterations
FLOW_BURN_IN = 100.0        # model time units
NOISE_BURN_IN = 100         # steps

# Sampling intervals chosen so a 32-sample window spans a few
# characteristic oscillations of each flow.
FLOW_DT = {"lorenz": 0.05, "rossler": 0.25, "chua": 0.05}

# The burn-in only has to land on the attractor.  Chaos amplifies any
# burn-in error by about e^(lambda * FLOW_BURN_IN), e^90 for Lorenz, so no
# tolerance reproduces "the" trajectory; a nearby true trajectory on the
# attractor is all one can get, and a loose one shadows it as well as a
# tight one.  The burn-in therefore runs at the standard tolerances of the
# Dormand-Prince pair, rel 1e-3 / abs 1e-6 (the defaults of MATLAB's ode45
# and SciPy's solve_ivp).  The sampled segment is the data and keeps
# rk45_integrate's defaults, rel 1e-9 / abs 1e-12.
BURN_IN_REL_TOL = 1e-3
BURN_IN_ABS_TOL = 1e-6

ESCAPE_LIMIT = 1e6          # map iterates
ESCAPE_STATE_LIMIT = 1e12   # accepted flow states


# ---------------------------------------------------------------------------
# Parameter records (defaults are the chaotic-regime values)
# ---------------------------------------------------------------------------

@dataclass
class MapParams:
    """Logistic growth rate and Henon coefficients."""

    r: float = 4.0
    a: float = 1.4
    b: float = 0.3

    def __post_init__(self):
        if not (np.isfinite(self.r) and 0.0 < self.r <= 4.0):
            raise ParameterError(f"logistic rate must be in (0, 4], got {self.r}")
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ParameterError("Henon coefficients must be finite")


@dataclass
class FlowParams:
    """Coefficients of the three flows, all dimensionless."""

    lorenz_sigma: float = 10.0
    lorenz_rho: float = 28.0
    lorenz_beta: float = 8.0 / 3.0
    rossler_a: float = 0.2
    rossler_b: float = 0.2
    rossler_c: float = 5.7
    chua_alpha: float = 15.6
    chua_beta: float = 28.0
    chua_m0: float = -8.0 / 7.0
    chua_m1: float = -5.0 / 7.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")


@dataclass
class NoiseParams:
    """AR(1) coefficient; innovations are zero-mean unit-variance normal."""

    alpha: float = 0.2

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and abs(self.alpha) < 1.0):
            raise ParameterError(
                f"AR coefficient must satisfy |alpha| < 1 for stationarity, "
                f"got {self.alpha}"
            )


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

def chua_nonlinearity(x, m0: float, m1: float):
    """Piecewise-linear diode characteristic of the Chua model.

    Slope m0 on |x| <= 1, slope m1 outside, continuous at the kinks.
    """
    return m1 * x + 0.5 * (m0 - m1) * (np.abs(x + 1.0) - np.abs(x - 1.0))


def flow_rhs(system: str, params: FlowParams | None = None):
    """``bind(state, out)`` for the named flow, the form ``rk45_integrate``
    takes.

    ``bind`` takes the component views of ``state`` (a 3-vector or an
    (N, 3) batch) and of ``out``, an array of the same shape that does not
    overlap it, and the flow's coefficients as arrays of the component
    shape, once.  It returns ``step()``, which writes dy/dt at the current
    contents of ``state`` into ``out``.  ``step`` makes only in-place numpy
    calls whose operands all have one shape: on a 16-row batch, numpy takes
    about 0.4 µs for such a call but about 1.5 µs when one operand
    broadcasts, and a Python float operand costs about 0.2 µs more.  It
    checks nothing: a non-finite ``state`` gives a non-finite ``out``.  The
    flows are autonomous, so time is no argument.
    """
    p = FlowParams() if params is None else params
    if system == "lorenz":
        def bind(state, out):
            x, y, z = state[..., 0], state[..., 1], state[..., 2]
            dx, dy, dz = out[..., 0], out[..., 1], out[..., 2]
            sigma, rho, beta = (np.full(x.shape, c) for c in (
                p.lorenz_sigma, p.lorenz_rho, p.lorenz_beta))
            beta_z = np.empty(x.shape)

            def step():
                np.subtract(y, x, out=dx)         # dx = sigma (y - x)
                np.multiply(dx, sigma, out=dx)
                np.subtract(rho, z, out=dy)       # dy = x (rho - z) - y
                np.multiply(dy, x, out=dy)
                np.subtract(dy, y, out=dy)
                np.multiply(x, y, out=dz)         # dz = x y - beta z
                np.multiply(beta, z, out=beta_z)
                np.subtract(dz, beta_z, out=dz)
            return step
    elif system == "rossler":
        def bind(state, out):
            x, y, z = state[..., 0], state[..., 1], state[..., 2]
            dx, dy, dz = out[..., 0], out[..., 1], out[..., 2]
            a, b, c = (np.full(x.shape, k) for k in (
                p.rossler_a, p.rossler_b, p.rossler_c))

            def step():
                np.negative(y, out=dx)            # dx = -y - z
                np.subtract(dx, z, out=dx)
                np.multiply(a, y, out=dy)         # dy = x + a y
                np.add(dy, x, out=dy)
                np.subtract(x, c, out=dz)         # dz = b + z (x - c)
                np.multiply(dz, z, out=dz)
                np.add(dz, b, out=dz)
            return step
    elif system == "chua":
        def bind(state, out):
            x, y, z = state[..., 0], state[..., 1], state[..., 2]
            dx, dy, dz = out[..., 0], out[..., 1], out[..., 2]
            # chua_nonlinearity's terms, in its order of operations.
            alpha, m1, half_gap, one, minus_beta = (
                np.full(x.shape, k) for k in (
                    p.chua_alpha, p.chua_m1, 0.5 * (p.chua_m0 - p.chua_m1),
                    1.0, -p.chua_beta))
            g, right = np.empty(x.shape), np.empty(x.shape)

            def step():
                np.add(x, one, out=g)             # g = m1 x + 0.5 (m0 - m1)
                np.abs(g, out=g)                  #     (|x + 1| - |x - 1|)
                np.subtract(x, one, out=right)
                np.abs(right, out=right)
                np.subtract(g, right, out=g)
                np.multiply(half_gap, g, out=g)
                np.multiply(m1, x, out=right)
                np.add(right, g, out=g)
                np.subtract(y, x, out=dx)         # dx = alpha (y - x - g)
                np.subtract(dx, g, out=dx)
                np.multiply(dx, alpha, out=dx)
                np.subtract(x, y, out=dy)         # dy = x - y + z
                np.add(dy, z, out=dy)
                np.multiply(minus_beta, y, out=dz)  # dz = -beta y
            return step
    else:
        raise ParameterError(f"unknown flow {system!r}; expected lorenz|rossler|chua")
    return bind


def flow_derivative(system: str, state, params: FlowParams | None = None) -> np.ndarray:
    """Right-hand side of the named flow at ``state``.

    ``state`` may be a single 3-vector or an (N, 3) batch; the derivative
    has the same shape.  Unlike the kernel of ``flow_rhs``, which it binds
    to ``state`` and its result and steps once, it refuses a non-finite
    state.
    """
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != 3:
        raise ParameterError(f"state must have 3 components, got shape {state.shape}")
    if not np.isfinite(state).all():
        raise ParameterError("state must be finite")
    out = np.empty_like(state)
    flow_rhs(system, params)(state, out)()
    return out


# Dormand-Prince 5(4) tableau.  Row s of the lower-triangular A gives stage
# s from stages 0..s-1; row 6 equals B5, so the stage-6 state is the
# fifth-order step and its derivative is k0 of the next step (first same as
# last).
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
# B5 - B4: coefficients of the embedded error estimate.
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


# A wild trial step may overflow or leave a stage state that is not finite;
# that row is retried, so no floating-point warning in a call is news.
@np.errstate(all="ignore")
def rk45_integrate(bind, y0, t_end: float, dt_sample: float,
                   rel_tol: float = 1e-9, abs_tol: float = 1e-12):
    """Adaptive embedded Runge-Kutta 5(4) with sampling on a fixed grid.

    Integrates the autonomous system dy/dt = f(y) from t = 0 and records
    the state at every positive multiple of ``dt_sample`` up to ``t_end``
    (steps are clamped to sample boundaries, so samples carry no
    interpolation error).

    ``y0`` is a (rows, state) batch; each row is one independent
    realization.  Each row has its own time, step size, accept/reject
    decision and place on the sample grid; the step control uses the RMS
    over the state axis of the row's scaled error estimate.  A row that
    reaches a sample time records its state and heads for the next one at
    once, and a row that has taken every sample rides along with a zero
    step until the last row is done.  A row's samples therefore depend on
    its own initial state only, not on the other rows.

    A step attempt for every row makes about 100 numpy calls on arrays of
    a few dozen values, so numpy's per-call overhead, not the arithmetic,
    sets its cost.  No ufunc call of a step attempt broadcasts, takes a
    Python scalar or mixes dtypes, since each of these takes one of
    numpy's slow paths (numpy 2.4, 16 rows, 2-CPU host): an in-place
    multiply by a (rows, 1) column costs about 1.5 µs against 0.4 µs by
    an operand of the same shape, a float times a bool array about 1.2 µs
    against 0.5 µs, and ``.all()`` or ``.any()`` about 1.1 µs against
    0.6 µs for ``np.count_nonzero``.  So the tableau, the tolerances and
    the other constants are arrays made once per call, and the step size
    and the accept mask are widened to (rows, state) once per attempt.

    Parameters
    ----------
    bind : callable
        ``bind(y, out)`` returns ``step()``, which writes dy/dt at the
        current contents of ``y`` into ``out``; ``flow_rhs`` gives one.
        The integrator binds seven steps once per call, one per stage, to
        (rows, state) buffers that it rewrites in place between calls of
        ``step``, so ``bind`` must hold views of ``y`` and ``out``, not
        copies.  ``step`` need not check ``y``: a trial step may give a
        stage state or derivative that is not finite, and the integrator
        then rejects that row's step and retries it with a smaller one.
    y0 : array_like
        Initial states, one row each: (N, 3) for N realizations of a flow.
        Any other number of axes, or a value that is not finite, is a
        ``ParameterError``; the latter names its row.

    Returns
    -------
    (times, states) : (ndarray of shape (m,), ndarray of shape (m, rows, state))
    """
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
    finite_rows = np.isfinite(y).all(axis=-1)
    if np.count_nonzero(finite_rows) < rows:
        raise ParameterError(f"y0 row {int(np.argmin(finite_rows))} is not finite")
    n_samples = int(np.floor(t_end / dt_sample + 1e-9))
    if n_samples < 1:
        raise ParameterError("no sample times fall inside the integration span")
    sample_times = dt_sample * np.arange(1, n_samples + 1)

    states = np.empty((n_samples, rows, dim))  # (sample, row, state)

    # Every trip of the loop below runs on these buffers, views and
    # constants, made once per call.  Stages k0..k6 live in one array, and
    # A[s] and E hold the tableau's coefficients at the shape of K.  The
    # products are summed in stage order; a matrix product may reorder
    # that sum and change the rounding of every sample.
    K = np.empty((7, rows, dim))
    A = np.empty((7, 7, rows, dim))
    A[...] = _DP_A[:, :, None, None]
    E = np.empty_like(K)
    E[...] = _DP_E[:, None, None]
    products = np.empty_like(K)
    y_stage = np.empty_like(y)
    k0_step = bind(y, K[0])
    stages = [(A[s, :s], K[:s], products[:s], bind(y_stage, K[s]))
              for s in range(1, 7)]
    err, scale, size, step = (np.empty_like(y) for _ in range(4))
    finite_cells, accept_cells, over_cells = (
        np.empty(y.shape, dtype=bool) for _ in range(3))
    rel, atol, escape_limit = (np.full(y.shape, float(v)) for v in (
        rel_tol, abs_tol, ESCAPE_STATE_LIMIT))
    zero, one, neg_inf, h_floor, dims = (np.full(rows, float(v)) for v in (
        0.0, 1.0, -np.inf, 1e-12 * t_end, dim))
    safety, exponent, min_factor, max_factor = (np.full(rows, v) for v in (
        _SAFETY, -0.2, _MIN_FACTOR, _MAX_FACTOR))
    t = np.zeros(rows)
    h = np.full(rows, min(dt_sample, t_end) * 0.01)
    rest, norm, growth = (np.empty(rows) for _ in range(3))
    active, idle, arrived, stalled, finite, wild, accept, reached = (
        np.empty(rows, dtype=bool) for _ in range(8))
    h_col, accept_col = h[:, None], accept[:, None]
    # Each row walks the sample grid on its own: ``taken`` counts its
    # samples, and ``t_target`` is its next sample time, -inf once it has
    # taken all.  A time, not a count, marks a finished row because numpy's
    # integer comparison loops add 64 KB of code pages to peak RSS.  A
    # finished row's step size is 0 from then on, so it rides along with a
    # zero step.
    taken = np.zeros(rows, dtype=np.intp)
    targets = np.append(sample_times, -np.inf)
    t_target = targets[taken]
    k0_step()
    while True:
        np.subtract(t_target, t, out=rest)
        np.greater(rest, zero, out=active)
        n_active = np.count_nonzero(active)
        if n_active < rows or not rows:
            # A row at its sample time (or past it, by rounding) takes the
            # sample and heads for the next; a finished row stays done.
            np.logical_not(active, out=idle)
            np.greater(rest, neg_inf, out=arrived)
            arrived &= idle
            if np.count_nonzero(arrived):
                states[taken[arrived], arrived] = y[arrived]
                taken += arrived
                t_target = targets[taken]
                h[t_target == -np.inf] = 0.0
                continue
            if not n_active:
                return sample_times, states
        np.minimum(h, rest, out=h, where=active)
        np.less(h, h_floor, out=stalled)
        stalled &= active
        if np.count_nonzero(stalled):
            r = int(np.argmax(stalled))
            raise StiffnessError(f"row {r}: step size underflow ({h[r]:.3e}) "
                                 f"at t={t[r]:.6g}; the problem looks stiff")
        np.copyto(step, h_col)
        for a, k_prev, prod, stage_step in stages:
            np.add.reduce(np.multiply(a, k_prev, out=prod), out=y_stage)
            y_stage *= step
            y_stage += y
            stage_step()
        # y_stage now holds the stage-6 state: the fifth-order step.
        # A non-finite row is a wild trial step, not necessarily a lost
        # trajectory: it is retried with a smaller step.
        np.isfinite(y_stage, out=finite_cells)
        np.logical_and.reduce(finite_cells, axis=-1, out=finite)
        np.add.reduce(np.multiply(E, K, out=products), out=err)
        err *= step
        np.abs(y, out=scale)
        np.maximum(scale, np.abs(y_stage, out=size), out=scale)
        scale *= rel
        scale += atol
        err /= scale
        err *= err
        np.add.reduce(err, axis=-1, out=norm)
        norm /= dims
        np.sqrt(norm, out=norm)
        np.less_equal(norm, one, out=accept)
        accept &= finite
        accept &= active

        np.add(t, h, out=t, where=accept)
        np.greater_equal(h, rest, out=reached)
        reached &= accept
        np.copyto(t, t_target, where=reached)
        np.copyto(accept_cells, accept_col)
        np.copyto(y, y_stage, where=accept_cells)
        np.copyto(K[0], K[6], where=accept_cells)  # FSAL
        np.abs(y, out=size)
        np.greater(size, escape_limit, out=over_cells)
        if np.count_nonzero(over_cells):
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
        np.float_power(norm, exponent, out=growth)
        growth *= safety
        # ``fmax`` also maps a NaN norm (a NaN derivative at a finite
        # stage-6 state) to _MIN_FACTOR, where ``maximum`` would carry the
        # NaN into h and retry the row forever.
        np.fmax(growth, min_factor, out=growth)
        np.minimum(growth, max_factor, out=growth)
        np.logical_not(finite, out=wild)
        np.copyto(growth, min_factor, where=wild)
        h *= growth  # a finished row's 0 stays 0


# Reference attractor points used to seed independent initial conditions;
# perturbations stay well inside each basin of attraction.
_FLOW_REFERENCE = {
    "lorenz": (np.array([1.0, 1.0, 1.0]), 0.5),
    "rossler": (np.array([1.0, 1.0, 0.1]), 0.5),
    "chua": (np.array([0.1, 0.0, 0.0]), 0.05),
}


def _flow_initial_conditions(system: str, count: int, seed: int) -> np.ndarray:
    ref, scale = _FLOW_REFERENCE[system]
    y0 = np.empty((count, 3))
    for i in range(count):
        y0[i] = ref + substream(seed, i).uniform(-scale, scale, size=3)
    return y0


# ---------------------------------------------------------------------------
# Realization batches
# ---------------------------------------------------------------------------

def _batch_logistic(L, N, seed, params):
    x = np.array([substream(seed, i).uniform(0.1, 0.9) for i in range(N)])
    out = np.empty((N, L))
    r = params.r
    for step in range(MAP_BURN_IN + L):
        x = np.clip(r * x * (1.0 - x), 0.0, 1.0)
        if step >= MAP_BURN_IN:
            out[:, step - MAP_BURN_IN] = x
    return out


_HENON_FIXED_X = 0.6313544770895048  # positive root of a*x^2 + (1-b)*x - 1 = 0


def _batch_henon(L, N, seed, params):
    ref = np.array([_HENON_FIXED_X, params.b * _HENON_FIXED_X])
    init = np.array([ref + substream(seed, i).uniform(-0.05, 0.05, size=2)
                     for i in range(N)])
    x, y = init[:, 0], init[:, 1]
    out = np.empty((N, L))
    for step in range(MAP_BURN_IN + L):
        x, y = 1.0 - params.a * x * x + y, params.b * x
        if np.max(np.abs(x)) > ESCAPE_LIMIT:
            raise DivergenceError(
                f"Henon batch escaped (|x| > {ESCAPE_LIMIT:g}) at step {step}",
                step=step,
            )
        if step >= MAP_BURN_IN:
            out[:, step - MAP_BURN_IN] = x
    return out


def _batch_flow(system, L, N, seed, params):
    dt = FLOW_DT[system]
    y0 = _flow_initial_conditions(system, N, seed)
    bind = flow_rhs(system, params)
    _, burn = rk45_integrate(bind, y0, t_end=FLOW_BURN_IN, dt_sample=FLOW_BURN_IN,
                             rel_tol=BURN_IN_REL_TOL, abs_tol=BURN_IN_ABS_TOL)
    _, states = rk45_integrate(bind, burn[-1], t_end=L * dt, dt_sample=dt)
    # states: (L, N, 3) -> x-coordinate per realization
    return states[:, :, 0].T.copy()


def _batch_ar1(L, N, seed, params):
    alpha = params.alpha
    sd = 1.0 / np.sqrt(1.0 - alpha * alpha)
    x = np.empty(N)
    eps = np.empty((N, NOISE_BURN_IN + L - 1))
    for i in range(N):
        rng = substream(seed, i)
        x[i] = rng.normal(0.0, sd)
        eps[i] = rng.standard_normal(NOISE_BURN_IN + L - 1)
    out = np.empty((N, NOISE_BURN_IN + L))
    out[:, 0] = x
    for t in range(eps.shape[1]):
        out[:, t + 1] = alpha * out[:, t] + eps[:, t]
    xs = out[:, NOISE_BURN_IN:]
    return xs * np.sqrt(np.abs(xs))


_SYSTEMS = {
    "logistic": (_batch_logistic, MapParams),
    "henon": (_batch_henon, MapParams),
    **{flow: (partial(_batch_flow, flow), FlowParams) for flow in FLOW_DT},
    "ar1": (_batch_ar1, NoiseParams),
}
SYSTEMS = tuple(_SYSTEMS)


def make_realizations(source, L: int, N: int, seed: int = 0,
                      params=None) -> tuple:
    """(rows, meta): N realizations of length L as an (N, L) array, from a
    named system or a long record, and their provenance.

    The source decides the mode.  A system name generates independent
    realizations: fresh initial conditions each, after a burn-in.  A record
    (any 1-D array) is windowed: each realization is a copy of L samples at
    a uniformly random start index.  ``meta`` holds ``system``, ``seed``
    and ``mode``, plus ``params`` for a system and ``dt`` for a flow.
    Deterministic given (source, params, seed).
    """
    if L < 8:
        raise ParameterError(f"realization length must be at least 8, got {L}")
    if N < 1:
        raise ParameterError(f"need at least one realization, got {N}")

    if not isinstance(source, str):
        samples = as_samples(source)
        if samples.size < L:
            raise LengthError(
                f"source length {samples.size} is shorter than window length {L}"
            )
        rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
        starts = rng.integers(0, samples.size - L + 1, size=N)
        rows = samples[starts[:, None] + np.arange(L)]
        return rows, {"system": "record", "seed": seed, "mode": "windowed"}

    if source not in SYSTEMS:
        raise ParameterError(f"unknown system {source!r}; expected one of {SYSTEMS}")
    generate, params_type = _SYSTEMS[source]
    if params is None:
        params = params_type()
    rows = generate(L, N, seed, params)
    meta = {"system": source, "seed": seed, "mode": "independent",
            "params": asdict(params)}
    if source in FLOW_DT:
        meta["dt"] = FLOW_DT[source]
    return rows, meta


# ---------------------------------------------------------------------------
# Serialization: one realization per CSV row, sidecar JSON with provenance
# ---------------------------------------------------------------------------

def save_realizations(path, rows, meta: dict,
                      extra_meta: dict | None = None) -> str:
    """Write an (N, L) batch as a headerless CSV plus a .meta.json sidecar
    holding L, N, the provenance keys of ``meta`` and ``extra_meta``;
    return the SHA-256 of the CSV."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise LengthError(f"realizations must be one (N, L) array, "
                          f"got shape {rows.shape}")
    sidecar = {"L": rows.shape[1], "N": rows.shape[0]}
    for key in ("system", "seed", "mode", "params", "dt", "filter"):
        if key in meta:
            sidecar[key] = meta[key]
    if extra_meta:
        sidecar.update(extra_meta)
    write_table(path, (row.tolist() for row in rows), sidecar)
    return file_sha256(path)


def load_realizations(path) -> tuple:
    """(rows, meta): a realization CSV as an (N, L) array and its sidecar
    ({} without one).  Every row must have the sidecar's L, or without one
    the first row's length, and there must be as many rows as its N."""
    meta = read_meta(path)
    rows = [parse_floats(cells, path, line)
            for line, cells in read_table(path, meta.get("L"))]
    if not rows:
        raise LengthError(f"{path} contains no realizations")
    if "N" in meta and len(rows) != meta["N"]:
        raise ParseError(f"{path}: {len(rows)} realizations, but its "
                         f"sidecar says N = {meta['N']}")
    return np.array(rows), meta
