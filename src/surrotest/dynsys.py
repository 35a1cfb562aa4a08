"""Source-process generators.

Discrete maps (logistic, Henon), continuous chaotic flows (Lorenz, Rossler,
Chua) integrated with an adaptive embedded Runge-Kutta 5(4) scheme, and the
stochastic control process: AR(1) noise pushed through the static transform
y = x * sqrt(|x|).

Each system has one generator, which produces a batch of N independent
realizations; a single series is the N=1 batch,
``make_realizations(system, L, 1, seed=...)[0]``.  Generation is a
deterministic function of (parameters, seed): each realization draws from
its own RNG stream derived from the batch seed (see ``seeding``).  Flow
batches are integrated together, but every realization has its own
step-size control, so realization i of a batch has the same samples
whatever N is.  A flow's burn-in runs at looser tolerances than its
sampled segment: it only has to land on the attractor.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import DivergenceError, LengthError, ParameterError, StiffnessError
from .seeding import substream
from .series import (TimeSeries, atomic_open, check_width, file_sha256,
                     meta_path, parse_cells, read_meta, write_json)

# Default burn-in discarded before sampling: enough to land on the
# attractor / in the stationary regime.
MAP_BURN_IN = 1000          # iterations
FLOW_BURN_IN = 100.0        # model time units
NOISE_BURN_IN = 100         # steps

# Sampling intervals chosen so a 32-sample window spans a few
# characteristic oscillations of each flow.
FLOW_DT = {"lorenz": 0.05, "rossler": 0.25, "chua": 0.05}

# The burn-in only has to land on the attractor, and chaos erases any
# accuracy beyond that, so it runs at looser tolerances than the sampled
# segment (rk45_integrate's defaults, rel 1e-9 / abs 1e-12).
BURN_IN_REL_TOL = 1e-6
BURN_IN_ABS_TOL = 1e-9

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


def flow_derivative(system: str, state, params: FlowParams | None = None) -> np.ndarray:
    """Right-hand side of the named flow at ``state``.

    ``state`` may be a single 3-vector or an (N, 3) batch; the derivative
    has the same shape.
    """
    if params is None:
        params = FlowParams()
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != 3:
        raise ParameterError(f"state must have 3 components, got shape {state.shape}")
    if not np.isfinite(state).all():
        raise ParameterError("state must be finite")
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    out = np.empty_like(state)
    if system == "lorenz":
        out[..., 0] = params.lorenz_sigma * (y - x)
        out[..., 1] = x * (params.lorenz_rho - z) - y
        out[..., 2] = x * y - params.lorenz_beta * z
    elif system == "rossler":
        out[..., 0] = -y - z
        out[..., 1] = x + params.rossler_a * y
        out[..., 2] = params.rossler_b + z * (x - params.rossler_c)
    elif system == "chua":
        fx = chua_nonlinearity(x, params.chua_m0, params.chua_m1)
        out[..., 0] = params.chua_alpha * (y - x - fx)
        out[..., 1] = x - y + z
        out[..., 2] = -params.chua_beta * y
    else:
        raise ParameterError(f"unknown flow {system!r}; expected lorenz|rossler|chua")
    return out


# Dormand-Prince 5(4) tableau.  Row s of the lower-triangular A gives stage
# s from stages 0..s-1; row 6 equals B5, so the stage-6 state is the
# fifth-order step and its derivative is k0 of the next step (first same as
# last).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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


def _step_factors(norm: np.ndarray) -> np.ndarray:
    """Step-size factor per row from its error norm: 0.9 * norm ** -0.2,
    clipped to [_MIN_FACTOR, _MAX_FACTOR], so _MAX_FACTOR at norm 0.

    ``float_power`` calls the C library's ``pow`` element by element, as
    Python's float ``**`` does.  numpy's vectorised ``power`` may round the
    last bit differently, and every later step of a chaotic flow would
    inherit the difference.
    """
    with np.errstate(divide="ignore"):  # norm 0 grows the step the most
        growth = _SAFETY * np.float_power(norm, -0.2)
    return np.minimum(np.maximum(growth, _MIN_FACTOR), _MAX_FACTOR)


def _row_name(row: int, lead: tuple) -> str:
    if not lead:
        return "trajectory"
    return "row " + ", ".join(str(i) for i in np.unravel_index(row, lead))


def rk45_integrate(f, y0, t_end: float, dt_sample: float,
                   rel_tol: float = 1e-9, abs_tol: float = 1e-12,
                   t0: float = 0.0):
    """Adaptive embedded Runge-Kutta 5(4) with sampling on a fixed grid.

    Integrates dy/dt = f(t, y) from ``t0`` and records the state at every
    positive multiple of ``dt_sample`` up to ``t_end`` (steps are clamped
    to sample boundaries, so samples carry no interpolation error).

    The last axis of ``y0`` is the state; every leading index is one
    independent realization, a row.  Each row has its own time, step size
    and accept/reject decision, controlled by the RMS over the state axis
    of its scaled error estimate.  The rows step together until every one
    has reached the next sample time; a row already there takes no step.
    A row's samples therefore depend on its own initial state only, not on
    the other rows, and a 1-D ``y0`` is a single row.

    Parameters
    ----------
    f : callable
        Right-hand side ``f(t, y) -> dy/dt``.  ``y`` has the shape of
        ``y0`` (scalars are promoted to shape-(1,) arrays) and ``t`` the
        shape ``y0.shape[:-1] + (1,)``: one time per row, broadcasting
        against ``y``.
    y0 : array_like
        Initial state: (3,) for one flow, (N, 3) for N realizations.

    Returns
    -------
    (times, states) : (ndarray of shape (m,), ndarray of shape (m, *y0.shape))
    """
    if not (np.isfinite(t_end) and t_end > t0):
        raise ParameterError(f"t_end must exceed t0, got {t_end}")
    if not (np.isfinite(dt_sample) and dt_sample > 0):
        raise ParameterError(f"dt_sample must be positive, got {dt_sample}")
    if not (rel_tol > 0 and abs_tol > 0):
        raise ParameterError("tolerances must be positive")

    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    shape, lead = y0.shape, y0.shape[:-1]
    y = y0.reshape(-1, shape[-1]).copy()  # (rows, state)
    rows = y.shape[0]
    span = t_end - t0
    n_samples = int(np.floor(span / dt_sample + 1e-9))
    if n_samples < 1:
        raise ParameterError("no sample times fall inside the integration span")
    sample_times = t0 + dt_sample * np.arange(1, n_samples + 1)
    h_floor = 1e-12 * span

    states = np.empty((n_samples,) + shape)

    # Stages k0..k6 in one array, seen by f in the shape of y0.  Coefficients
    # broadcast over rows and state and the products are summed in stage
    # order; a matrix product may reorder that sum and change the rounding
    # of every sample.
    K = np.empty((7,) + y.shape)
    K_f = K.reshape((7,) + shape)
    A = _DP_A[:, :, None, None]
    E = _DP_E[:, None, None]
    t_shape = lead + (1,)
    t = np.full(rows, float(t0))
    h = np.full(rows, min(dt_sample, span) * 0.01)
    K_f[0] = f(t.reshape(t_shape), y.reshape(shape))
    for i_sample, t_target in enumerate(sample_times):
        while True:
            rest = t_target - t
            active = rest > 0.0
            if not active.any():
                break
            np.minimum(h, rest, out=h, where=active)
            stalled = active & (h < h_floor)
            if stalled.any():
                r = int(np.argmax(stalled))
                raise StiffnessError(
                    f"{_row_name(r, lead)}: step size underflow ({h[r]:.3e}) "
                    f"at t={t[r]:.6g}; the problem looks stiff"
                )
            step = np.where(active, h, 0.0)  # rows at the target stay put
            h_col = step[:, None]
            t_stage = (t + _DP_C[:, None] * step).reshape((7,) + t_shape)
            for s in range(1, 7):
                y_new = y + h_col * (A[s, :s] * K[:s]).sum(axis=0)
                K_f[s] = f(t_stage[s], y_new.reshape(shape))
            # y_new now holds the stage-6 state: the fifth-order step.
            # A non-finite row is a wild trial step, not necessarily a lost
            # trajectory: it is retried with a smaller step.
            finite = np.isfinite(y_new).all(axis=-1)
            with np.errstate(invalid="ignore"):  # non-finite rows
                err = h_col * (E * K).sum(axis=0)
                scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
                norm = np.sqrt(((err / scale) ** 2).mean(axis=-1))
            accept = active & finite & (norm <= 1.0)

            t = np.where(accept, np.where(step >= rest, t_target, t + step), t)
            np.copyto(y, y_new, where=accept[:, None])
            np.copyto(K[0], K[6], where=accept[:, None])  # FSAL
            escaped = accept & (np.abs(y).max(axis=-1) > ESCAPE_STATE_LIMIT)
            if escaped.any():
                r = int(np.argmax(escaped))
                raise DivergenceError(
                    f"{_row_name(r, lead)} diverged near t={t[r]:.6g}",
                    time=float(t[r])
                )
            factor = np.where(finite, _step_factors(norm), _MIN_FACTOR)
            h *= np.where(active, factor, 1.0)
        states[i_sample] = y.reshape(shape)
    return sample_times, states


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

SYSTEMS = ("logistic", "henon", "lorenz", "rossler", "chua", "ar1")


def _default_params(system: str):
    if system in ("logistic", "henon"):
        return MapParams()
    if system in FLOW_DT:
        return FlowParams()
    return NoiseParams()


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
    f = lambda t, y: flow_derivative(system, y, params)
    _, burn = rk45_integrate(f, y0, t_end=FLOW_BURN_IN, dt_sample=FLOW_BURN_IN,
                             rel_tol=BURN_IN_REL_TOL, abs_tol=BURN_IN_ABS_TOL)
    _, states = rk45_integrate(f, burn[-1], t_end=L * dt, dt_sample=dt)
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


_BATCH_GENERATORS = {
    "logistic": _batch_logistic,
    "henon": _batch_henon,
    "lorenz": lambda L, N, seed, p: _batch_flow("lorenz", L, N, seed, p),
    "rossler": lambda L, N, seed, p: _batch_flow("rossler", L, N, seed, p),
    "chua": lambda L, N, seed, p: _batch_flow("chua", L, N, seed, p),
    "ar1": _batch_ar1,
}


def make_realizations(source, L: int, N: int, seed: int = 0,
                      params=None) -> list:
    """N realizations of length L from a named system or a long record.

    The source decides the mode.  A named system generates independent
    realizations: fresh initial conditions each, after a burn-in.  A
    TimeSeries record is windowed: each realization is a copy of L samples
    at a uniformly random start index.  Deterministic given (source,
    params, seed).
    """
    if L < 8:
        raise ParameterError(f"realization length must be at least 8, got {L}")
    if N < 1:
        raise ParameterError(f"need at least one realization, got {N}")

    if isinstance(source, TimeSeries):
        return _windowed_realizations(source, L, N, seed)

    system = str(source)
    if system not in SYSTEMS:
        raise ParameterError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    if params is None:
        params = _default_params(system)
    rows = _BATCH_GENERATORS[system](L, N, seed, params)
    dt = FLOW_DT.get(system)
    meta = {"system": system, "seed": seed, "mode": "independent",
            "params": asdict(params)}
    return [TimeSeries(rows[i], dt=dt, meta={**meta, "index": i})
            for i in range(N)]


def _windowed_realizations(source: TimeSeries, L: int, N: int, seed: int) -> list:
    samples = source.samples
    if samples.size < L:
        raise LengthError(
            f"source length {samples.size} is shorter than window length {L}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    starts = rng.integers(0, samples.size - L + 1, size=N)
    meta = {"system": source.meta.get("system", "record"), "seed": seed,
            "mode": "windowed"}
    return [TimeSeries(samples[s:s + L].copy(), dt=source.dt,
                       meta={**meta, "index": i, "start": int(s)})
            for i, s in enumerate(starts)]


# ---------------------------------------------------------------------------
# Serialization: one realization per CSV row, sidecar JSON with provenance
# ---------------------------------------------------------------------------

def save_realizations(path, realizations, extra_meta: dict | None = None) -> str:
    """Write realizations as a headerless CSV plus a .meta.json sidecar;
    return the SHA-256 of the CSV."""
    path = Path(path)
    lengths = {len(r) for r in realizations}
    if len(lengths) != 1:
        raise LengthError(f"realizations have mixed lengths: {sorted(lengths)}")
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        for r in realizations:
            writer.writerow([f"{v:.17g}" for v in r.samples])
    meta = {"L": lengths.pop(), "N": len(realizations)}
    first = realizations[0]
    for key in ("system", "seed", "mode", "params"):
        if key in first.meta:
            meta[key] = first.meta[key]
    if first.dt is not None:
        meta["dt"] = first.dt
    if extra_meta:
        meta.update(extra_meta)
    write_json(meta_path(path), meta)
    return file_sha256(path)


def load_realizations(path) -> tuple:
    """Read a realization CSV (and sidecar metadata when present); every
    row must have the sidecar's L, or without one the first row's length."""
    path = Path(path)
    meta = read_meta(path)
    width = meta.get("L")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            width = width or len(row)
            check_width(row, width, path, reader.line_num)
            rows.append(np.array(parse_cells(row, path, reader.line_num)))
    if not rows:
        raise LengthError(f"{path} contains no realizations")
    kept = {k: meta[k] for k in ("system", "seed", "mode", "params") if k in meta}
    series = [TimeSeries(r, dt=meta.get("dt"), meta={"index": i, **kept})
              for i, r in enumerate(rows)]
    return series, meta

