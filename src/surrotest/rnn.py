"""Single-hidden-layer recurrent classifier, built from scratch.

One scalar input per time step, ReLU hidden units, a sigmoid output unit,
binary cross-entropy loss, full backpropagation through time, norm-clipped
gradients and Adam with bias correction.  Everything is plain numpy; batches
are vectorized across items but time stays sequential (it has to).  With
B = 16 and H = 10-20 a time step costs numpy call overhead, not arithmetic,
so the forward and backward sweeps write every step into arrays allocated
once per batch; the bits are those of a sweep that allocates fresh
temporaries at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (LengthError, NumericError, ParameterError, ParseError,
                     TrainingError)
from .series import (atomic_open, meta_path, parse_cells, parse_floats,
                     read_json, read_meta, read_table, write_table)

PARAM_NAMES = ("w_in", "w_rec", "b_h", "w_out", "b_out")

# Adam's constants (Kingma & Ba, ICLR 2015) and the width of the trailing
# average behind the report's *_s5 curves.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
SMOOTH_WINDOW = 5

_P_FLOOR = 1e-12

# Hidden states held at a time by the evaluation passes, which need p but
# not the trace that backpropagation reads.
EVAL_WINDOW = 16


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _split(flat: np.ndarray) -> tuple:
    """Views of w_in, w_rec, b_h, w_out and b_out in a vector laid out in
    PARAM_NAMES order.  The model, its gradient and Adam's moments all use
    this layout."""
    # The vector holds h*h + 3h + 1 values, so (2h + 3)**2 = 4 * size + 5.
    h = (math.isqrt(4 * flat.size + 5) - 3) // 2
    a, b = h + h * h, 2 * h + h * h
    return (flat[:h], flat[h:a].reshape(h, h), flat[a:b], flat[b:b + h],
            flat[b + h:])


def _nonfinite_name(flat: np.ndarray) -> str | None:
    """The first parameter name under which ``flat`` holds a non-finite
    value, or None when all of it is finite."""
    if np.isfinite(flat).all():
        return None
    return next(name for name, part in zip(PARAM_NAMES, _split(flat))
                if not np.isfinite(part).all())


class RnnModel:
    """All parameters in one float64 vector ``vec``, laid out in
    PARAM_NAMES order; each named parameter is a view of it.

    The attributes cannot be rebound, so a view never detaches from
    ``vec``: write through one instead, as in ``model.w_out[...] = x``.
    """

    w_in = property(lambda self: self._views[0])    # (H,) input weights
    w_rec = property(lambda self: self._views[1])   # (H, H) recurrent weights
    b_h = property(lambda self: self._views[2])     # (H,) hidden bias
    w_out = property(lambda self: self._views[3])   # (H,) output weights
    b_out = property(lambda self: self._views[4])   # (1,) output bias
    vec = property(lambda self: self._vec)

    def __init__(self, w_in, w_rec, b_h, w_out, b_out):
        parts = [np.asarray(p, dtype=float)
                 for p in (w_in, w_rec, b_h, w_out, b_out)]
        h = parts[0].size
        if h < 1:
            raise ParameterError("hidden size must be at least 1")
        if [p.shape for p in parts] != [(h,), (h, h), (h,), (h,), (1,)]:
            raise ParameterError("parameter shapes are inconsistent")
        self._vec = np.concatenate([p.ravel() for p in parts])
        self._views = _split(self._vec)
        bad = _nonfinite_name(self._vec)
        if bad is not None:
            raise ParameterError(f"{bad} contains non-finite values")

    @property
    def hidden_size(self) -> int:
        return self.w_in.size

    def copy(self) -> "RnnModel":
        return RnnModel(*self._views)


def init_model(hidden_size: int, seed: int = 0) -> RnnModel:
    """Seeded initialization: weights uniform in +-1/sqrt(H), zero biases."""
    if hidden_size < 1:
        raise ParameterError(f"hidden size must be at least 1, got {hidden_size}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hidden_size)
    return RnnModel(
        w_in=rng.uniform(-bound, bound, size=hidden_size),
        w_rec=rng.uniform(-bound, bound, size=(hidden_size, hidden_size)),
        b_h=np.zeros(hidden_size),
        w_out=rng.uniform(-bound, bound, size=hidden_size),
        b_out=np.zeros(1),
    )


# ---------------------------------------------------------------------------
# Forward / loss
# ---------------------------------------------------------------------------

def _sigmoid(z):
    pos = z >= 0
    # exp(-|z|), written so that a NaN reaches exp with its own sign bit.
    e = np.exp(np.where(pos, -z, z))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def _forward_batch(model: RnnModel, X: np.ndarray, keep_trace: bool = True):
    """Probabilities and the full hidden trace for a (B, L) batch.

    h_0 = 0; h_t = ReLU(w_in * x_t + W_rec h_{t-1} + b_h);
    p = sigmoid(w_out . h_L + b_out).
    Returns (p (B,), trace (L+1, B, H)); trace[0] is the zero initial state.
    Without ``keep_trace`` the sweep holds only ``EVAL_WINDOW`` + 1 states
    at a time and returns (p, None), with the same bits of p.
    """
    B, L = X.shape
    H = model.hidden_size
    W = L if keep_trace else min(L, EVAL_WINDOW)
    # states[0] is the state before the window; the input and bias drive of
    # each step of the window goes straight into states[1:], and each step
    # then adds its recurrent term and applies the ReLU in place.
    states = np.empty((W + 1, B, H))
    states[0] = 0.0
    w_rec_t = model.w_rec.T.copy()
    rec = np.empty((B, H))
    # The ReLU's floor as a same-shape array: np.maximum against it skips
    # the per-call conversion and broadcast of the scalar 0.0.
    zeros = np.zeros((B, H))
    n = 0
    for lo in range(0, L, max(W, 1)):
        states[0] = states[n]
        n = min(W, L - lo)
        window = states[1:n + 1]
        np.multiply(X.T[lo:lo + n, :, None], model.w_in, out=window)
        window += model.b_h
        for h, h_next in zip(states[:n], window):
            np.dot(h, w_rec_t, out=rec)
            h_next += rec
            np.maximum(h_next, zeros, out=h_next)
        # Checked once per window, so the first bad step is named.
        if not np.all(np.isfinite(window)):
            bad = lo + 1 + np.where(~np.isfinite(window).all(axis=(1, 2)))[0][0]
            raise NumericError(f"non-finite hidden activation at step {int(bad)}")
    logits = states[n] @ model.w_out + model.b_out[0]
    return _sigmoid(np.atleast_1d(logits)), (states if keep_trace else None)


def _batch_loss(p: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(p, _P_FLOOR, 1.0 - _P_FLOOR)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


# ---------------------------------------------------------------------------
# Backpropagation through time
# ---------------------------------------------------------------------------

def _loss_and_gradients(model: RnnModel, X: np.ndarray, y: np.ndarray):
    """Mean loss over a (B, L) batch with labels ``y``, and its gradient in
    the layout of ``model.vec`` (``_split`` names the parts)."""
    B, L = X.shape
    if B == 0:
        raise LengthError("batch is empty")
    p, trace = _forward_batch(model, X)
    loss = _batch_loss(p, y)

    # d(BCE)/d(logit) for a sigmoid output.
    dz = (p - y) / B                                      # (B,)
    # Backward sweep: deltas[t-1] is the pre-activation gradient at step t.
    # ReLU subgradient at exactly 0 is taken as 0: trace > 0 is the mask.
    # The mask goes straight into deltas as 0.0 / 1.0 (a float mask costs
    # less to multiply by than a bool one), and each step multiplies it in
    # place by the gradient that reaches it; the product commutes, so the
    # bits are those of gradient times mask, and no copy of the mask is made.
    H = model.hidden_size
    deltas = np.empty((L, B, H))
    np.greater(trace[1:], 0.0, out=deltas)
    deltas[L - 1] *= np.outer(dz, model.w_out)
    w_rec = model.w_rec
    back = np.empty((B, H))
    # (deltas[t], deltas[t-1]) for t = L-1 down to 1.
    for delta, delta_prev in zip(deltas[:0:-1], deltas[-2::-1]):
        np.dot(delta, w_rec, out=back)
        delta_prev *= back
    # The gradient in the layout of model.vec.
    grad = np.concatenate((
        np.tensordot(deltas, X, axes=([0, 1], [1, 0])),                 # w_in
        np.tensordot(deltas, trace[:L], axes=([0, 1], [0, 1])).ravel(),  # w_rec
        deltas.sum(axis=(0, 1)),                                        # b_h
        trace[L].T @ dz,                                                # w_out
        [dz.sum()],                                                     # b_out
    ))
    bad = _nonfinite_name(grad)
    if bad is not None:
        raise NumericError(f"non-finite gradient for {bad}")
    return loss, grad


def clip_gradients(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """The gradient vector scaled down to norm ``max_norm`` when it exceeds
    it; ``grad`` itself otherwise."""
    w_in, w_rec, b_h, w_out, b_out = _split(grad)
    # Per-parameter sums added in this fixed order.  One sum over the whole
    # vector (pairwise) would move the last bit of clipped models.
    total = np.sqrt(sum(float(np.sum(g * g))
                        for g in (w_out, b_out, b_h, w_in, w_rec)))
    if total <= max_norm or total == 0.0:
        return grad
    return grad * (max_norm / total)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First and second moments, in the layout of ``RnnModel.vec``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-4


def adam_init(model: RnnModel, lr: float = 1e-4) -> AdamState:
    return AdamState(m=np.zeros_like(model.vec), v=np.zeros_like(model.vec),
                     lr=lr)


def adam_step(model: RnnModel, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of ``model.vec`` and ``state``, in
    place."""
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1**state.t)
    v_hat = state.v / (1.0 - BETA2**state.t)
    model.vec[...] -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(model: RnnModel, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of the items of a (B, L) batch ``X`` with labels ``y``
    classified correctly at threshold 0.5.

    Ties (p exactly 0.5) count as class 1, so an all-zero model scores
    exactly the class-1 fraction.
    """
    if X.shape[0] == 0:
        raise LengthError("cannot evaluate on an empty item set")
    p, _ = _forward_batch(model, X, keep_trace=False)
    predicted = p >= 0.5
    return float(np.mean(predicted == (y == 1)))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Adam at lr 1e-4 on batches of 16, every gradient clipped to norm 5."""

    hidden_size: int = 10
    lr: float = 1e-4
    batch_size: int = 16
    clip_norm: float = 5.0
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ParameterError("hidden size must be at least 1")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ParameterError(
                f"learning rate must be finite and positive, got {self.lr}")
        if self.clip_norm is None or not (
                self.clip_norm > 0 and math.isfinite(self.clip_norm)):
            raise ParameterError("clip norm must be finite and positive, "
                                 f"got {self.clip_norm}")
        if self.batch_size < 1:
            raise ParameterError("batch size must be at least 1")


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)
    train_loss_s5: list = field(default_factory=list)
    val_loss_s5: list = field(default_factory=list)
    test_acc_s5: list = field(default_factory=list)
    representative_epoch: int | None = None
    representative_accuracy: float | None = None
    n_test_items: int = 0
    seeds: dict = field(default_factory=dict)
    hyperparams: dict = field(default_factory=dict)


def record_epoch(report: TrainReport, train_loss: float, val_loss: float,
                 test_acc: float) -> bool:
    """Append one epoch to ``report``: its raw values, and each curve's
    mean over its last ``SMOOTH_WINDOW`` values to the ``*_s5`` columns.

    This is the one rule that reads the accuracy off the loss plateau: the
    representative epoch has the lowest smoothed train + validation loss,
    and ties go to the earliest.  Returns True when this epoch becomes the
    representative one, which the first epoch always does.
    """
    curves = ((report.train_loss, report.train_loss_s5, train_loss),
              (report.val_loss, report.val_loss_s5, val_loss),
              (report.test_acc, report.test_acc_s5, test_acc))
    for raw, smoothed, value in curves:
        raw.append(value)
        smoothed.append(float(np.mean(raw[-SMOOTH_WINDOW:])))
    best = report.representative_epoch
    if best is not None and not (
            report.train_loss_s5[-1] + report.val_loss_s5[-1]
            < report.train_loss_s5[best - 1] + report.val_loss_s5[best - 1]):
        return False
    report.representative_epoch = len(report.train_loss)
    report.representative_accuracy = report.test_acc_s5[-1]
    return True


def train(init_seed: int, dataset, epochs: int,
          config: TrainConfig | None = None):
    """Mini-batch training with Adam over the dataset's train split, for
    ``epochs`` >= 1 epochs.

    Validation items never contribute gradients; they only feed the
    validation-loss curve.  Each epoch goes into the report through
    ``record_epoch``.  Returns (model, representative, report): the model
    after the last epoch, the model after ``report.representative_epoch``
    (the one the report's headline accuracy refers to), and the report.
    """
    if config is None:
        config = TrainConfig()
    if epochs < 1:
        raise ParameterError(f"epochs must be at least 1, got {epochs}")

    (X_train, y_train), (X_val, y_val), (X_test, y_test) = [
        dataset.items(tag) for tag in ("train", "validation", "test")]
    if min(len(X_train), len(X_val), len(X_test)) == 0:
        raise ParameterError("dataset needs nonempty train/validation/test splits")

    model = init_model(config.hidden_size, seed=init_seed)
    state = adam_init(model, config.lr)
    shuffle_rng = np.random.default_rng(config.shuffle_seed)

    report = TrainReport(
        n_test_items=int(X_test.shape[0]),
        seeds={"init": init_seed, "shuffle": config.shuffle_seed},
        hyperparams={"hidden_size": config.hidden_size, "lr": config.lr,
                     "batch_size": config.batch_size,
                     "clip_norm": config.clip_norm, "epochs": epochs},
    )

    n_train = X_train.shape[0]
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            loss, grad = _loss_and_gradients(model, X_train[idx], y_train[idx])
            grad = clip_gradients(grad, config.clip_norm)
            adam_step(model, grad, state)
            loss_sum += loss * idx.size
        train_loss = loss_sum / n_train
        if not np.isfinite(train_loss):
            raise TrainingError(f"training loss diverged at epoch {epoch}",
                                epoch=epoch)
        p_val, _ = _forward_batch(model, X_val, keep_trace=False)
        if record_epoch(report, train_loss, _batch_loss(p_val, y_val),
                        evaluate(model, X_test, y_test)):
            representative = model.copy()
    return model, representative, report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(path, model: RnnModel) -> None:
    """JSON with a shape header and row-major arrays at 17 significant digits."""
    parts = [f'  "hidden_size": {model.hidden_size},\n  "shapes": {{\n']
    shape_lines = [f'    "{name}": {list(getattr(model, name).shape)}'
                   for name in PARAM_NAMES]
    parts.append(",\n".join(shape_lines).replace("'", '"') + "\n  },\n")
    parts.append('  "params": {\n')
    param_lines = []
    for name in PARAM_NAMES:
        flat = getattr(model, name).ravel()  # C order = row-major
        body = ", ".join(f"{v:.17g}" for v in flat)
        param_lines.append(f'    "{name}": [{body}]')
    parts.append(",\n".join(param_lines) + "\n  }\n")
    with atomic_open(path) as fh:
        fh.write("{\n" + "".join(parts) + "}\n")


def load_model(path) -> RnnModel:
    """The model saved by ``save_model``; a malformed file raises
    ``ParseError`` naming it."""
    blob = read_json(path)
    try:
        return RnnModel(**{
            name: np.array(blob["params"][name], dtype=float)
            .reshape(blob["shapes"][name]) for name in PARAM_NAMES})
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a valid model: {exc}") from None


REPORT_COLUMNS = ("epoch", "train_loss", "val_loss", "test_acc",
                  "train_loss_s5", "val_loss_s5", "test_acc_s5")

# The JSON types each field of a report's sidecar may take.
_REPORT_META_TYPES = {
    "n_test_items": int,
    "seeds": dict,
    "hyperparams": dict,
    "representative_epoch": (int, type(None)),
    "representative_accuracy": (int, float, type(None)),
}


def save_report(path, report: TrainReport, extra_meta: dict | None = None) -> None:
    """Learning curves as CSV (1-based epoch column) + sidecar metadata."""
    curves = zip(report.train_loss, report.val_loss, report.test_acc,
                 report.train_loss_s5, report.val_loss_s5, report.test_acc_s5)
    meta = {
        "n_test_items": report.n_test_items,
        "seeds": report.seeds,
        "hyperparams": report.hyperparams,
        "representative_epoch": report.representative_epoch,
        "representative_accuracy": report.representative_accuracy,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_table(path, ([epoch, *values] for epoch, values
                       in enumerate(curves, start=1)),
                meta, header=REPORT_COLUMNS)


def load_report(path) -> TrainReport:
    """The report saved by ``save_report``, with its smoothed columns and
    representative epoch replayed from the raw columns by ``record_epoch``.

    A report with no epoch rows, a malformed CSV row, a sidecar field of
    the wrong type, a raw test accuracy that is not a count of the
    sidecar's ``n_test_items``, a smoothed cell other than the replay's,
    or a representative epoch or accuracy other than the replay's (a
    missing one included) raises ``ParseError`` naming the file.
    """
    rows = read_table(path)
    header = next(rows, None)
    if header is None or tuple(header[1]) != REPORT_COLUMNS:
        raise ParseError(f"{path} is not a training report", line=1)
    meta = read_meta(path, _REPORT_META_TYPES)
    n = meta.get("n_test_items", 0)
    report = TrainReport(n_test_items=n, seeds=meta.get("seeds", {}),
                         hyperparams=meta.get("hyperparams", {}))
    smoothed = (report.train_loss_s5, report.val_loss_s5, report.test_acc_s5)
    for line, row in rows:
        parse_cells(row[:1], path, line, kind=int)
        values = parse_floats(row[1:], path, line).tolist()
        acc, k = values[2], round(values[2] * n)
        if n > 0 and not (0 <= k <= n and k / n == acc):
            raise ParseError(f"{path}: line {line}: test_acc {acc!r} is not "
                             f"a count of the {n} test items in "
                             f"{meta_path(path)}", line=line)
        record_epoch(report, *values[:3])
        for name, cell, curve in zip(REPORT_COLUMNS[4:], values[3:], smoothed):
            if cell != curve[-1]:
                raise ParseError(f"{path}: line {line}: {name} is {cell!r}, "
                                 f"but the raw columns give {curve[-1]!r}",
                                 line=line)
    if not report.train_loss:
        raise ParseError(f"{path} has no epoch rows, so no "
                         "representative_epoch")
    for key in ("representative_epoch", "representative_accuracy"):
        if meta.get(key) != getattr(report, key):
            raise ParseError(f"{meta_path(path)}: {key} is {meta.get(key)}, "
                             f"but the curves give {getattr(report, key)}")
    return report
