"""Single-hidden-layer recurrent classifier, built from scratch.

One scalar input per time step, ReLU hidden units, a sigmoid output unit,
binary cross-entropy loss, full backpropagation through time, and Adam with
bias correction.  Everything is plain numpy; batches are vectorized across
items but time stays sequential (it has to).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import stats
from .errors import (LengthError, NumericError, ParameterError, ParseError,
                     TrainingError)
from .series import (atomic_open, check_width, meta_path, parse_cells,
                     read_json, read_meta, write_json)

PARAM_NAMES = ("w_in", "w_rec", "b_h", "w_out", "b_out")

# Adam's constants (Kingma & Ba, ICLR 2015) and the width of the trailing
# average behind the report's *_s5 curves.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
SMOOTH_WINDOW = 5

_P_FLOOR = 1e-12


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

    def params(self) -> dict:
        """Name -> view of ``vec``."""
        return dict(zip(PARAM_NAMES, self._views))

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
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_batch(model: RnnModel, X: np.ndarray):
    """Probabilities and the full hidden trace for a (B, L) batch.

    Returns (p (B,), trace (L+1, B, H)); trace[0] is the zero initial state.
    """
    B, L = X.shape
    H = model.hidden_size
    # Input and bias contributions for every step, hoisted out of the loop.
    drive = X[:, :, None] * model.w_in + model.b_h      # (B, L, H)
    trace = np.empty((L + 1, B, H))
    trace[0] = 0.0
    h = trace[0]
    w_rec_t = model.w_rec.T.copy()
    for t in range(L):
        h = np.maximum(drive[:, t] + h @ w_rec_t, 0.0)
        trace[t + 1] = h
    if not np.all(np.isfinite(trace)):
        bad = np.where(~np.isfinite(trace).all(axis=(1, 2)))[0][0]
        raise NumericError(f"non-finite hidden activation at step {int(bad)}")
    logits = trace[L] @ model.w_out + model.b_out[0]
    return _sigmoid(np.atleast_1d(logits)), trace


def rnn_forward(model: RnnModel, sequence):
    """Classification probability and hidden trace for a single sequence.

    h_0 = 0; h_t = ReLU(w_in * x_t + W_rec h_{t-1} + b_h);
    p = sigmoid(w_out . h_L + b_out).
    """
    x = np.asarray(sequence.samples if hasattr(sequence, "samples") else sequence,
                   dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ParameterError("sequence must be a nonempty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ParameterError("sequence must be finite")
    p, trace = _forward_batch(model, x[None, :])
    return float(p[0]), trace[:, 0, :]


def bce_loss(p: float, y: int) -> float:
    """Binary cross-entropy with probability clamped to [1e-12, 1-1e-12]."""
    p = min(max(float(p), _P_FLOOR), 1.0 - _P_FLOOR)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def _batch_loss(p: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(p, _P_FLOOR, 1.0 - _P_FLOOR)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


# ---------------------------------------------------------------------------
# Backpropagation through time
# ---------------------------------------------------------------------------

def _coerce_batch(batch):
    if isinstance(batch, tuple) and len(batch) == 2:
        X, y = batch
        return np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    sequences, labels = [], []
    for seq, label in batch:
        sequences.append(np.asarray(
            seq.samples if hasattr(seq, "samples") else seq, dtype=float))
        labels.append(float(label))
    if not sequences:
        raise LengthError("batch is empty")
    return np.stack(sequences), np.array(labels)


def _loss_and_gradients(model: RnnModel, X: np.ndarray, y: np.ndarray):
    B, L = X.shape
    if B == 0:
        raise LengthError("batch is empty")
    p, trace = _forward_batch(model, X)
    loss = _batch_loss(p, y)

    # d(BCE)/d(logit) for a sigmoid output.
    dz = (p - y) / B                                      # (B,)
    # Backward sweep: deltas[t-1] is the pre-activation gradient at step t.
    # ReLU subgradient at exactly 0 is taken as 0: trace > 0 is the mask.
    deltas = np.empty((L, B, model.hidden_size))
    delta = np.outer(dz, model.w_out) * (trace[L] > 0.0)
    deltas[L - 1] = delta
    for t in range(L - 1, 0, -1):
        delta = (delta @ model.w_rec) * (trace[t] > 0.0)
        deltas[t - 1] = delta
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


def bptt_gradients(model: RnnModel, batch) -> dict:
    """Mean-over-batch gradients of the loss, by parameter name."""
    X, y = _coerce_batch(batch)
    _, grad = _loss_and_gradients(model, X, y)
    return dict(zip(PARAM_NAMES, _split(grad)))


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

def evaluate(model: RnnModel, items) -> float:
    """Fraction of items classified correctly at threshold 0.5.

    Ties (p exactly 0.5) count as class 1, so an all-zero model scores
    exactly the class-1 fraction.
    """
    X, y = _coerce_batch(items)
    if X.shape[0] == 0:
        raise LengthError("cannot evaluate on an empty item set")
    p, _ = _forward_batch(model, X)
    predicted = p >= 0.5
    return float(np.mean(predicted == (y == 1)))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Optimization hyperparameters (Adam at lr 1e-4, batches of 16)."""

    hidden_size: int = 10
    lr: float = 1e-4
    batch_size: int = 16
    clip_norm: float | None = 5.0   # None disables gradient clipping
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ParameterError("hidden size must be at least 1")
        if not self.lr > 0:
            raise ParameterError("learning rate must be positive")
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


def train(init_seed: int, dataset, epochs: int,
          config: TrainConfig | None = None):
    """Mini-batch training with Adam over the dataset's train split.

    Validation items never contribute gradients; they only feed the
    validation-loss curve.  Returns (snapshots, report) where
    ``snapshots[k]`` is the model after k epochs (index 0 is the
    initialization), so ``snapshots[report.representative_epoch]`` is the
    model the report's headline accuracy refers to.
    """
    if config is None:
        config = TrainConfig()
    if epochs < 0:
        raise ParameterError(f"epochs must be nonnegative, got {epochs}")

    (X_train, y_train), (X_val, y_val), (X_test, y_test) = [
        (dataset.X[dataset.split == tag], dataset.y[dataset.split == tag])
        for tag in ("train", "validation", "test")]
    if epochs > 0 and min(len(X_train), len(X_val), len(X_test)) == 0:
        raise ParameterError("dataset needs nonempty train/validation/test splits")

    model = init_model(config.hidden_size, seed=init_seed)
    state = adam_init(model, config.lr)
    shuffle_rng = np.random.default_rng(config.shuffle_seed)

    snapshots = [model.copy()]
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
            if config.clip_norm is not None:
                grad = clip_gradients(grad, config.clip_norm)
            adam_step(model, grad, state)
            loss_sum += loss * idx.size
        train_loss = loss_sum / n_train
        if not np.isfinite(train_loss):
            raise TrainingError(f"training loss diverged at epoch {epoch}",
                                epoch=epoch)
        p_val, _ = _forward_batch(model, X_val)
        report.train_loss.append(train_loss)
        report.val_loss.append(_batch_loss(p_val, y_val))
        report.test_acc.append(evaluate(model, (X_test, y_test)))
        snapshots.append(model.copy())

    if epochs > 0:
        w = SMOOTH_WINDOW
        report.train_loss_s5 = stats.smooth(report.train_loss, w).tolist()
        report.val_loss_s5 = stats.smooth(report.val_loss, w).tolist()
        report.test_acc_s5 = stats.smooth(report.test_acc, w).tolist()
        epoch_star, acc_star = stats.representative_accuracy(report)
        report.representative_epoch = epoch_star
        report.representative_accuracy = acc_star
    return snapshots, report


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
    path = Path(path)
    curves = zip(report.train_loss, report.val_loss, report.test_acc,
                 report.train_loss_s5, report.val_loss_s5, report.test_acc_s5)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for epoch, values in enumerate(curves, start=1):
            writer.writerow([epoch] + [f"{v:.17g}" for v in values])
    meta = {
        "n_test_items": report.n_test_items,
        "seeds": report.seeds,
        "hyperparams": report.hyperparams,
        "representative_epoch": report.representative_epoch,
        "representative_accuracy": report.representative_accuracy,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(meta_path(path), meta)


def load_report(path) -> TrainReport:
    """The report saved by ``save_report``; a malformed CSV row or a
    sidecar field of the wrong type raises ``ParseError`` naming the file."""
    path = Path(path)
    report = TrainReport()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != REPORT_COLUMNS:
            raise ParseError(f"{path} is not a training report", line=1)
        curves = (report.train_loss, report.val_loss, report.test_acc,
                  report.train_loss_s5, report.val_loss_s5, report.test_acc_s5)
        for row in reader:
            if not row:
                continue
            check_width(row, len(REPORT_COLUMNS), path, reader.line_num)
            for curve, v in zip(curves, parse_cells(row[1:], path,
                                                     reader.line_num)):
                curve.append(v)
    meta = read_meta(path)
    if not isinstance(meta, dict):
        raise ParseError(f"{meta_path(path)}: not a JSON object")
    for key, allowed in _REPORT_META_TYPES.items():
        value = meta.get(key)
        if key in meta and (isinstance(value, bool)
                            or not isinstance(value, allowed)):
            raise ParseError(f"{meta_path(path)}: {key} has the wrong "
                             f"type: {json.dumps(value)}")
    report.n_test_items = meta.get("n_test_items", 0)
    report.seeds = meta.get("seeds", {})
    report.hyperparams = meta.get("hyperparams", {})
    report.representative_epoch = meta.get("representative_epoch")
    report.representative_accuracy = meta.get("representative_accuracy")
    return report
