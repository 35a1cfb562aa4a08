"""Single-hidden-layer recurrent classifier, built from scratch.

One scalar input per time step, ReLU hidden units, a sigmoid output unit,
binary cross-entropy loss, full backpropagation through time, and Adam with
bias correction.  Everything is plain numpy; batches are vectorized across
items but time stays sequential (it has to).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import stats
from .errors import (LengthError, NumericError, ParameterError, ParseError,
                     TrainingError)
from .series import (atomic_open, check_width, meta_path, parse_cells,
                     read_meta, write_json)

PARAM_NAMES = ("w_in", "w_rec", "b_h", "w_out", "b_out")

_P_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class RnnModel:
    w_in: np.ndarray    # (H,)   input weights, one scalar input per step
    w_rec: np.ndarray   # (H, H) recurrent weights
    b_h: np.ndarray     # (H,)   hidden bias
    w_out: np.ndarray   # (H,)   output weights
    b_out: np.ndarray   # (1,)   output bias

    def __post_init__(self):
        for name in PARAM_NAMES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        h = self.w_in.size
        if h < 1:
            raise ParameterError("hidden size must be at least 1")
        if self.w_rec.shape != (h, h) or self.b_h.shape != (h,) \
                or self.w_out.shape != (h,) or self.b_out.shape != (1,):
            raise ParameterError("parameter shapes are inconsistent")
        for name in PARAM_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ParameterError(f"{name} contains non-finite values")

    @property
    def hidden_size(self) -> int:
        return self.w_in.size

    def params(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "RnnModel":
        return RnnModel(**{k: v.copy() for k, v in self.params().items()})


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
    grads = {
        "w_out": trace[L].T @ dz,
        "b_out": np.array([dz.sum()]),
        "b_h": deltas.sum(axis=(0, 1)),
        "w_in": np.tensordot(deltas, X, axes=([0, 1], [1, 0])),
        "w_rec": np.tensordot(deltas, trace[:L], axes=([0, 1], [0, 1])),
    }
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
    return loss, grads


def bptt_gradients(model: RnnModel, batch) -> dict:
    """Mean-over-batch gradients of the loss for every parameter."""
    X, y = _coerce_batch(batch)
    _, grads = _loss_and_gradients(model, X, y)
    return grads


def clip_gradients(grads: dict, max_norm: float) -> dict:
    """Scale all gradients down to a shared global norm when they exceed it."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    factor = max_norm / total
    return {name: g * factor for name, g in grads.items()}


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(model: RnnModel, lr: float = 1e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    zeros = {name: np.zeros_like(p) for name, p in model.params().items()}
    return AdamState(m=zeros, v={k: v.copy() for k, v in zeros.items()},
                     t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(model: RnnModel, grads: dict, state: AdamState):
    """One bias-corrected Adam update; returns (new model, new state)."""
    t = state.t + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in model.params().items():
        g = grads[name]
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_params[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_m[name] = m
        new_v[name] = v
    return RnnModel(**new_params), AdamState(m=new_m, v=new_v, t=t,
                                             lr=state.lr, beta1=state.beta1,
                                             beta2=state.beta2, eps=state.eps)


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float | None = 5.0   # None disables gradient clipping
    shuffle_seed: int = 0
    smooth_window: int = 5

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
    state = adam_init(model, lr=config.lr, beta1=config.beta1,
                      beta2=config.beta2, eps=config.eps)
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
            loss, grads = _loss_and_gradients(model, X_train[idx], y_train[idx])
            if config.clip_norm is not None:
                grads = clip_gradients(grads, config.clip_norm)
            model, state = adam_step(model, grads, state)
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
        w = config.smooth_window
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
    with open(path) as fh:
        blob = json.load(fh)
    params = {}
    for name in PARAM_NAMES:
        arr = np.array(blob["params"][name], dtype=float)
        params[name] = arr.reshape(blob["shapes"][name])
    return RnnModel(**params)


REPORT_COLUMNS = ("epoch", "train_loss", "val_loss", "test_acc",
                  "train_loss_s5", "val_loss_s5", "test_acc_s5")


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
    report.n_test_items = meta.get("n_test_items", 0)
    report.seeds = meta.get("seeds", {})
    report.hyperparams = meta.get("hyperparams", {})
    report.representative_epoch = meta.get("representative_epoch")
    report.representative_accuracy = meta.get("representative_accuracy")
    return report
