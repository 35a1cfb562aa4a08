import json
from dataclasses import replace

import numpy as np
import pytest

from surrotest.dataset import build_dataset, pair_surrogates, split_dataset
from surrotest.dynsys import make_realizations
from surrotest.errors import NumericError, ParameterError, ParseError
from surrotest.rnn import (EVAL_WINDOW, PARAM_NAMES, RnnModel, TrainConfig,
                           TrainReport, _batch_loss, _forward_batch,
                           _loss_and_gradients, _sigmoid, _split, adam_init,
                           adam_step, clip_gradients, evaluate, init_model,
                           load_model, load_report, save_model, save_report,
                           train)
from surrotest.spectral import SurrogateConfig


def zero_model(H=2):
    return RnnModel(w_in=np.zeros(H), w_rec=np.zeros((H, H)), b_h=np.zeros(H),
                    w_out=np.zeros(H), b_out=np.zeros(1))


def named_params(model) -> dict:
    """Name -> view of ``model.vec``."""
    return {name: getattr(model, name) for name in PARAM_NAMES}


def forward_one(model, x):
    """Probability and (L+1, H) hidden trace of one sequence."""
    p, trace = _forward_batch(model, np.asarray(x, dtype=float)[None, :])
    return float(p[0]), trace[:, 0, :]


def paired_dataset(originals, config):
    surrogates = [r.surrogate for r in pair_surrogates(originals, config)]
    return build_dataset(originals, surrogates)


# ---------------------------------------------------------------------------
# parameter vector
# ---------------------------------------------------------------------------

def test_named_parameters_are_views_of_vec():
    m = init_model(4, seed=20)
    assert m.vec.shape == (4 * 4 + 3 * 4 + 1,)
    for name in PARAM_NAMES:
        assert np.shares_memory(getattr(m, name), m.vec)
    flat = np.concatenate([getattr(m, name).ravel() for name in PARAM_NAMES])
    assert np.array_equal(flat, m.vec)


def test_writing_through_a_view_changes_the_forward_output():
    m = init_model(4, seed=21)
    x = np.random.default_rng(21).normal(size=12)
    assert forward_one(m, x)[0] != 0.5
    m.w_out[...] = 0.0
    assert m.vec[4 * 4 + 2 * 4:-1].tolist() == [0.0] * 4
    assert forward_one(m, x)[0] == 0.5     # b_out is 0 after init


def test_assignment_never_detaches_a_view():
    m = init_model(3, seed=22)
    view = m.w_rec
    before = m.vec.copy()
    for name in PARAM_NAMES + ("vec",):
        with pytest.raises(AttributeError):
            setattr(m, name, np.zeros_like(getattr(m, name)))
    assert m.w_rec is view and np.array_equal(m.vec, before)
    m.vec[...] = 0.0
    assert not view.any()


@pytest.mark.parametrize("name, value", [
    ("w_in", np.zeros(0)), ("w_in", np.zeros((3, 1))),
    ("w_rec", np.zeros((3, 2))), ("b_h", np.zeros(2)),
    ("w_out", np.zeros(4)), ("b_out", np.zeros(2)), ("b_out", np.zeros(())),
])
def test_constructor_rejects_inconsistent_shapes(name, value):
    params = named_params(zero_model(3))
    params[name] = value
    with pytest.raises(ParameterError):
        RnnModel(**params)


@pytest.mark.parametrize("name", PARAM_NAMES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_values(name, bad):
    params = {k: v.copy() for k, v in named_params(zero_model(3)).items()}
    params[name].flat[-1] = bad
    with pytest.raises(ParameterError, match=name):
        RnnModel(**params)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_forward_all_zero_parameters():
    p, _ = forward_one(zero_model(), np.array([0.3, -0.7, 1.2]))
    assert p == pytest.approx(0.5)


def test_forward_output_bias_only():
    m = zero_model()
    m.b_out[...] = 1.0
    p, _ = forward_one(m, np.zeros(4))
    assert p == pytest.approx(0.731059, abs=1e-6)


def test_forward_two_step_hand_computation():
    m = RnnModel(w_in=np.array([1.0]), w_rec=np.array([[1.0]]),
                 b_h=np.array([0.0]), w_out=np.array([1.0]),
                 b_out=np.array([0.0]))
    p, trace = forward_one(m, np.array([1.0, 1.0]))
    assert trace[1][0] == pytest.approx(1.0)
    assert trace[2][0] == pytest.approx(2.0)
    assert p == pytest.approx(0.880797, abs=1e-6)


def test_forward_scaling_output_weights_keeps_class():
    rng = np.random.default_rng(0)
    m = init_model(6, seed=1)
    x = rng.normal(size=16)
    p, _ = forward_one(m, x)
    for c in (0.5, 2.0, 10.0):
        scaled = m.copy()
        scaled.w_out[...] = m.w_out * c
        scaled.b_out[...] = m.b_out * c
        q, _ = forward_one(scaled, x)
        assert (q >= 0.5) == (p >= 0.5)


def first_overflow_step(w_rec: float) -> int:
    """The step at which h_t = 1 + 2 * w_rec * h_{t-1}, h_1 = 1, the state
    of each unit of a 2-unit model fed ones, first overflows."""
    h, step = 1.0, 1
    while h != float("inf"):
        h, step = 1.0 + 2.0 * w_rec * h, step + 1
    return step


def test_overflowing_hidden_state_is_numeric_error():
    H = 2
    X = np.ones((2, 2 * EVAL_WINDOW + 6))
    X[0] = 0.0                  # this row stays at zero throughout
    y = np.array([0.0, 1.0])
    # trace[1] is 1, trace[2] is 1 + 2e200, and trace[3] overflows; with
    # 1e16 the overflow comes after the first evaluation window.
    assert 3 < EVAL_WINDOW < 20
    for w_rec, step in ((1e200, 3), (1e16, 20)):
        assert first_overflow_step(w_rec) == step
        m = RnnModel(w_in=np.ones(H), w_rec=np.full((H, H), w_rec),
                     b_h=np.zeros(H), w_out=np.ones(H), b_out=np.zeros(1))
        # The training sweep, the evaluation sweep and evaluate name one
        # step.
        message = f"activation at step {step}$"
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in (X, X[1:]):
                with pytest.raises(NumericError, match=message):
                    _forward_batch(m, rows)
                with pytest.raises(NumericError, match=message):
                    _forward_batch(m, rows, keep_trace=False)
            with pytest.raises(NumericError, match=message):
                evaluate(m, X, y)


@pytest.mark.parametrize("B", [1, 50])
@pytest.mark.parametrize("L", [EVAL_WINDOW - 3, 2 * EVAL_WINDOW + 5])
def test_evaluation_sweep_gives_the_training_sweeps_bits(B, L):
    # L is not a multiple of the window, so the last window is short.
    m = init_model(10, seed=B + L)
    X = np.random.default_rng(B * L).normal(size=(B, L))
    y = (np.arange(B) % 2).astype(float)
    p, trace = _forward_batch(m, X)
    p_eval, none = _forward_batch(m, X, keep_trace=False)
    assert trace.shape == (L + 1, B, 10) and none is None
    assert p_eval.tobytes() == p.tobytes()
    assert evaluate(m, X, y) == float(np.mean((p >= 0.5) == (y == 1)))


# ---------------------------------------------------------------------------
# bit-exact kernels
# ---------------------------------------------------------------------------

# The forward and backward sweeps written with fresh temporaries at every
# step.  The kernels run in preallocated buffers and must give the same bits.

def ref_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_forward(model, X):
    B, L = X.shape
    drive = X[:, :, None] * model.w_in + model.b_h
    trace = np.empty((L + 1, B, model.hidden_size))
    trace[0] = 0.0
    h = trace[0]
    w_rec_t = model.w_rec.T.copy()
    for t in range(L):
        h = np.maximum(drive[:, t] + h @ w_rec_t, 0.0)
        trace[t + 1] = h
    logits = trace[L] @ model.w_out + model.b_out[0]
    return ref_sigmoid(np.atleast_1d(logits)), trace


def ref_loss_and_gradients(model, X, y):
    B, L = X.shape
    p, trace = ref_forward(model, X)
    dz = (p - y) / B
    deltas = np.empty((L, B, model.hidden_size))
    delta = np.outer(dz, model.w_out) * (trace[L] > 0.0)
    deltas[L - 1] = delta
    for t in range(L - 1, 0, -1):
        delta = (delta @ model.w_rec) * (trace[t] > 0.0)
        deltas[t - 1] = delta
    grad = np.concatenate((
        np.tensordot(deltas, X, axes=([0, 1], [1, 0])),
        np.tensordot(deltas, trace[:L], axes=([0, 1], [0, 1])).ravel(),
        deltas.sum(axis=(0, 1)),
        trace[L].T @ dz,
        [dz.sum()],
    ))
    return _batch_loss(p, y), grad


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("H", [1, 10, 20])
@pytest.mark.parametrize("L", [8, 64, 128])
@pytest.mark.parametrize("B", [1, 2, 16, 50])
def test_kernels_match_allocating_reference_bit_for_bit(B, L, H):
    rng = np.random.default_rng(1000 * B + 10 * L + H)
    m = init_model(H, seed=B + L + H)       # b_h is zero after init
    X = rng.normal(size=(B, L))
    # Zero inputs with a zero bias and a zero state give pre-activations of
    # exactly 0, the edge of the ReLU mask: the first steps of every row,
    # and every step of the first row when there are several.
    X[:, :3] = 0.0
    if B > 1:
        X[0] = 0.0
    y = (np.arange(B) % 2).astype(float)
    for b_out in (0.0, 40.0, -40.0, 800.0, -800.0):
        m.b_out[...] = b_out
        p, trace = _forward_batch(m, X)
        p_ref, trace_ref = ref_forward(m, X)
        assert (trace[1:4] == 0.0).all() and (trace[1:] > 0.0).any()
        assert np.array_equal(bits(p), bits(p_ref))
        assert np.array_equal(bits(trace), bits(trace_ref))
        loss, grad = _loss_and_gradients(m, X, y)
        loss_ref, grad_ref = ref_loss_and_gradients(m, X, y)
        assert np.array_equal(bits(loss), bits(loss_ref))
        assert np.array_equal(bits(grad), bits(grad_ref))


def test_sigmoid_matches_reference_bit_for_bit():
    z = np.array([0.0, -0.0, 40.0, -40.0, 800.0, -800.0, np.inf, -np.inf,
                  np.nan, np.copysign(np.nan, -1.0), 1e-300, -1e-300, 0.5])
    assert np.array_equal(bits(_sigmoid(z)), bits(ref_sigmoid(z)))
    # Both signs of NaN come back with their own sign.
    assert bits(_sigmoid(z))[8] >= 0 > bits(_sigmoid(z))[9]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_bce_symmetric_point():
    for y in (1.0, 0.0):
        loss = _batch_loss(np.array([0.5]), np.array([y]))
        assert loss == pytest.approx(np.log(2.0))


def test_bce_confident_correct():
    loss = _batch_loss(np.array([0.9, 0.9]), np.array([1.0, 0.0]))
    # The mean of -log(0.9) and -log(0.1).
    assert loss == pytest.approx((0.105361 + 2.302585) / 2, abs=1e-6)


def test_bce_perfect_prediction_clamped():
    loss = _batch_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert 0.0 <= loss <= 1.1e-12


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_output_bias_gradient_closed_form():
    m = zero_model()
    X = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])
    y = np.array([1.0, 0.0])
    _, grad = _loss_and_gradients(m, X, y)
    # p = 0.5 everywhere, so d(loss)/d(b_out) = mean(0.5 - y).
    assert _split(grad)[4][0] == pytest.approx(np.mean([0.5 - 1, 0.5 - 0]))


def test_duplicating_batch_items_keeps_gradient():
    rng = np.random.default_rng(1)
    m = init_model(4, seed=2)
    X, y = rng.normal(size=(2, 8)), np.array([1.0, 0.0])
    _, g1 = _loss_and_gradients(m, X, y)
    _, g2 = _loss_and_gradients(m, np.concatenate([X, X]), np.tile(y, 2))
    assert np.allclose(g1, g2, atol=1e-14)


def numeric_gradients(model, X, y, step=1e-5):
    """Central finite differences of the mean loss over the (B, L) batch
    ``X`` with labels ``y``, in the layout of ``model.vec``."""
    flat = model.vec
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        losses = []
        for value in (orig + step, orig - step):
            flat[i] = value
            losses.append(_batch_loss(_forward_batch(model, X)[0], y))
        flat[i] = orig
        out[i] = (losses[0] - losses[1]) / (2 * step)
    return out


def standardized_batch(rng, B, L):
    """B standardized rows, as in training, labelled 0, 1, 0, ..."""
    X = rng.normal(size=(B, L))
    X = (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, keepdims=True)
    return X, (np.arange(B) % 2).astype(float)


@pytest.mark.parametrize("H", [1, 3, 10])
@pytest.mark.parametrize("L", [4, 32])
def test_gradients_match_finite_differences(H, L):
    rng = np.random.default_rng(100 * H + L)
    model = init_model(H, seed=H + L)
    X, y = standardized_batch(rng, 4, L)
    _, analytic = _loss_and_gradients(model, X, y)
    numeric = numeric_gradients(model, X, y)
    for name, a, n in zip(PARAM_NAMES, _split(analytic), _split(numeric)):
        a, n = a.ravel(), n.ravel()
        for i in range(a.size):
            tol = max(1e-7, 1e-4 * max(abs(a[i]), abs(n[i])))
            assert abs(a[i] - n[i]) <= tol, (name, i, a[i], n[i])


def test_gradient_clipping_scales_to_norm():
    grad = np.array([3.0, 4.0, 0.0, 0.0, 12.0])   # H = 1; norm is 13
    clipped = clip_gradients(grad, 6.5)
    total = np.sqrt(np.sum(clipped * clipped))
    assert total == pytest.approx(6.5)
    assert np.allclose(clipped[:2], [1.5, 2.0])


def test_gradient_clipping_noop_below_threshold():
    grad = np.array([0.3, 0.4, 0.0, 0.0, 0.0])
    assert clip_gradients(grad, 5.0) is grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# A gradient has the layout of RnnModel.vec, so a model builds one by name.

def test_adam_zero_gradient_is_fixed_point():
    m = init_model(3, seed=3)
    before = m.copy()
    state = adam_init(m)
    adam_step(m, np.zeros_like(m.vec), state)
    assert state.t == 1
    for name, p in named_params(before).items():
        assert np.array_equal(p, getattr(m, name))


def test_adam_first_step_is_signed_learning_rate():
    m = zero_model(2)
    state = adam_init(m, lr=1e-3)
    grad = zero_model(2)
    grad.w_in[...] = [0.5, -2.0]
    adam_step(m, grad.vec, state)
    # With zero moments, m_hat = g and v_hat = g^2: step = -lr * sign(g).
    assert np.allclose(m.w_in, [-1e-3, 1e-3], rtol=1e-6)


def test_adam_opposing_steps_nearly_cancel():
    m = zero_model(1)
    lr = 1e-3
    state = adam_init(m, lr=lr)
    g = zero_model(1)
    g.b_out[...] = 2.0
    adam_step(m, g.vec, state)
    adam_step(m, -g.vec, state)
    assert abs(m.b_out[0]) < 2 * lr


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_zero_model_on_balanced_set():
    X = np.random.default_rng(4).normal(size=(20, 8))
    y = (np.arange(20) % 2).astype(float)
    assert evaluate(zero_model(), X, y) == 0.5


def test_evaluate_perfect_model():
    m = zero_model(1)
    m.w_in[...] = 5.0   # hidden = relu(5x) tracks positive inputs
    m.w_out[...] = 4.0
    m.b_out[...] = -2.0
    X = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]])
    assert evaluate(m, X, np.array([1.0, 0.0])) == 1.0


def test_evaluate_negated_output_flips_predictions():
    rng = np.random.default_rng(5)
    m = init_model(5, seed=6)
    X = rng.normal(size=(40, 12))
    y = rng.integers(0, 2, size=40).astype(float)
    assert np.all(_forward_batch(m, X)[0] != 0.5)  # tie-free set
    flipped = m.copy()
    flipped.w_out[...] = -m.w_out
    flipped.b_out[...] = -m.b_out
    assert evaluate(m, X, y) + evaluate(flipped, X, y) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_dataset():
    originals = make_realizations("logistic", 16, 8, seed=30)[0]
    ds = paired_dataset(originals, SurrogateConfig(seed=31))
    return split_dataset(ds, seed=32)


def test_train_memorizes_tiny_problem():
    # Two fixed pairs, overparameterized: loss must fall over 200 epochs.
    rng = np.random.default_rng(8)
    from surrotest.dataset import LabeledDataset
    pairs = rng.normal(size=(2, 2, 8))      # original, surrogate per pair
    ds = LabeledDataset(pairs=np.tile(pairs, (3, 1, 1)),
                        split=np.repeat(["train", "validation", "test"], 2))
    *_, report = train(9, ds, 200, TrainConfig(hidden_size=8, lr=1e-2,
                                               shuffle_seed=10))
    assert report.train_loss[-1] < report.train_loss[0]


def test_train_is_deterministic(toy_dataset):
    cfg = TrainConfig(hidden_size=4, shuffle_seed=11)
    *models_a, rep_a = train(12, toy_dataset, 5, cfg)
    *models_b, rep_b = train(12, toy_dataset, 5, cfg)
    assert rep_a.train_loss == rep_b.train_loss
    assert rep_a.val_loss == rep_b.val_loss
    assert rep_a.test_acc == rep_b.test_acc
    for ma, mb in zip(models_a, models_b):
        assert ma.vec.tobytes() == mb.vec.tobytes()


def reference_train(init_seed, dataset, epochs, config):
    """Snapshots of a per-parameter loop: one dict of arrays per parameter
    set, Adam (0.9, 0.999, 1e-8) parameter by parameter, and the clip norm
    summed over w_out, b_out, b_h, w_in, w_rec.  Also returns how many of
    the steps were clipped."""
    X, y = dataset.items("train")
    init = init_model(config.hidden_size, seed=init_seed)
    params = {k: v.copy() for k, v in named_params(init).items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    rng = np.random.default_rng(config.shuffle_seed)
    snapshots, t, clipped = [{k: p.copy() for k, p in params.items()}], 0, 0
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for lo in range(0, len(X), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            _, grad = _loss_and_gradients(RnnModel(**params), X[idx], y[idx])
            grads = dict(zip(PARAM_NAMES, _split(grad)))
            total = np.sqrt(sum(float(np.sum(grads[k] * grads[k])) for k
                                in ("w_out", "b_out", "b_h", "w_in", "w_rec")))
            if total > config.clip_norm and total != 0.0:
                factor = config.clip_norm / total
                grads = {k: g * factor for k, g in grads.items()}
                clipped += 1
            t += 1
            for k in PARAM_NAMES:
                g = grads[k]
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
                m_hat = m[k] / (1.0 - 0.9**t)
                v_hat = v[k] / (1.0 - 0.999**t)
                params[k] = params[k] - config.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        snapshots.append({k: p.copy() for k, p in params.items()})
    return snapshots, clipped, t


@pytest.fixture(scope="module")
def small_dataset():
    originals = make_realizations("henon", 16, 40, seed=40)[0]
    ds = paired_dataset(originals, SurrogateConfig(seed=41))
    return split_dataset(ds, seed=42)


def ref_bytes(params: dict) -> bytes:
    return np.concatenate([params[k].ravel() for k in PARAM_NAMES]).tobytes()


@pytest.mark.parametrize("clip_norm, lr, epochs", [
    pytest.param(0.05, 1e-2, 6, id="0.05"),
    # The smoothed losses rise after epoch 7, so the representative model
    # is not the last one.
    pytest.param(0.05, 1e-1, 10, id="0.05-early-representative")])
def test_train_matches_per_parameter_reference(small_dataset, clip_norm, lr,
                                               epochs):
    cfg = TrainConfig(hidden_size=5, lr=lr, batch_size=8,
                      clip_norm=clip_norm, shuffle_seed=43)
    model, representative, report = train(44, small_dataset, epochs, cfg)
    expected, clipped, steps = reference_train(44, small_dataset, epochs, cfg)
    assert steps >= 18
    assert clipped > steps // 2
    if lr == 1e-1:
        assert report.representative_epoch < epochs
    assert model.vec.tobytes() == ref_bytes(expected[-1])
    assert representative.vec.tobytes() == ref_bytes(
        expected[report.representative_epoch])


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_representative_is_the_model_after_its_epoch(toy_dataset, seed):
    # At lr 0.3 the curves are rough enough that a smoothing window one
    # epoch longer or shorter, for either loss, picks another epoch in one
    # of these runs.  A run of k epochs repeats the first k of a longer one.
    cfg = TrainConfig(hidden_size=3, lr=0.3, shuffle_seed=seed)
    _, representative, report = train(seed, toy_dataset, 16, cfg)
    epoch = report.representative_epoch
    assert 1 < epoch < 16
    model, _, _ = train(seed, toy_dataset, epoch, cfg)
    assert representative.vec.tobytes() == model.vec.tobytes()


def test_train_validates_epochs(toy_dataset):
    with pytest.raises(ParameterError, match="epochs must be at least 1"):
        train(0, toy_dataset, -1, TrainConfig(hidden_size=2))


def test_train_refuses_zero_epochs(toy_dataset):
    # Without an epoch there is no representative model to return.
    with pytest.raises(ParameterError, match="epochs must be at least 1"):
        train(7, toy_dataset, 0, TrainConfig(hidden_size=4))


@pytest.mark.parametrize("field, value", [
    ("lr", np.inf), ("lr", np.nan), ("lr", 0.0), ("clip_norm", -1.0),
    ("clip_norm", 0.0), ("clip_norm", np.nan), ("clip_norm", np.inf),
    ("clip_norm", None)])
def test_train_config_rejects_bad_step_settings(field, value):
    # Every gradient is clipped: there is no "no clipping" setting.
    with pytest.raises(ParameterError):
        TrainConfig(**{field: value})


def test_train_report_curves_consistent(toy_dataset):
    _, representative, report = train(13, toy_dataset, 6,
                                      TrainConfig(hidden_size=3))
    assert representative.hidden_size == 3
    assert len(report.train_loss) == 6
    assert len(report.train_loss_s5) == 6
    assert 1 <= report.representative_epoch <= 6
    acc = report.test_acc_s5[report.representative_epoch - 1]
    assert report.representative_accuracy == pytest.approx(acc)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_round_trip(tmp_path):
    m = init_model(5, seed=14)
    path = tmp_path / "model.json"
    save_model(path, m)
    loaded = load_model(path)
    for name, p in named_params(m).items():
        assert np.array_equal(p, getattr(loaded, name))


@pytest.mark.parametrize("corrupt", ["missing key", "wrong length", "truncated"])
def test_load_model_malformed_is_parse_error(tmp_path, corrupt):
    path = tmp_path / "model.json"
    save_model(path, init_model(3, seed=16))
    text = path.read_text()
    blob = json.loads(text)
    if corrupt == "missing key":
        del blob["params"]["b_h"]
    elif corrupt == "wrong length":
        blob["params"]["w_rec"] = blob["params"]["w_rec"][:-1]
    if corrupt == "truncated":
        path.write_text(text[:len(text) // 2])
    else:
        path.write_text(json.dumps(blob))
    with pytest.raises(ParseError) as info:
        load_model(path)
    assert str(path) in str(info.value)


def test_report_round_trip(tmp_path, toy_dataset):
    *_, report = train(15, toy_dataset, 4, TrainConfig(hidden_size=3))
    path = tmp_path / "report.csv"
    save_report(path, report)
    loaded = load_report(path)
    assert loaded.train_loss == report.train_loss
    assert loaded.test_acc_s5 == report.test_acc_s5
    assert loaded.n_test_items == report.n_test_items
    assert loaded.representative_epoch == report.representative_epoch


def test_report_sidecar_must_agree_with_its_curves(tmp_path, toy_dataset):
    *_, report = train(15, toy_dataset, 4, TrainConfig(hidden_size=3))
    acc = report.representative_accuracy
    assert acc != 0.99
    path = tmp_path / "report.csv"
    for key, value in (("representative_epoch", 9999),
                       ("representative_epoch", 5),
                       ("representative_accuracy", 0.99)):
        save_report(path, replace(report, **{key: value}))
        with pytest.raises(ParseError, match=f"{key} is {value}, but"):
            load_report(path)
    # A missing representative epoch or accuracy is refused too.
    for key in ("representative_epoch", "representative_accuracy"):
        save_report(path, replace(report, **{key: None}))
        with pytest.raises(ParseError, match=f"{key} is None, but"):
            load_report(path)
    save_report(path, report)
    assert load_report(path).representative_accuracy == acc


@pytest.mark.parametrize("column", ["train_loss_s5", "val_loss_s5",
                                    "test_acc_s5"])
def test_report_smoothed_cells_must_be_the_replay(tmp_path, toy_dataset,
                                                  column):
    # One ulp off in one smoothed cell, with the sidecar left as saved.
    *_, report = train(15, toy_dataset, 6, TrainConfig(hidden_size=3))
    curve = list(getattr(report, column))
    curve[3] = float(np.nextafter(curve[3], np.inf))
    path = tmp_path / "report.csv"
    save_report(path, replace(report, **{column: curve}))
    with pytest.raises(ParseError, match=f"line 5: {column} is ") as info:
        load_report(path)
    assert info.value.line == 5
    assert str(path) in str(info.value)


def test_report_test_acc_must_count_the_test_items(tmp_path):
    # Each raw test accuracy is k correct items out of n_test_items.
    report = TrainReport(
        train_loss=[0.7], val_loss=[0.7], test_acc=[0.75], train_loss_s5=[0.7],
        val_loss_s5=[0.7], test_acc_s5=[0.75], representative_epoch=1,
        representative_accuracy=0.75, n_test_items=4)
    path = tmp_path / "report.csv"
    save_report(path, report)
    assert load_report(path) == report
    for acc in (0.3, 1.25):
        save_report(path, replace(report, test_acc=[acc]))
        with pytest.raises(ParseError, match=f"line 2: test_acc {acc} is not "
                                             "a count of the 4 test items"):
            load_report(path)


def test_report_bad_header_is_parse_error(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(ParseError) as info:
        load_report(path)
    assert info.value.line == 1
