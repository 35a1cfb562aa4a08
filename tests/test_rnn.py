import json

import numpy as np
import pytest

from surrotest.dataset import build_dataset, split_dataset
from surrotest.dynsys import make_realizations
from surrotest.errors import ParameterError, ParseError
from surrotest.rnn import (PARAM_NAMES, RnnModel, TrainConfig, adam_init,
                           adam_step, bce_loss, bptt_gradients,
                           clip_gradients, evaluate, init_model, load_model,
                           load_report, rnn_forward, save_model, save_report,
                           train)
from surrotest.spectral import SurrogateConfig


def zero_model(H=2):
    return RnnModel(w_in=np.zeros(H), w_rec=np.zeros((H, H)), b_h=np.zeros(H),
                    w_out=np.zeros(H), b_out=np.zeros(1))


# ---------------------------------------------------------------------------
# parameter vector
# ---------------------------------------------------------------------------

def test_named_parameters_are_views_of_vec():
    m = init_model(4, seed=20)
    assert m.vec.shape == (4 * 4 + 3 * 4 + 1,)
    for name, p in m.params().items():
        assert getattr(m, name) is p
        assert np.shares_memory(p, m.vec)
    flat = np.concatenate([m.params()[name].ravel() for name in PARAM_NAMES])
    assert np.array_equal(flat, m.vec)


def test_writing_through_a_view_changes_the_forward_output():
    m = init_model(4, seed=21)
    x = np.random.default_rng(21).normal(size=12)
    assert rnn_forward(m, x)[0] != 0.5
    m.w_out[...] = 0.0
    assert m.vec[4 * 4 + 2 * 4:-1].tolist() == [0.0] * 4
    assert rnn_forward(m, x)[0] == 0.5     # b_out is 0 after init


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
    params = zero_model(3).params()
    params[name] = value
    with pytest.raises(ParameterError):
        RnnModel(**params)


@pytest.mark.parametrize("name", PARAM_NAMES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_values(name, bad):
    params = {k: v.copy() for k, v in zero_model(3).params().items()}
    params[name].flat[-1] = bad
    with pytest.raises(ParameterError, match=name):
        RnnModel(**params)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_forward_all_zero_parameters():
    p, _ = rnn_forward(zero_model(), np.array([0.3, -0.7, 1.2]))
    assert p == pytest.approx(0.5)


def test_forward_output_bias_only():
    m = zero_model()
    m.b_out[...] = 1.0
    p, _ = rnn_forward(m, np.zeros(4))
    assert p == pytest.approx(0.731059, abs=1e-6)


def test_forward_two_step_hand_computation():
    m = RnnModel(w_in=np.array([1.0]), w_rec=np.array([[1.0]]),
                 b_h=np.array([0.0]), w_out=np.array([1.0]),
                 b_out=np.array([0.0]))
    p, trace = rnn_forward(m, np.array([1.0, 1.0]))
    assert trace[1][0] == pytest.approx(1.0)
    assert trace[2][0] == pytest.approx(2.0)
    assert p == pytest.approx(0.880797, abs=1e-6)


def test_forward_scaling_output_weights_keeps_class():
    rng = np.random.default_rng(0)
    m = init_model(6, seed=1)
    x = rng.normal(size=16)
    p, _ = rnn_forward(m, x)
    for c in (0.5, 2.0, 10.0):
        scaled = m.copy()
        scaled.w_out[...] = m.w_out * c
        scaled.b_out[...] = m.b_out * c
        q, _ = rnn_forward(scaled, x)
        assert (q >= 0.5) == (p >= 0.5)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_bce_symmetric_point():
    assert bce_loss(0.5, 1) == pytest.approx(np.log(2.0))
    assert bce_loss(0.5, 0) == pytest.approx(np.log(2.0))


def test_bce_confident_correct():
    assert bce_loss(0.9, 1) == pytest.approx(0.105361, abs=1e-6)


def test_bce_perfect_prediction_clamped():
    assert 0.0 <= bce_loss(1.0, 1) <= 1.1e-12
    assert 0.0 <= bce_loss(0.0, 0) <= 1.1e-12


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_output_bias_gradient_closed_form():
    m = zero_model()
    batch = [(np.array([0.1, 0.2, 0.3]), 1), (np.array([0.5, 0.5, 0.5]), 0)]
    grads = bptt_gradients(m, batch)
    # p = 0.5 everywhere, so d(loss)/d(b_out) = mean(0.5 - y).
    assert grads["b_out"][0] == pytest.approx(np.mean([0.5 - 1, 0.5 - 0]))


def test_duplicating_batch_items_keeps_gradient():
    rng = np.random.default_rng(1)
    m = init_model(4, seed=2)
    batch = [(rng.normal(size=8), 1), (rng.normal(size=8), 0)]
    g1 = bptt_gradients(m, batch)
    g2 = bptt_gradients(m, batch + batch)
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-14)


def numeric_gradients(model, batch, step=1e-5):
    """Central finite differences of the mean loss, parameter by parameter."""
    from surrotest.rnn import _coerce_batch, _forward_batch, _batch_loss

    X, y = _coerce_batch(batch)

    def mean_loss(m):
        p, _ = _forward_batch(m, X)
        return _batch_loss(p, y)

    out = {}
    for name, arr in model.params().items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = mean_loss(model)
            flat[i] = orig - step
            down = mean_loss(model)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * step)
        out[name] = g
    return out


@pytest.mark.parametrize("H", [1, 3, 10])
@pytest.mark.parametrize("L", [4, 32])
def test_gradients_match_finite_differences(H, L):
    rng = np.random.default_rng(100 * H + L)
    model = init_model(H, seed=H + L)
    # Standardized inputs, as in training.
    batch = []
    for j in range(4):
        x = rng.normal(size=L)
        x = (x - x.mean()) / x.std()
        batch.append((x, j % 2))
    analytic = bptt_gradients(model, batch)
    numeric = numeric_gradients(model, batch)
    for name in analytic:
        a, n = analytic[name].ravel(), numeric[name].ravel()
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
    for name, p in before.params().items():
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
    rng = np.random.default_rng(4)
    items = [(rng.normal(size=8), i % 2) for i in range(20)]
    assert evaluate(zero_model(), items) == 0.5


def test_evaluate_perfect_model():
    m = zero_model(1)
    m.w_in[...] = 5.0   # hidden = relu(5x) tracks positive inputs
    m.w_out[...] = 4.0
    m.b_out[...] = -2.0
    items = [(np.array([1.0, 1.0, 1.0, 1.0]), 1),
             (np.array([-1.0, -1.0, -1.0, -1.0]), 0)]
    assert evaluate(m, items) == 1.0


def test_evaluate_negated_output_flips_predictions():
    rng = np.random.default_rng(5)
    m = init_model(5, seed=6)
    items = [(rng.normal(size=12), int(rng.integers(0, 2))) for _ in range(40)]
    ps = [rnn_forward(m, x)[0] for x, _ in items]
    assert all(p != 0.5 for p in ps)  # tie-free set
    flipped = m.copy()
    flipped.w_out[...] = -m.w_out
    flipped.b_out[...] = -m.b_out
    assert evaluate(m, items) + evaluate(flipped, items) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_dataset():
    originals = make_realizations("logistic", 16, 8, seed=30)
    ds = build_dataset(originals, SurrogateConfig(seed=31))
    return split_dataset(ds, seed=32)


def test_train_zero_epochs_returns_initialization(toy_dataset):
    snapshots, report = train(7, toy_dataset, 0, TrainConfig(hidden_size=4))
    assert len(snapshots) == 1
    init = init_model(4, seed=7)
    for name, p in init.params().items():
        assert np.array_equal(p, getattr(snapshots[0], name))
    assert report.train_loss == []
    assert report.representative_epoch is None


def test_train_memorizes_tiny_problem():
    # Two fixed pairs, overparameterized: loss must fall over 200 epochs.
    rng = np.random.default_rng(8)
    from surrotest.dataset import LabeledDataset
    X = rng.normal(size=(4, 8))             # original, surrogate per pair
    y, pid = np.tile([1, 0], 2), np.repeat([0, 1], 2)
    ds = LabeledDataset(X=np.concatenate([X, np.repeat(X, 2, axis=0)]),
                        y=np.concatenate([y, np.repeat(y, 2)]),
                        pair_id=np.concatenate([pid, np.repeat(pid, 2)]),
                        split=np.array(["train"] * 4
                                       + ["validation", "test"] * 4))
    _, report = train(9, ds, 200, TrainConfig(hidden_size=8, lr=1e-2,
                                              shuffle_seed=10))
    assert report.train_loss[-1] < report.train_loss[0]


def test_train_is_deterministic(toy_dataset):
    cfg = TrainConfig(hidden_size=4, shuffle_seed=11)
    snaps_a, rep_a = train(12, toy_dataset, 5, cfg)
    snaps_b, rep_b = train(12, toy_dataset, 5, cfg)
    assert rep_a.train_loss == rep_b.train_loss
    assert rep_a.val_loss == rep_b.val_loss
    assert rep_a.test_acc == rep_b.test_acc
    for ma, mb in zip(snaps_a, snaps_b):
        for name in ma.params():
            assert np.array_equal(getattr(ma, name), getattr(mb, name))


def reference_train(init_seed, dataset, epochs, config):
    """Snapshots of a per-parameter loop: one dict of arrays per parameter
    set, Adam (0.9, 0.999, 1e-8) parameter by parameter, and the clip norm
    summed over w_out, b_out, b_h, w_in, w_rec.  Also returns how many of
    the steps were clipped."""
    X = dataset.X[dataset.split == "train"]
    y = dataset.y[dataset.split == "train"]
    params = {k: v.copy() for k, v in
              init_model(config.hidden_size, seed=init_seed).params().items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    rng = np.random.default_rng(config.shuffle_seed)
    snapshots, t, clipped = [{k: p.copy() for k, p in params.items()}], 0, 0
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for lo in range(0, len(X), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            grads = bptt_gradients(RnnModel(**params), (X[idx], y[idx]))
            if config.clip_norm is not None:
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
    originals = make_realizations("henon", 16, 40, seed=40)
    ds = build_dataset(originals, SurrogateConfig(seed=41))
    return split_dataset(ds, seed=42)


@pytest.mark.parametrize("clip_norm", [0.05, None])
def test_train_matches_per_parameter_reference(small_dataset, clip_norm):
    cfg = TrainConfig(hidden_size=5, lr=1e-2, batch_size=8,
                      clip_norm=clip_norm, shuffle_seed=43)
    snapshots, _ = train(44, small_dataset, 6, cfg)
    expected, clipped, steps = reference_train(44, small_dataset, 6, cfg)
    assert steps >= 18
    if clip_norm is None:
        assert clipped == 0
    else:
        assert clipped > steps // 2
    assert len(snapshots) == len(expected)
    for model, ref in zip(snapshots, expected):
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(model, name), ref[name]), name


def test_train_validates_epochs(toy_dataset):
    with pytest.raises(ParameterError):
        train(0, toy_dataset, -1, TrainConfig(hidden_size=2))


def test_train_report_curves_consistent(toy_dataset):
    snapshots, report = train(13, toy_dataset, 6, TrainConfig(hidden_size=3))
    assert len(snapshots) == 7
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
    for name, p in m.params().items():
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
    _, report = train(15, toy_dataset, 4, TrainConfig(hidden_size=3))
    path = tmp_path / "report.csv"
    save_report(path, report)
    loaded = load_report(path)
    assert loaded.train_loss == report.train_loss
    assert loaded.test_acc_s5 == report.test_acc_s5
    assert loaded.n_test_items == report.n_test_items
    assert loaded.representative_epoch == report.representative_epoch


def test_report_bad_header_is_parse_error(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(ParseError) as info:
        load_report(path)
    assert info.value.line == 1
