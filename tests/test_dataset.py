from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surrotest.dataset import (BLOCK, READ_CHARS, SPLITS, FilterSpec,
                               LabeledDataset, build_dataset,
                               butterworth_lowpass,
                               design_butterworth_lowpass, load_dataset,
                               load_series, pair_surrogates, save_dataset,
                               split_dataset, standardize)
from surrotest.dynsys import (load_realizations, make_realizations,
                              save_realizations)
from surrotest.errors import (LengthError, ParameterError, ParseError,
                              SplitError)
from surrotest.rnn import TrainReport, load_report, record_epoch, save_report
from surrotest.spectral import SurrogateConfig


# ---------------------------------------------------------------------------
# load / save
# ---------------------------------------------------------------------------

def test_load_series_column(tmp_path):
    path = tmp_path / "rec.txt"
    path.write_text("1\n2\n3\n")
    ts = load_series(path)
    assert np.array_equal(ts, [1.0, 2.0, 3.0])


def test_load_series_parse_error_names_line(tmp_path):
    path = tmp_path / "rec.txt"
    path.write_text("1\nabc\n3\n")
    with pytest.raises(ParseError) as err:
        load_series(path)
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_load_series_empty_file(tmp_path):
    path = tmp_path / "rec.txt"
    path.write_text("")
    with pytest.raises(LengthError):
        load_series(path)


@pytest.mark.parametrize("text, samples", [
    ("\n \n\n", None),
    # The last block read holds only blank lines.
    ("1\n2\n" + "\n" * (READ_CHARS + 10), [1.0, 2.0]),
], ids=["blank-only", "blank-last-block"])
def test_load_series_blank_block(tmp_path, text, samples):
    path = tmp_path / "rec.txt"
    path.write_text(text)
    if samples is None:
        with pytest.raises(LengthError, match="contains no samples"):
            load_series(path)
    else:
        assert load_series(path).tolist() == samples


def test_load_series_row_format(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("1.5,-2.25,3e-4\n")
    ts = load_series(path)
    assert np.array_equal(ts, [1.5, -2.25, 3e-4])


def test_load_series_mixed_lines_keep_file_order(tmp_path):
    path = tmp_path / "rec.txt"
    path.write_text("1\n2.5,3\n\n-4,5e-1,6\n7\n")
    ts = load_series(path)
    assert np.array_equal(ts, [1.0, 2.5, 3.0, -4.0, 0.5, 6.0, 7.0])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False,
                          width=64),
                min_size=1, max_size=64))
def test_save_load_round_trip_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("io") / "rec.txt"
    np.savetxt(path, np.array(values), fmt="%.17g")
    loaded = load_series(path)
    assert np.array_equal(loaded, np.array(values))


# ---------------------------------------------------------------------------
# Butterworth filter
# ---------------------------------------------------------------------------

SPEC = FilterSpec(cutoff_hz=40.0, sampling_rate_hz=1000.0)


def transfer_magnitude(b, a, freq_hz, fs_hz):
    """Oracle: |B(z)/A(z)| on the unit circle at the given frequency."""
    z = np.exp(1j * 2.0 * np.pi * freq_hz / fs_hz)
    return abs(np.polyval(b, z) / np.polyval(a, z))


def test_filter_spec_validation():
    with pytest.raises(ParameterError):
        FilterSpec(cutoff_hz=600.0, sampling_rate_hz=1000.0)  # >= Nyquist
    with pytest.raises(ParameterError):
        FilterSpec(cutoff_hz=0.0, sampling_rate_hz=1000.0)
    # The order is fixed at 4 and is not an argument; sidecars record it.
    assert asdict(FilterSpec(20, 100))["order"] == 4


def test_dc_gain_is_unity():
    b, a = design_butterworth_lowpass(SPEC)
    assert transfer_magnitude(b, a, 0.0, 1000.0) == pytest.approx(1.0, abs=1e-12)
    out = butterworth_lowpass(np.full(400, 2.5), SPEC)
    # After the transient the output settles at the input level.
    assert np.max(np.abs(out[200:] - 2.5)) < 1e-6 * 2.5


def test_cutoff_is_half_power_point():
    b, a = design_butterworth_lowpass(SPEC)
    # Prewarping pins the digital response to -3.01 dB at the cutoff.
    assert transfer_magnitude(b, a, 40.0, 1000.0) == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-9)


def test_cutoff_sinusoid_amplitude_ratio():
    fs, fc = 1000.0, 40.0
    t = np.arange(2000) / fs
    x = np.sin(2.0 * np.pi * fc * t)
    y = butterworth_lowpass(x, SPEC)
    tail = slice(1000, 2000)  # integer number of cycles, transient gone
    zvec = np.exp(-1j * 2.0 * np.pi * fc * t[tail])
    amp = 2.0 * np.abs(np.mean(y[tail] * zvec))
    assert amp == pytest.approx(1.0 / np.sqrt(2.0), abs=0.02)


def test_four_times_cutoff_strongly_attenuated():
    fs, fc = 1000.0, 40.0
    b, a = design_butterworth_lowpass(SPEC)
    # 4th-order slope: ~ -80 dB/decade, so >= ~45 dB down at 4x cutoff.
    assert transfer_magnitude(b, a, 4 * fc, fs) < 10 ** (-45.0 / 20.0)
    t = np.arange(2000) / fs
    x = np.sin(2.0 * np.pi * 4 * fc * t)
    y = butterworth_lowpass(x, SPEC)
    tail = slice(1000, 2000)
    zvec = np.exp(-1j * 2.0 * np.pi * 4 * fc * t[tail])
    amp = 2.0 * np.abs(np.mean(y[tail] * zvec))
    assert amp < 10 ** (-45.0 / 20.0)


def test_filter_is_linear():
    rng = np.random.default_rng(2)
    x = rng.normal(size=256)
    y = rng.normal(size=256)
    a_, b_ = 2.5, -1.25
    lhs = butterworth_lowpass(a_ * x + b_ * y, SPEC)
    rhs = (a_ * butterworth_lowpass(x, SPEC)
           + b_ * butterworth_lowpass(y, SPEC))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def iir_reference(b, a, x):
    """Direct form II transposed, one numpy scalar at a time."""
    order = b.size - 1
    z = np.zeros(order)
    y = np.empty_like(x)
    for i, xi in enumerate(x):
        yi = b[0] * xi + z[0]
        for k in range(order - 1):
            z[k] = b[k + 1] * xi + z[k + 1] - a[k + 1] * yi
        z[order - 1] = b[order] * xi - a[order] * yi
        y[i] = yi
    return y


def test_filter_matches_numpy_scalar_recurrence():
    # The filter walks the record in blocks of BLOCK samples; the reference
    # runs over the whole record at once, with its state in an array.
    spec = FilterSpec(cutoff_hz=40.0, sampling_rate_hz=173.61)
    x = np.random.default_rng(4).normal(size=2 * BLOCK + 3)
    for n in (5000, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
        expected = iir_reference(*design_butterworth_lowpass(spec), x[:n])
        assert butterworth_lowpass(x[:n], spec).tobytes() == (
            expected.tobytes()), n


def test_load_series_rows_straddle_a_block(tmp_path):
    # Single values up to two short of BLOCK, a blank line, then comma
    # rows and blank lines; the record's text spans several blocks of
    # READ_CHARS characters, so rows and blank lines straddle them.
    values = np.random.default_rng(3).normal(size=BLOCK + 40)
    head = BLOCK - 2
    lines = [repr(v) for v in values[:head].tolist()] + [""]
    for lo in range(head, values.size, 7):
        lines += [",".join(repr(v) for v in values[lo:lo + 7].tolist()), ""]
    path = tmp_path / "rec.txt"
    path.write_text("\n".join(lines) + "\n")
    assert load_series(path).tobytes() == values.tobytes()
    # A bad cell after the first block still names its line.
    bad_line = len(lines) - 1      # the last comma row
    lines[bad_line - 1] = lines[bad_line - 1].replace(",", ",nope,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {bad_line}: cannot parse "
                                         "'nope'") as err:
        load_series(path)
    assert err.value.line == bad_line


def test_filter_rejects_short_input():
    with pytest.raises(LengthError):
        butterworth_lowpass(np.ones(4), SPEC)


# ---------------------------------------------------------------------------
# standardize
# ---------------------------------------------------------------------------

def test_standardize_small_example():
    out = standardize(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [-1.224745, 0.0, 1.224745], atol=1e-6)


def test_standardize_constant_maps_to_zeros():
    out = standardize(np.full(4, 5.0))
    assert np.array_equal(out, np.zeros(4))


def test_standardize_moments():
    x = np.random.default_rng(3).normal(2.0, 7.0, size=128)
    out = standardize(x)
    assert abs(out.mean()) < 1e-12
    assert abs(np.mean(out**2) - 1.0) < 1e-12


def test_standardize_rows_match_single_series():
    rows = np.random.default_rng(3).normal(2.0, 3.0, size=(5, 16))
    rows[2] = 4.0
    out = standardize(rows)
    assert np.array_equal(out[2], np.zeros(16))
    for row, scaled in zip(rows, out):
        assert np.array_equal(scaled, standardize(row))


def test_standardize_needs_two_samples():
    with pytest.raises(LengthError):
        standardize(np.array([1.0]))


# ---------------------------------------------------------------------------
# build_dataset
# ---------------------------------------------------------------------------

def paired_dataset(originals, config):
    """``build_dataset`` on the surrogates the surrogate stage makes."""
    surrogates = [r.surrogate for r in pair_surrogates(originals, config)]
    return build_dataset(originals, surrogates)


@pytest.fixture(scope="module")
def small_dataset():
    originals = make_realizations("logistic", 16, 10, seed=21)[0]
    return paired_dataset(originals, SurrogateConfig(seed=22))


def test_build_single_pair():
    originals = make_realizations("logistic", 16, 1, seed=23)[0]
    ds = paired_dataset(originals, SurrogateConfig(seed=24))
    assert ds.pairs.shape == (1, 2, 16)
    assert ds.split.tolist() == [""]
    X, y = ds.items("")
    assert np.array_equal(X, ds.pairs[0])
    assert y.tolist() == [1, 0]


def test_build_label_balance(small_dataset):
    X, y = small_dataset.items("")
    assert len(X) == 20
    assert np.mean(y) == 0.5


def test_build_surrogate_multiset_per_pair(small_dataset):
    # The surrogates that build_dataset standardizes share each original's
    # value multiset exactly.
    originals = make_realizations("logistic", 16, 10, seed=21)[0]
    results = pair_surrogates(originals, SurrogateConfig(seed=22))
    for pid, (orig, res) in enumerate(zip(originals, results)):
        assert np.array_equal(np.sort(orig), np.sort(res.surrogate)), pid
        assert np.array_equal(small_dataset.pairs[pid, 0],
                              standardize(orig)), pid
        assert np.array_equal(small_dataset.pairs[pid, 1],
                              standardize(res.surrogate)), pid


def test_build_items_are_standardized(small_dataset):
    for row in small_dataset.pairs.reshape(-1, 16):
        assert abs(row.mean()) < 1e-12
        assert abs(np.mean(row**2) - 1.0) < 1e-9


def test_build_rejects_mixed_lengths():
    # Originals and surrogates must be one (N, L) block each, of one shape.
    rows = np.arange(64, dtype=float).reshape(4, 16)
    for originals, surrogates in (([rows[0], np.arange(32.0)], rows),
                                  (rows[0], rows), (rows[:0], rows),
                                  (rows, rows[:3])):
        with pytest.raises(LengthError):
            build_dataset(originals, surrogates)


def test_build_rejects_non_finite_rows():
    rows = np.arange(64, dtype=float).reshape(4, 16)
    bad = rows.copy()
    bad[1, 3] = np.inf
    for originals, surrogates in ((bad, rows), (rows, bad)):
        with pytest.raises(ParameterError, match="finite"):
            build_dataset(originals, surrogates)


# ---------------------------------------------------------------------------
# split_dataset
# ---------------------------------------------------------------------------

def test_split_fractions_match_reference_sizes():
    # 1000 pairs -> 250 test, 225 validation (30% of 750), 525 train.
    rng = np.random.default_rng(4)
    originals = rng.normal(size=(1000, 8))
    ds = LabeledDataset(pairs=np.repeat(originals[:, None], 2, axis=1),
                        split=np.full(1000, ""))
    out = split_dataset(ds, seed=5)
    counts = {tag: int(np.sum(out.split == tag))
              for tag in ("train", "validation", "test")}
    assert counts == {"train": 525, "validation": 225, "test": 250}


def test_split_pairs_stay_together(small_dataset):
    # A split tags whole pairs: each tag's items are its pairs, in order,
    # each original directly followed by its own surrogate.
    for seed in range(5):
        out = split_dataset(small_dataset, seed=seed)
        assert out.split.shape == (10,)
        assert np.array_equal(out.pairs, small_dataset.pairs)
        for tag in SPLITS:
            X, _ = out.items(tag)
            assert np.array_equal(X.reshape(-1, 2, 16),
                                  small_dataset.pairs[out.split == tag])


def test_split_is_exhaustive_partition(small_dataset):
    out = split_dataset(small_dataset, seed=6)
    assert all(tag in SPLITS for tag in out.split.tolist())
    assert sum(len(out.items(tag)[0]) for tag in SPLITS) == 20


def test_split_class_balance_within_splits(small_dataset):
    out = split_dataset(small_dataset, seed=7)
    for tag in ("train", "validation", "test"):
        _, labels = out.items(tag)
        assert labels.size and np.mean(labels) == 0.5


def test_split_deterministic(small_dataset):
    a = split_dataset(small_dataset, seed=8)
    b = split_dataset(small_dataset, seed=8)
    assert a.split.tolist() == b.split.tolist()


def test_split_rejects_tiny_dataset():
    # Fewer than 5 pairs leave test or validation empty, so train could
    # never use the dataset; 5 pairs fill every split.
    originals = make_realizations("logistic", 16, 5, seed=25)[0]
    for n_pairs in (1, 2, 3, 4):
        ds = paired_dataset(originals[:n_pairs], SurrogateConfig(seed=26))
        with pytest.raises(SplitError, match="at least 5 pairs"):
            split_dataset(ds, seed=9)
    ds = split_dataset(paired_dataset(originals, SurrogateConfig(seed=26)),
                       seed=9)
    assert sorted(ds.split.tolist()) == ["test", "train", "train", "train",
                                         "validation"]


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path, small_dataset):
    ds = split_dataset(small_dataset, seed=10)
    path = tmp_path / "dataset.csv"
    save_dataset(path, ds, extra_meta={"note": "fixture"})
    loaded = load_dataset(path)
    assert loaded.pairs.shape == ds.pairs.shape
    assert ds.split.tolist() == loaded.split.tolist()
    assert np.array_equal(ds.pairs, loaded.pairs)


@pytest.fixture(scope="module")
def saved_csvs(tmp_path_factory):
    """A realization CSV, a dataset CSV and a training report, each with
    its sidecar."""
    root = tmp_path_factory.mktemp("saved")
    originals, meta = make_realizations("logistic", 16, 6, seed=40)
    save_realizations(root / "realizations.csv", originals, meta)
    ds = split_dataset(paired_dataset(originals, SurrogateConfig(seed=41)),
                       seed=42)
    save_dataset(root / "dataset.csv", ds)
    report = TrainReport()
    for values in np.random.default_rng(43).uniform(0, 1, (12, 3)).tolist():
        record_epoch(report, *values)
    save_report(root / "train_report.csv", report)
    return root


# loader, header lines
LOADERS = {"realizations.csv": (load_realizations, 0),
           "dataset.csv": (load_dataset, 1),
           "train_report.csv": (load_report, 1)}


# Every sampled token fails in every column.  A label of 7 parses as an
# integer, so it comes in as an example that puts it in the label column;
# the next example puts an unknown tag in the split column, and the last
# one a bad cell in the report's epoch column.
@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), row=st.integers(0, 100),
       cell=st.integers(0, 100), truncate=st.booleans(),
       token=st.sampled_from(["x", "", "1..2", "--3", "0x1p", "1e", "n a n",
                              "nan", "inf", "1e400"]))
@example(name="dataset.csv", row=0, cell=1, truncate=False, token="7")
@example(name="dataset.csv", row=3, cell=2, truncate=False, token="tset")
@example(name="train_report.csv", row=1, cell=0, truncate=False, token="x")
def test_loaders_name_line_of_corrupt_row(saved_csvs, name, row, cell,
                                          truncate, token):
    loader, header = LOADERS[name]
    lines = (saved_csvs / name).read_bytes().decode().split("\r\n")[:-1]
    data = len(lines) - header
    index = header + row % data
    cells = lines[index].split(",")
    if truncate:
        cells = cells[:1 + cell % (len(cells) - 1)]
    else:
        cells[cell % len(cells)] = token
    lines[index] = ",".join(cells)
    path = saved_csvs / f"corrupt-{name}"
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    path.with_name(path.stem + ".meta.json").write_bytes(
        (saved_csvs / name).with_name(name[:-4] + ".meta.json").read_bytes())
    with pytest.raises(ParseError) as info:
        loader(path)
    assert info.value.line == index + 1
    assert str(path) in str(info.value)
