import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surrotest import series
from surrotest.dataset import (LabeledDataset, load_dataset, load_series,
                               save_dataset)
from surrotest.dynsys import load_realizations, save_realizations
from surrotest.errors import ParseError
from surrotest.rnn import (TrainReport, load_report, record_epoch,
                           save_report)

# Values whose .17g form differs from repr, a tiny negative exponent,
# and a whole float that must print without a trailing ".0".
V = [0.1, 1 / 3, -2.5e-300, 1.0]
TAGS = ["train", "validation", "test", ""]


# ---------------------------------------------------------------------------
# The on-disk format, byte for byte
# ---------------------------------------------------------------------------

def test_realization_table_bytes(tmp_path):
    rows = np.array([V + [-v for v in V],
                     [2 * v for v in V] + [1e20, 0.0, -0.0, 123456789.0]])
    path = tmp_path / "realizations.csv"
    save_realizations(path, rows, {"system": "logistic", "seed": 3,
                                   "unused": 1},
                      extra_meta={"master_seed": 0})
    assert path.read_bytes() == (
        b"0.10000000000000001,0.33333333333333331,-2.5e-300,1,"
        b"-0.10000000000000001,-0.33333333333333331,2.5e-300,-1\r\n"
        b"0.20000000000000001,0.66666666666666663,-5e-300,2,"
        b"1e+20,0,-0,123456789\r\n")
    assert (tmp_path / "realizations.meta.json").read_bytes() == (
        b'{\n  "L": 8,\n  "N": 2,\n  "master_seed": 0,\n  "seed": 3,\n'
        b'  "system": "logistic"\n}\n')
    loaded, _ = load_realizations(path)
    assert np.array_equal(loaded, rows)


def test_dataset_table_bytes(tmp_path):
    ds = LabeledDataset(
        pairs=np.array([[V, V[::-1]],
                        [[v / 2 for v in V], [-1.0, 2.0, -3.0, 4.0]],
                        [[0.0, 1.5, 2.5, 1e-5], V]]),
        split=np.array(["train", "validation", "test"]))
    path = tmp_path / "dataset.csv"
    save_dataset(path, ds,
                 extra_meta={"master_seed": 0, "seeds": {"split": 5}})
    assert path.read_bytes() == (
        b"pair_id,label,split,s_0,s_1,s_2,s_3\r\n"
        b"0,1,train,0.10000000000000001,0.33333333333333331,-2.5e-300,1\r\n"
        b"0,0,train,1,-2.5e-300,0.33333333333333331,0.10000000000000001\r\n"
        b"1,1,validation,0.050000000000000003,0.16666666666666666,"
        b"-1.25e-300,0.5\r\n"
        b"1,0,validation,-1,2,-3,4\r\n"
        b"2,1,test,0,1.5,2.5,1.0000000000000001e-05\r\n"
        b"2,0,test,0.10000000000000001,0.33333333333333331,-2.5e-300,1\r\n")
    assert (tmp_path / "dataset.meta.json").read_bytes() == (
        b'{\n  "L": 4,\n  "N": 3,\n  "master_seed": 0,\n  "seeds": {\n'
        b'    "split": 5\n  }\n}\n')
    loaded = load_dataset(path)
    assert np.array_equal(loaded.pairs, ds.pairs)
    assert loaded.split.tolist() == ds.split.tolist()


def test_report_table_bytes(tmp_path):
    report = TrainReport(
        train_loss=[0.7, 1 / 3], val_loss=[0.69, 0.5], test_acc=[0.5, 1.0],
        train_loss_s5=[0.7, 0.5166666666666666], val_loss_s5=[0.69, 0.595],
        test_acc_s5=[0.5, 0.75], representative_epoch=2,
        representative_accuracy=0.75, n_test_items=2, seeds={"init": 1},
        hyperparams={"lr": 0.01})
    path = tmp_path / "train_report.csv"
    save_report(path, report)
    assert path.read_bytes() == (
        b"epoch,train_loss,val_loss,test_acc,train_loss_s5,val_loss_s5,"
        b"test_acc_s5\r\n"
        b"1,0.69999999999999996,0.68999999999999995,0.5,0.69999999999999996,"
        b"0.68999999999999995,0.5\r\n"
        b"2,0.33333333333333331,0.5,1,0.51666666666666661,"
        b"0.59499999999999997,0.75\r\n")
    assert (tmp_path / "train_report.meta.json").read_bytes() == (
        b'{\n  "hyperparams": {\n    "lr": 0.01\n  },\n  "n_test_items": 2,\n'
        b'  "representative_accuracy": 0.75,\n  "representative_epoch": 2,\n'
        b'  "seeds": {\n    "init": 1\n  }\n}\n')
    assert load_report(path) == report


# ---------------------------------------------------------------------------
# write_table / read_table
# ---------------------------------------------------------------------------

def test_write_table_formats_floats_only(tmp_path):
    path = tmp_path / "t.csv"
    rows = ([i, tag, np.float64(v)] for i, (tag, v) in enumerate(zip(TAGS, V)))
    series.write_table(path, rows, {"k": 1}, header=["i", "tag", "v"])
    assert path.read_bytes() == (
        b"i,tag,v\r\n0,train,0.10000000000000001\r\n"
        b"1,validation,0.33333333333333331\r\n2,test,-2.5e-300\r\n3,,1\r\n")
    assert (tmp_path / "t.meta.json").read_text() == '{\n  "k": 1\n}\n'
    assert list(series.read_table(path)) == [
        (1, ["i", "tag", "v"]), (2, ["0", "train", "0.10000000000000001"]),
        (3, ["1", "validation", "0.33333333333333331"]),
        (4, ["2", "test", "-2.5e-300"]), (5, ["3", "", "1"])]


def csv_reference(rows, header) -> bytes:
    """The bytes that ``csv.writer`` gives with every float cell
    preformatted at 17 significant digits, one cell at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                         for v in row])
    return buf.getvalue().encode()


def test_write_table_matches_csv_module(tmp_path):
    # The cells the program writes: floats, ints, bools and split tags.
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    rows = [
        [0, "train", *extremes],
        [1, "test", *(-v for v in extremes)],
        [2, "", *map(np.float64, extremes)],       # numpy scalars
        [3, "validation", 1.0, 2.0, 3.0, 4.0],
        [True, "test", 1e-300, 1e300, -1.5, 7.0],  # a bool cell
        [np.int64(4), "train", 0.5, 0.5, 0.5, 0.5],
    ]
    header = ["id", "tag", "a", "b", "c", "d"]
    path = tmp_path / "t.csv"
    series.write_table(path, iter(rows), {}, header=header)
    assert path.read_bytes() == csv_reference(rows, header)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20))
def test_parse_floats_matches_parse_cells(values):
    cells = [f"{v:.17g}" for v in values] + [repr(v) for v in values]
    fast = series.parse_floats(cells, "t.csv", 1)
    assert fast.tobytes() == np.array(
        series.parse_cells(cells, "t.csv", 1)).tobytes()


def test_parse_floats_accepts_what_float_accepts():
    cells = ["1_0", " 1.5", "2.5 ", "-0", "+.5", "1E3", "\t3", "5e-324"]
    assert series.parse_floats(cells, "t.csv", 1).tobytes() == (
        np.array([float(c) for c in cells]).tobytes())


def _bad_realizations(path, line, token):
    save_realizations(path, np.arange(20.0).reshape(5, 4), {})
    lines = path.read_text().splitlines()
    lines[line - 1] = f"1,{token},2,3"
    path.write_text("\n".join(lines) + "\n")
    return lambda: load_realizations(path)


def _bad_dataset(path, line, token):
    pairs = np.arange(40.0).reshape(5, 2, 4)
    save_dataset(path, LabeledDataset(pairs, np.full(5, "train")))
    lines = path.read_text().splitlines()
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + f",{token}"
    path.write_text("\n".join(lines) + "\n")
    return lambda: load_dataset(path)


def _bad_record(path, line, token):
    # 20,000 lines: the bad one lies past the first block that is read.
    lines = [repr(v) for v in np.linspace(-1.0, 1.0, 20_000).tolist()]
    lines[line - 1] = f"0.5,{token}"
    path.write_text("\n".join(lines) + "\n")
    return lambda: load_series(path)


@pytest.mark.parametrize("token", ["nope", "nan", "1e999"])
@pytest.mark.parametrize("make, line", [(_bad_realizations, 4),
                                        (_bad_dataset, 7),
                                        (_bad_record, 15_001)],
                         ids=["realizations", "dataset", "record"])
def test_bad_cell_names_its_line(tmp_path, make, line, token):
    load = make(tmp_path / "t.csv", line, token)
    with pytest.raises(ParseError) as info:
        load()
    assert info.value.line == line
    assert str(info.value) == (f"{tmp_path / 't.csv'}: line {line}: cannot "
                               f"parse {token!r} as a finite number")


def _bad_report(path, line, token):
    report = TrainReport(n_test_items=2)
    for _ in range(3):
        record_epoch(report, 0.7, 0.69, 0.5)
    save_report(path, report)
    lines = path.read_text().splitlines()
    lines[line - 1] = f"{line - 1},{token},0.69,0.5,0.7,0.69,0.5"
    path.write_text("\n".join(lines) + "\n")
    return lambda: load_report(path)


@pytest.mark.parametrize("make", [_bad_realizations, _bad_dataset,
                                  _bad_report],
                         ids=["realizations", "dataset", "report"])
def test_cell_over_csv_field_limit_is_parse_error(tmp_path, make):
    load = make(tmp_path / "t.csv", 3, "6" * (csv.field_size_limit() + 1))
    with pytest.raises(ParseError) as info:
        load()
    assert info.value.line == 3
    assert str(info.value).startswith(
        f"{tmp_path / 't.csv'}: line 3: field larger than field limit")


def test_read_table_skips_blank_rows_and_counts_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\r\n1,2\r\n\r\n3,4\r\n")
    assert list(series.read_table(path)) == [(2, ["1", "2"]),
                                             (4, ["3", "4"])]


@pytest.mark.parametrize("width, line, expected, got", [
    (None, 3, 2, 3),   # the first row sets the width
    (3, 1, 3, 2),
])
def test_read_table_names_line_of_ragged_row(tmp_path, width, line,
                                             expected, got):
    path = tmp_path / "t.csv"
    path.write_bytes(b"1,2\r\n\r\n3,4,5\r\n")
    with pytest.raises(ParseError) as info:
        list(series.read_table(path, width))
    assert info.value.line == line
    assert str(info.value) == (f"{path}: line {line}: expected {expected} "
                               f"fields, got {got}")

