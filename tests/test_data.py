import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpoison import DatasetError, load_dataset, sbm_graph, seeded_split
from graphpoison.data import _read_digits, _read_lines, _read_table

from .conftest import CORA_DIR, DATA_ROOT, requires_cora, spy_graph_builds, write_plain_dataset

POLBLOGS_DIR = os.path.join(DATA_ROOT, "polblogs")

# A 4-node path with two classes and 2-dim features.
PATH_FILES = {"edges.txt": "0 1\n1 2\n2 3\n", "labels.txt": "0\n1\n0\n1\n", "features.csv": "1,0\n0,1\n1,1\n0,0\n"}


def _path_dataset(tmp_path, file, text):
    """PATH_FILES written to a directory, with ``file`` holding ``text`` (bytes as given)."""
    d = tmp_path / "ds"
    os.makedirs(d)
    for name, body in dict(PATH_FILES, **{file: text}).items():
        (d / name).write_bytes(body.encode())
    return str(d)


def test_roundtrip_with_features(tmp_path, small_sbm):
    # small_sbm is connected, so LCC extraction keeps every node in order
    d = write_plain_dataset(small_sbm, tmp_path / "ds")
    g = load_dataset(d, split_fraction=0.2, split_seed=3)
    assert g.n_nodes == small_sbm.n_nodes
    assert g.n_edges == small_sbm.n_edges
    assert np.array_equal(g.labels, small_sbm.labels)
    assert np.allclose(g.features, small_sbm.features)


def test_missing_features_gives_identity(tmp_path, small_sbm):
    d = write_plain_dataset(small_sbm, tmp_path / "ds", features=False)
    g = load_dataset(d)
    assert np.array_equal(g.features, np.eye(small_sbm.n_nodes))


def test_identity_features_sized_after_lcc(tmp_path):
    # 4-node path plus an isolated 5th node; LCC has 4 nodes
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n1 2\n2 3\n")
    (d / "labels.txt").write_text("0\n1\n0\n1\n0\n")
    g = load_dataset(str(d), split_fraction=0.3)
    assert g.n_nodes == 4
    assert np.array_equal(g.features, np.eye(4))


def test_features_keep_the_rows_of_the_lcc(tmp_path):
    # an isolated node 1 between path nodes: the kept rows are 0, 2, 3, 4 in order
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 2\n2 3\n3 4\n")
    (d / "labels.txt").write_text("0\n1\n1\n0\n1\n")
    (d / "features.csv").write_text("1,0\n9,9\n0,1\n2,0\n0,3\n")
    g = load_dataset(str(d), split_fraction=0.3)
    assert g.features.tolist() == [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 3.0]]
    assert g.labels.tolist() == [0, 1, 0, 1]


def test_duplicate_and_self_loop_lines_dropped(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n1 0\n0 1\n2 2\n1 2\n")
    (d / "labels.txt").write_text("0\n1\n0\n")
    g = load_dataset(str(d), split_fraction=0.4)
    assert g.n_edges == 2


def test_lcc_applied_by_default(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n1 2\n3 4\n")
    (d / "labels.txt").write_text("0\n1\n0\n1\n1\n")
    g = load_dataset(str(d), split_fraction=0.4)
    assert g.n_nodes == 3


@pytest.mark.parametrize("features", [True, False])
def test_load_dataset_builds_one_graph_after_one_components_pass(tmp_path, monkeypatch, features):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 2\n2 3\n3 4\n")
    (d / "labels.txt").write_text("0\n1\n1\n0\n1\n")
    if features:
        (d / "features.csv").write_text("1,0\n9,9\n0,1\n2,0\n0,3\n")
    calls = spy_graph_builds(monkeypatch)
    assert load_dataset(str(d), split_fraction=0.3).n_nodes == 4
    assert (calls["Graph"], calls["component_roots"]) == (1, 1)


def test_split_is_seed_deterministic(tmp_path, small_sbm):
    d = write_plain_dataset(small_sbm, tmp_path / "ds")
    g1 = load_dataset(d, split_seed=5)
    g2 = load_dataset(d, split_seed=5)
    g3 = load_dataset(d, split_seed=6)
    assert np.array_equal(g1.labeled_mask, g2.labeled_mask)
    assert not np.array_equal(g1.labeled_mask, g3.labeled_mask)


def test_seeded_split_fraction_floor():
    mask = seeded_split(25, 0.10, 0)
    assert mask.sum() == 2  # floor(2.5)
    assert seeded_split(9, 0.05, 0).sum() == 1  # never zero labeled


def test_seeded_split_validates_fraction():
    with pytest.raises(ValueError):
        seeded_split(10, 0.0, 0)
    with pytest.raises(ValueError):
        seeded_split(10, 1.0, 0)


@pytest.mark.parametrize("seed", [True, 1.5, -1])
def test_seeded_split_validates_seed(tmp_path, seed):
    with pytest.raises(ValueError, match="split seed"):
        seeded_split(50, 0.1, seed)
    # rejected before any file is read: the directory does not exist
    with pytest.raises(ValueError, match="split seed"):
        load_dataset(str(tmp_path / "missing"), split_seed=seed)


def test_negative_label_rejected(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n")
    (d / "labels.txt").write_text("0\n-1\n")
    with pytest.raises(DatasetError, match="negative"):
        load_dataset(str(d))


def test_blank_label_line_before_the_last_label_rejected(tmp_path):
    # skipping the blank line would load 4 nodes labelled [0, 1, 0, 1]
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n1 2\n2 3\n")
    (d / "labels.txt").write_text("0\n\n1\n0\n1\n")
    with pytest.raises(DatasetError, match=r"labels.txt:2: blank or comment line before the last row"):
        load_dataset(str(d))


def test_blank_label_line_exits_with_the_data_code(tmp_path, capsys):
    from graphpoison.cli import EXIT_DATA, main

    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n")
    (d / "labels.txt").write_text("0\n  \n1\n")
    assert main(["run", "--dataset", str(d), "--output", str(tmp_path / "r.json")]) == EXIT_DATA
    assert "labels.txt:2: blank or comment line" in capsys.readouterr().err


@pytest.mark.parametrize("file", sorted(PATH_FILES))
def test_trailing_blank_lines_allowed(tmp_path, file):
    g = load_dataset(_path_dataset(tmp_path, file, PATH_FILES[file] + "\n  \r\n\n"))
    assert g.n_edges == 3
    assert g.labels.tolist() == [0, 1, 0, 1]
    assert g.features.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("1,0\n\n0,1\n1,1\n0,0\n", 2),  # skipping it would load the four rows as nodes 0-3
        ("1,0\n0,1\n# note\n1,1\n0,0\n", 3),
        ("\n1,0\n0,1\n1,1\n0,0\n", 1),
        ("1,0\r\n0,1\r\n\r\n1,1\r\n0,0\r\n", 3),
        ("1,0\n  \n0,1\n1,1\n", 2),
        ("1,0\n0,1\n1,1\n0,0\n# end\n", 5),
    ],
)
def test_blank_or_comment_feature_line_rejected(tmp_path, text, lineno):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n1 2\n2 3\n")
    (d / "labels.txt").write_text("0\n1\n0\n1\n")
    (d / "features.csv").write_bytes(text.encode())
    with pytest.raises(DatasetError, match=rf"features.csv:{lineno}: blank or comment line"):
        load_dataset(str(d))


@pytest.mark.parametrize(
    "file, text, lineno",
    [
        ("labels.txt", "0\n1\n# note\n0\n1\n", 3),
        ("labels.txt", "\n0\n1\n0\n1\n", 1),
        ("labels.txt", "0\r\n1\r\n\r\n0\r\n1\r\n", 3),
        ("labels.txt", "0\n1\n0\n1\n# end\n", 5),
        ("edges.txt", "0 1\n\n1 2\n2 3\n", 2),
        ("edges.txt", "# i j\n0 1\n1 2\n2 3\n", 1),
        ("edges.txt", "\n0 1\n1 2\n2 3\n", 1),
        ("edges.txt", "0 1\r\n1 2\r\n\r\n2 3\r\n", 3),
        ("edges.txt", "0 1\n1 2\n2 3\n# end\n", 4),
    ],
)
def test_blank_or_comment_line_rejected(tmp_path, file, text, lineno):
    """The features.csv rule, in the other two files: row k is line k + 1."""
    with pytest.raises(DatasetError, match=rf"{file}:{lineno}: blank or comment line before the last row"):
        load_dataset(_path_dataset(tmp_path, file, text))


@pytest.mark.parametrize(
    "file, text, lineno, reason",
    [
        # np.loadtxt's own comments would drop "# x"
        ("features.csv", "1,0\n0,1\n1,1 # x\n0,0\n", 3, "could not convert string '1 # x' to float64"),
        ("features.csv", "1,0\n0,1\nnan,1\n0,0\n", 3, "non-finite feature value (NaN or inf)"),
        ("features.csv", "1,0\n0,1\n1,1,1\n0,0\n", 3, "the number of columns changed from 2 to 3"),
        ("edges.txt", "0 1\n1 2\n2 9\n", 3, "node id out of range for 4 nodes"),
        ("edges.txt", "0 1\n1 x\n2 3\n", 2, "could not convert string 'x' to int64"),
        ("edges.txt", "0 1\n1 2 3\n2 3\n", 2, "the number of columns changed from 2 to 3"),
        ("edges.txt", "0 1\n1 2.7\n2 3\n", 2, "could not convert string '2.7' to int64"),
        ("labels.txt", "0\n99999999999999999999\n0\n1\n", 2, "could not convert string '99999999999999999999'"),
        ("labels.txt", "0\n1\n-1\n1\n", 3, "negative class index"),
        ("labels.txt", "0\n1\n0\n1.5\n", 4, "could not convert string '1.5' to int64"),
    ],
)
# The CLI runs under Python's default filters, not the suite's "error": the
# reader must reject an int that parses only as a float on its own.
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_rejected_line_exits_with_the_data_code_and_is_named(tmp_path, capsys, file, text, lineno, reason):
    from graphpoison.cli import EXIT_DATA, main

    d = _path_dataset(tmp_path, file, text)
    assert main(["run", "--dataset", d, "--output", str(tmp_path / "r.json")]) == EXIT_DATA
    msg = capsys.readouterr().err.strip().splitlines()[-1]
    assert msg.startswith(f"data error: [load] {os.path.join(d, file)}:{lineno}: {reason}")
    assert " at row " not in msg  # only the line number locates the row
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("file", sorted(PATH_FILES))
def test_file_without_rows_rejected(tmp_path, file):
    with pytest.raises(DatasetError, match=rf"{file}: no rows"):
        load_dataset(_path_dataset(tmp_path, file, "\n \n"))


TABLE_CHARS = "0123456789, \n\r#.-"


@st.composite
def _table_texts(draw, sep):
    """A file over TABLE_CHARS: random, a one-digit table, or such a table with one edit."""
    if draw(st.booleans()):
        return draw(st.text(TABLE_CHARS, max_size=24))
    width = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from("0123456789"), min_size=width, max_size=width).map(sep.join)
    text = "\n".join(draw(st.lists(row, min_size=1, max_size=5))) + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 1))  # insert or replace a character
        text = text[:at] + draw(st.sampled_from(TABLE_CHARS)) + text[at + cut :]
    return text


def _is_one_digit_table(text: str, sep: str) -> bool:
    """Every line ``c<sep>c...c`` with one digit per field and one field count; the last newline optional."""
    rows = [line.split(sep) for line in text.removesuffix("\n").split("\n")]
    digits = all(len(c) == 1 and c in "0123456789" for r in rows for c in r)
    return bool(text) and digits and all(len(r) == len(rows[0]) for r in rows)


def _read_or_error(read):
    try:
        return read()
    except DatasetError as e:
        return str(e)


@settings(deadline=None)
@given(
    delimiter_text=st.sampled_from([",", None]).flatmap(lambda de: st.tuples(st.just(de), _table_texts(de or " "))),
    dtype=st.sampled_from([np.int64, np.float64]),
)
@example(delimiter_text=(",", "1,0\n0,1"), dtype=np.float64)
@example(delimiter_text=(None, "3 1\n2 0\n"), dtype=np.int64)
@example(delimiter_text=(None, "0\n1\n\n"), dtype=np.int64)
@example(delimiter_text=(",", "1,0\r\n0,1\r\n"), dtype=np.float64)
@example(delimiter_text=(None, "0  1\n"), dtype=np.int64)
@example(delimiter_text=(",", "1,0\n0,1,1\n"), dtype=np.float64)
@example(delimiter_text=(None, "0\n123\n"), dtype=np.int64)  # a digit where the newline column is
@example(delimiter_text=(",", "0,1\n0,1,1,1\n"), dtype=np.float64)
@example(delimiter_text=(",", ""), dtype=np.float64)
def test_one_digit_tables_read_as_the_line_path_reads_them(tmp_path_factory, delimiter_text, dtype):
    """``_read_table``, the reader of ``load_dataset``, returns the line path's array or raises its error."""
    delimiter, text = delimiter_text
    data = text.encode()
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_bytes(data)
    got = _read_or_error(lambda: _read_table(str(path), dtype, delimiter))
    want = _read_or_error(lambda: _read_lines(data, str(path), dtype, delimiter))
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want
    assert (_read_digits(data, dtype, delimiter) is not None) == _is_one_digit_table(text, delimiter or " ")


def test_blank_feature_line_exits_with_the_data_code(tmp_path, capsys):
    from graphpoison.cli import EXIT_DATA, main

    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n")
    (d / "labels.txt").write_text("0\n1\n")
    (d / "features.csv").write_text("1,0\n\n0,1\n")
    assert main(["run", "--dataset", str(d), "--output", str(tmp_path / "r.json")]) == EXIT_DATA
    assert "features.csv:2: blank or comment line" in capsys.readouterr().err


def test_fewer_than_two_classes_rejected(tmp_path):
    # the file holds two classes, but the only 1 is on node 3, outside the LCC
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n1 2\n")
    (d / "labels.txt").write_text("0\n0\n0\n1\n")
    with pytest.raises(DatasetError, match="fewer than two classes: .*labels.txt"):
        load_dataset(str(d))


def test_missing_labels_file(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n")
    with pytest.raises(DatasetError, match="labels"):
        load_dataset(str(d))


def test_missing_edges_file(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "labels.txt").write_text("0\n1\n")
    with pytest.raises(DatasetError, match="edges"):
        load_dataset(str(d))


def test_edge_index_out_of_range(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 9\n")
    (d / "labels.txt").write_text("0\n1\n")
    with pytest.raises(DatasetError, match="out of range"):
        load_dataset(str(d))


def test_bad_edge_line(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1 7\n")
    (d / "labels.txt").write_text("0\n1\n")
    with pytest.raises(DatasetError, match="expected"):
        load_dataset(str(d))


def test_feature_row_count_mismatch(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n")
    (d / "labels.txt").write_text("0\n1\n")
    (d / "features.csv").write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n")
    with pytest.raises(DatasetError, match="rows"):
        load_dataset(str(d))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_features_rejected(tmp_path, small_sbm, bad):
    d = write_plain_dataset(small_sbm, tmp_path / "ds")
    rows = (tmp_path / "ds" / "features.csv").read_text().splitlines()
    rows[3] = ",".join([bad] + rows[3].split(",")[1:])
    (tmp_path / "ds" / "features.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(DatasetError, match=r"features\.csv:4: non-finite"):
        load_dataset(d)


@requires_cora
def test_cora_fixture_statistics():
    g = load_dataset(CORA_DIR)
    assert g.n_nodes == 2485
    assert g.n_edges == 5069
    assert g.n_classes == 7
    assert g.features.shape[1] == 1433


@pytest.mark.skipif(
    not os.path.exists(os.path.join(POLBLOGS_DIR, "edges.txt")),
    reason=f"polblogs dataset not staged at {POLBLOGS_DIR}",
)
def test_polblogs_fixture_statistics():
    g = load_dataset(POLBLOGS_DIR)
    assert g.n_nodes == 1222
    assert g.n_edges == 16714
    assert g.n_classes == 2
    assert np.array_equal(g.features, np.eye(1222))  # featureless graph
