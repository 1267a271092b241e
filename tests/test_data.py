import os

import numpy as np
import pytest

from graphpoison import DatasetError, load_dataset, sbm_graph, seeded_split

from .conftest import CORA_DIR, DATA_ROOT, requires_cora, write_plain_dataset

POLBLOGS_DIR = os.path.join(DATA_ROOT, "polblogs")


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


def test_negative_label_rejected(tmp_path):
    d = tmp_path / "ds"
    os.makedirs(d)
    (d / "edges.txt").write_text("0 1\n")
    (d / "labels.txt").write_text("0\n-1\n")
    with pytest.raises(DatasetError, match="negative"):
        load_dataset(str(d))


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
    with pytest.raises(DatasetError, match=r"non-finite .*features\.csv, row 3"):
        load_dataset(d)


def test_unknown_format(tmp_path):
    with pytest.raises(DatasetError, match="format"):
        load_dataset(str(tmp_path), format="npz")


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
