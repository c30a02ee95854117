import gzip
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

from nclab import data, densemat, metrics


# ---------------------------------------------------------------------------
# one-hot labels
# ---------------------------------------------------------------------------

def test_one_hot_basic():
    y = data.one_hot([0, 2, 1, 2], 3)
    expected = np.array([[1, 0, 0, 0],
                         [0, 0, 1, 0],
                         [0, 1, 0, 1]], dtype=float)
    np.testing.assert_array_equal(y, expected)


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValueError):
        data.one_hot([0, 3], 3)
    with pytest.raises(ValueError):
        data.one_hot([-1], 3)


def test_one_hot_singular_values():
    # balanced one-hot Y has Y Y^T = n I, so every singular value is sqrt(n)
    for k, n_per in [(2, 5), (4, 3), (10, 7)]:
        labels = np.repeat(np.arange(k), n_per)
        y = data.one_hot(labels, k)
        s = np.linalg.svd(y, compute_uv=False)
        np.testing.assert_allclose(s, math.sqrt(n_per), atol=1e-12)


# ---------------------------------------------------------------------------
# synthetic Gaussians
# ---------------------------------------------------------------------------

def test_synth_deterministic_and_shapes():
    d1 = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0,
                             noise=0.5, seed=9)
    d2 = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0,
                             noise=0.5, seed=9)
    np.testing.assert_array_equal(d1.x, d2.x)
    np.testing.assert_array_equal(d1.y, d2.y)
    assert d1.x.shape == (6, 12)
    assert d1.y.shape == (3, 12)
    assert d1.idx.class_counts == (4, 4, 4)
    assert d1.b == pytest.approx(float(np.linalg.norm(d1.x, axis=0).max()))


def test_synth_zero_noise_collapses_to_orthonormal_centers():
    ds = data.synth_gaussian(d=5, k=3, n_per_class=4, class_sep=2.0,
                             noise=0.0, seed=1)
    means, _ = metrics.class_means(ds.x, ds.idx)
    # all samples sit on their class center
    for c, sl in enumerate(ds.idx.slices()):
        np.testing.assert_allclose(
            ds.x[:, sl], np.tile(means[:, [c]], (1, 4)), atol=1e-12)
    # centers are class_sep * orthonormal directions
    np.testing.assert_allclose(means.T @ means, 4.0 * np.eye(3), atol=1e-10)
    assert metrics.nc1(ds.x, ds.idx) == 0.0


def test_synth_min_col_norm_one_rescaling():
    ds = data.synth_gaussian(d=8, k=2, n_per_class=3, class_sep=0.05,
                             noise=0.01, seed=2, min_col_norm_one=True)
    assert ds.b == 1.0
    assert float(np.linalg.norm(ds.x, axis=0).max()) == pytest.approx(1.0)
    big = data.synth_gaussian(d=8, k=2, n_per_class=3, class_sep=5.0,
                              noise=0.01, seed=2, min_col_norm_one=True)
    assert big.b > 1.0  # no rescaling when the norms already exceed one


def test_synth_validation():
    with pytest.raises(ValueError):
        data.synth_gaussian(d=2, k=3, n_per_class=2, class_sep=1.0,
                            noise=0.1, seed=0)
    with pytest.raises(ValueError):
        data.synth_gaussian(d=4, k=2, n_per_class=0, class_sep=1.0,
                            noise=0.1, seed=0)


# ---------------------------------------------------------------------------
# IDX loader
# ---------------------------------------------------------------------------

def write_idx(path, array):
    # header-driven, as the format is: 0x0000, type 0x08, ndim, then the sizes
    array = np.asarray(array, dtype=np.uint8)
    path.write_bytes(struct.pack(f">HBB{array.ndim}I", 0, 0x08, array.ndim, *array.shape)
                     + array.tobytes())


def reference_parse_images(path):
    # independent minimal parser for cross-checking
    raw = path.read_bytes()
    magic, n, r, c = struct.unpack(">IIII", raw[:16])
    assert magic == 0x00000803
    return np.array(list(raw[16:]), dtype=np.uint8).reshape(n, r, c)


def reference_load_idx(images, labels, subset=None, classes=None):
    # the per-sample selection in file order, then a stable regrouping by class
    if classes is None:
        classes = tuple(sorted(set(labels.tolist())))
    remap = {cls: i for i, cls in enumerate(classes)}
    taken = {cls: 0 for cls in classes}
    keep, new_labels = [], []
    for i, lab in enumerate(labels.tolist()):
        if lab in remap and (subset is None or taken[lab] < subset):
            taken[lab] += 1
            keep.append(i)
            new_labels.append(remap[lab])
    x = images[keep].reshape(len(keep), -1).T.astype(np.float64) / 255.0
    new_labels = np.array(new_labels, dtype=np.int64)
    order = np.argsort(new_labels, kind="stable")
    return data.make_dataset(x[:, order], new_labels[order], len(classes))


def assert_same_dataset(a, b):
    assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
    assert a.x.flags.f_contiguous and b.x.flags.f_contiguous
    assert a.x.shape == b.x.shape and a.y.shape == b.y.shape
    assert a.idx.class_counts == b.idx.class_counts
    assert a.b == b.b
    assert a.fingerprint() == b.fingerprint()


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(10, 3, 2), dtype=np.uint8)
    labels = np.array([0, 1, 0, 2, 1, 2, 0, 1, 2, 0], dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(ip, images)
    write_idx(lp, labels)
    return ip, lp, images, labels


def test_read_idx_round_trip(idx_pair):
    ip, lp, images, labels = idx_pair
    np.testing.assert_array_equal(data.read_idx(ip), images)
    np.testing.assert_array_equal(data.read_idx(lp), labels)
    np.testing.assert_array_equal(data.read_idx(ip),
                                  reference_parse_images(ip))


@pytest.mark.parametrize("shape", [(), (7,), (4, 5), (2, 3, 4, 5), (0, 28, 28)])
def test_read_idx_takes_its_shape_from_the_header(tmp_path, shape):
    a = np.random.default_rng(1).integers(0, 256, size=shape, dtype=np.uint8)
    write_idx(tmp_path / "a.idx", a)
    got = data.read_idx(tmp_path / "a.idx")
    assert got.dtype == np.uint8 and got.shape == shape
    np.testing.assert_array_equal(got, a)


def test_read_idx_gzip(tmp_path, idx_pair):
    ip, lp, images, labels = idx_pair
    gp = tmp_path / "imgs.idx.gz"
    gp.write_bytes(gzip.compress(ip.read_bytes()))
    np.testing.assert_array_equal(data.read_idx(gp), images)


def test_idx_error_cases(tmp_path, idx_pair):
    ip, lp, images, labels = idx_pair
    bad_magic = tmp_path / "bad_magic.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
    with pytest.raises(data.IdxFormatError, match="magic"):
        data.read_idx(bad_magic)
    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(data.IdxFormatError, match="truncated"):
        data.read_idx(truncated)
    trailing = tmp_path / "trail.idx"
    trailing.write_bytes(ip.read_bytes() + b"\x00")
    with pytest.raises(data.IdxFormatError, match="trailing"):
        data.read_idx(trailing)
    short_labels = tmp_path / "short_labs.idx"
    write_idx(short_labels, labels[:4])
    with pytest.raises(data.IdxFormatError, match="count"):
        data.load_idx(ip, short_labels)
    # a header cut short, before or after the magic
    for head in [b"", b"\x00\x00", b"\x00\x00\x08\x03\x00\x00\x00\x0a",
                 b"\x00\x00\x08\x01\x00"]:
        truncated.write_bytes(head)
        with pytest.raises(data.IdxFormatError, match="truncated"):
            data.read_idx(truncated)
    # signed bytes (0x09), floats (0x0D) and a non-zero lead are not unsigned-byte IDX
    for magic in [0x00000903, 0x00000D03, 0x01000803]:
        bad_magic.write_bytes(struct.pack(">IIII", magic, 1, 1, 1) + b"\x00")
        with pytest.raises(data.IdxFormatError, match="magic"):
            data.read_idx(bad_magic)
    cut_gzip = tmp_path / "cut.idx.gz"
    cut_gzip.write_bytes(gzip.compress(ip.read_bytes())[:-10])
    with pytest.raises(data.IdxFormatError, match="truncated"):
        data.read_idx(cut_gzip)
    with pytest.raises(data.IdxFormatError, match="3-D images and 1-D labels"):
        data.load_idx(lp, ip)  # swapped
    with pytest.raises(ValueError, match="duplicate"):
        data.load_idx(ip, lp, classes=(0, 2, 0))


def test_load_idx_groups_by_class(idx_pair):
    ip, lp, images, labels = idx_pair
    ds = data.load_idx(ip, lp)
    assert ds.x.shape == (6, 10)
    assert ds.idx.class_counts == (4, 3, 3)
    # columns are the flattened images regrouped by class, scaled to [0,1]
    order = np.argsort(labels, kind="stable")
    expected = images.reshape(10, -1).T[:, order] / 255.0
    np.testing.assert_allclose(ds.x, expected, atol=1e-15)
    np.testing.assert_array_equal(ds.y, data.one_hot(labels[order], 3))


def test_load_idx_subset_and_classes(idx_pair):
    ip, lp, images, labels = idx_pair
    ds = data.load_idx(ip, lp, subset=2, classes=(2, 0))
    assert ds.idx.class_counts == (2, 2)
    # class 2 is relabeled 0, class 0 relabeled 1; first two in file order
    file_order = {2: [3, 5], 0: [0, 2]}
    expected_cols = file_order[2] + file_order[0]
    expected = images.reshape(10, -1).T[:, expected_cols] / 255.0
    np.testing.assert_allclose(ds.x, expected, atol=1e-15)
    with pytest.raises(ValueError, match="not enough"):
        data.load_idx(ip, lp, subset=5)


@pytest.mark.parametrize("subset, classes", [(None, None), (2, (2, 0)), (3, None),
                                             (None, (1,)), (1, (2, 1, 0))])
def test_load_idx_matches_the_per_sample_selection(tmp_path, idx_pair, subset, classes):
    ip, lp, images, labels = idx_pair
    want = reference_load_idx(images, labels, subset, classes)
    assert_same_dataset(data.load_idx(ip, lp, subset, classes), want)
    gp = tmp_path / "labs.idx.gz"
    gp.write_bytes(gzip.compress(lp.read_bytes()))
    assert_same_dataset(data.load_idx(ip, gp, subset, classes), want)


def test_load_idx_matches_the_per_sample_selection_at_scale(tmp_path):
    rng = np.random.default_rng(7)
    images = rng.integers(0, 256, size=(3000, 6, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=3000).astype(np.uint8)
    write_idx(tmp_path / "i.idx", images)
    write_idx(tmp_path / "l.idx", labels)
    for subset, classes in [(100, None), (37, (9, 3, 4)), (None, (5, 0))]:
        assert_same_dataset(
            data.load_idx(tmp_path / "i.idx", tmp_path / "l.idx", subset, classes),
            reference_load_idx(images, labels, subset, classes))


def test_dataset_validation():
    x = np.zeros((2, 3))
    y = data.one_hot([0, 0, 1], 2)
    with pytest.raises(ValueError):
        data.Dataset(x=x, y=y, idx=metrics.ClassIndex((1, 1)), b=0.0)
    bad_y = y.copy()
    bad_y[0, 0] = 0.5
    with pytest.raises(ValueError):
        data.Dataset(x=x, y=bad_y, idx=metrics.ClassIndex((2, 1)), b=0.0)


def _with_column(col):
    y = data.one_hot([0, 0, 1], 2)
    y[:, 0] = col
    return y


@pytest.mark.parametrize("col", [[2.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.5, 0.5],
                                 [np.nan, 0.0], [np.nan, 1.0], [1.0 + 1e-9, 0.0]],
                         ids=["two", "sums_to_2", "all_zero", "halves", "nan",
                              "nan_and_one", "near_one"])
def test_dataset_rejects_a_label_column_that_is_not_exactly_one_hot(col):
    x = np.zeros((2, 3))
    with pytest.raises(ValueError, match="^labels must be one-hot columns$"):
        data.Dataset(x=x, y=_with_column(col), idx=metrics.ClassIndex((2, 1)), b=0.0)


def test_dataset_accepts_an_exact_one_hot():
    y = _with_column([0.0, 1.0])
    ds = data.Dataset(x=np.zeros((2, 3)), y=y, idx=metrics.ClassIndex((2, 1)), b=0.0)
    assert ds.y is y


# ---------------------------------------------------------------------------
# stored identities and the cost of building them
# ---------------------------------------------------------------------------

# Stored runs carry these digests (`data_sha256`), and `nclab bounds` refuses
# data whose digest differs, so a change of hashing or memory order shows here.
PYRAMIDAL_SHA256 = "703783c103dd37f9ded6805bcde7e239fc2df3d2dfd509d9197b6838e777c099"
IDX_FIXTURE_SHA256 = {
    (None, None): "0c6a2596f669862bbab5c98259453dbefd6eb600ab6ec1d547950e1d730e1f59",
    (2, (2, 0)): "cfbb73150af27e871a36ebe5d953b01dfc796680e320a65375ce4419153678ba",
}


def test_golden_digest_of_the_pyramidal_benchmark_data():
    # perfbench's `pyramidal` workload at data seed 0
    ds = data.synth_gaussian(d=16, k=4, n_per_class=8, class_sep=1.0, noise=0.1,
                             seed=0, min_col_norm_one=True)
    assert ds.x.flags.f_contiguous
    assert ds.b == 1.3798087975594855
    assert ds.fingerprint() == PYRAMIDAL_SHA256


@pytest.mark.parametrize("subset, classes", list(IDX_FIXTURE_SHA256))
def test_golden_digest_of_the_idx_fixture(tmp_path, idx_pair, subset, classes):
    ip, lp, images, labels = idx_pair
    gp = tmp_path / "imgs.idx.gz"
    gp.write_bytes(gzip.compress(ip.read_bytes()))
    for path in (ip, gp):
        ds = data.load_idx(path, lp, subset, classes)
        assert ds.x.flags.f_contiguous
        assert ds.fingerprint() == IDX_FIXTURE_SHA256[subset, classes]


def test_fingerprint_is_over_the_c_order_bytes_and_taken_once(monkeypatch):
    ds = data.synth_gaussian(d=5, k=2, n_per_class=3, seed=4)
    h = hashlib.sha256()
    for a in (ds.x, ds.y):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    made = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda: made.append(1) or real())
    assert ds.fingerprint() == h.hexdigest() == ds.fingerprint()
    assert len(made) == 1


@pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
@pytest.mark.parametrize("order", ["C", "F"])
def test_b_is_the_max_column_norm_bit_for_bit(n, order):
    # n = 257 and 513 leave a last block of one column; every column in turn
    # is made the longest, so b pins that column's norm
    rng = np.random.default_rng(n)
    base = rng.standard_normal((37, n)) * rng.uniform(0.5, 1.0, n)
    for j in sorted({0, n // 2, min(255, n - 1), min(256, n - 1), n - 1}):
        x = np.array(base, order=order)
        x[:, j] *= 3.0
        want = np.linalg.norm(x, axis=0)
        got = data.make_dataset(x, np.zeros(n, dtype=np.int64), 1).b
        assert got == want.max() == want[j]


def test_load_idx_and_fingerprint_hold_one_float64_copy_of_x(tmp_path):
    # beside x, only the uint8 file and its selection (0.25 x.nbytes) and one
    # column-norm block (256/N of x.nbytes) are alive at a time
    rng = np.random.default_rng(5)
    write_idx(tmp_path / "i.idx", rng.integers(0, 256, size=(3000, 28, 28), dtype=np.uint8))
    write_idx(tmp_path / "l.idx", rng.integers(0, 10, size=3000, dtype=np.uint8))
    tracemalloc.start()
    try:
        ds = data.load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ds.fingerprint()
        hash_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert load_peak <= 1.5 * ds.x.nbytes, load_peak / ds.x.nbytes
    assert hash_peak <= ds.x.nbytes / 16, hash_peak / ds.x.nbytes
