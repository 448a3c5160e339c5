import numpy as np
import pytest

from gqn.errors import ConfigError, InvalidInputError, ShapeError
from gqn.scene import (BevGrid, ObjectBox, SceneSpec, demo_boxes, flatten_grid, generate_scene,
                       grid_to_csv, sinusoidal_encoding, unflatten)


def test_encoding_origin_cell_is_sin_zero_cos_one():
    enc = sinusoidal_encoding(4, 4, 8)
    np.testing.assert_array_equal(enc.values[0, 0::2], np.zeros(4))
    np.testing.assert_array_equal(enc.values[0, 1::2], np.ones(4))


def test_encoding_range():
    enc = sinusoidal_encoding(16, 16, 12, base=100.0)
    assert enc.values.min() >= -1.0 and enc.values.max() <= 1.0


def test_encoding_rejects_odd_widths():
    with pytest.raises(ConfigError):
        sinusoidal_encoding(4, 4, 6)


def _min_pairwise_l2(values):
    n = values.shape[0]
    best = np.inf
    for r0 in range(0, n, 512):
        block = values[r0:r0 + 512]
        d2 = ((block[:, None, :] - values[None, :, :]) ** 2).sum(-1)
        d2[np.arange(block.shape[0]), np.arange(r0, r0 + block.shape[0])] = np.inf
        best = min(best, float(d2.min()))
    return np.sqrt(best)


def test_encoding_pairwise_distinct_16x16_d8():
    enc = sinusoidal_encoding(16, 16, 8)
    assert _min_pairwise_l2(enc.values) > 0.0


def test_encoding_injective_up_to_64x64():
    enc = sinusoidal_encoding(64, 64, 8, base=100.0)
    assert _min_pairwise_l2(enc.values) > 0.0


def test_encoding_deterministic():
    a = sinusoidal_encoding(8, 8, 8)
    b = sinusoidal_encoding(8, 8, 8)
    assert np.array_equal(a.values, b.values)


# ----------------------------------------------------------------------------
# scene generation


def _box(center, extent, d, value=1.0):
    return ObjectBox(center, extent, tuple([value] * d))


def test_clean_scene_has_features_only_inside_boxes():
    spec = SceneSpec(8, 8, 4, boxes=(_box((4, 4), (3, 3), 4),))
    grid, truth = generate_scene(spec)
    outside = grid.features[truth.mask == 0.0]
    assert np.array_equal(outside, np.zeros_like(outside))
    assert np.all(grid.features[truth.mask == 1.0] == 1.0)


def test_scene_determinism():
    spec = SceneSpec(12, 10, 8, boxes=demo_boxes(12, 10, 8, 3, 5),
                     clutter_density=0.2, noise_amplitude=0.1, seed=42)
    ga, _ = generate_scene(spec)
    gb, _ = generate_scene(spec)
    assert np.array_equal(ga.features, gb.features)


@pytest.mark.parametrize("height,width", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 9)])
def test_demo_boxes_fit_grids_under_three_cells(height, width):
    for seed in range(8):
        boxes = demo_boxes(height, width, 4, 2, seed)
        SceneSpec(height, width, 4, boxes=boxes)  # validates every box against the grid


def test_3x3_box_marks_exactly_nine_cells():
    spec = SceneSpec(8, 8, 4, boxes=(_box((4, 4), (3, 3), 4),))
    _, truth = generate_scene(spec)
    assert truth.mask.sum() == 9.0


def test_later_box_wins_on_overlap():
    early = _box((4, 4), (3, 3), 4, value=1.0)
    late = _box((4, 4), (1, 1), 4, value=2.0)
    spec = SceneSpec(8, 8, 4, boxes=(early, late))
    grid, truth = generate_scene(spec)
    center = 4 * 8 + 4
    assert truth.object_ids[center] == 1
    assert np.all(grid.features[center] == 2.0)


def test_box_outside_grid_rejected():
    with pytest.raises(ConfigError):
        SceneSpec(8, 8, 4, boxes=(_box((0, 0), (4, 4), 4),))


@pytest.mark.parametrize("extent", [(0, 1), (1, 0), (-2, 2)])
def test_box_extent_below_one_rejected(extent):
    with pytest.raises(ConfigError, match="at least 1x1"):
        SceneSpec(8, 8, 4, boxes=(_box((3, 3), extent, 4),))
    SceneSpec(8, 8, 4, boxes=(_box((3, 3), (1, 1), 4),))  # a single cell is a box


def test_signature_width_must_match_d():
    with pytest.raises(ConfigError):
        SceneSpec(8, 8, 4, boxes=(ObjectBox((4, 4), (2, 2), (1.0, 2.0)),))


# ----------------------------------------------------------------------------
# flattening


def _toy_flat(h=2, w=3, d=4, seed=0):
    spec = SceneSpec(h, w, d, boxes=(), clutter_density=0.5, noise_amplitude=0.1, seed=seed)
    grid, _ = generate_scene(spec)
    enc = sinusoidal_encoding(h, w, d)
    return grid, enc, flatten_grid(grid, enc)


def test_flatten_row_major_indexing():
    grid, enc, flat = _toy_flat()
    assert flat.m_bev == 6
    assert flat.bev_indices[5] == 5  # cell (1, 2) of a 2x3 grid
    np.testing.assert_array_equal(flat.states[5], grid.features[5])
    np.testing.assert_array_equal(flat.positions[5], enc.values[5])


def test_flatten_roundtrip_bitexact():
    grid, _, flat = _toy_flat()
    assert np.array_equal(unflatten(flat).features, grid.features)
    perm = np.random.default_rng(0).permutation(flat.m_bev)
    assert np.array_equal(unflatten(flat.reordered(perm)).features, grid.features)


@pytest.mark.parametrize("perm", [[0, 0, 1, 2], [1, 2], [0, 1, 2, 4], [0.0, 1.0, 2.0, 3.0]],
                         ids=["repeated-cell", "too-short", "out-of-range", "float"])
def test_reordered_rejects_anything_but_a_permutation(perm):
    """A repeated cell would leave another cell of ``unflatten`` unwritten (uninitialised
    memory), a short order would keep fewer pairs than m_bev, and a float order would be
    truncated to indices; all are rejected."""
    _, _, flat = _toy_flat(h=2, w=2)
    with pytest.raises(InvalidInputError, match="permutation"):
        flat.reordered(perm)


def test_pair_k_carries_cell_k():
    grid, enc, flat = _toy_flat(h=3, w=3)
    for k in range(flat.m_bev):
        np.testing.assert_array_equal(flat.states[k], grid.features[k])
        np.testing.assert_array_equal(flat.positions[k], enc.values[k])


def test_flatten_dim_mismatch():
    grid, _, _ = _toy_flat()
    with pytest.raises(ShapeError):
        flatten_grid(grid, sinusoidal_encoding(4, 4, 4))


def test_grid_csv_roundtrippable_precision(tmp_path):
    grid, _, _ = _toy_flat()
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("r,c,f0")
    assert len(rows) == grid.m_bev + 1
    first = np.array([float(v) for v in rows[1].split(",")[2:]])
    np.testing.assert_array_equal(first, grid.features[0])


def test_bevgrid_shape_invariant():
    with pytest.raises(ShapeError):
        BevGrid(2, 2, 3, np.zeros((4, 2)))
