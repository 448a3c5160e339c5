"""Synthetic BEV feature grids with paired sinusoidal positional encodings.

Stands in for a radar backbone's output: a height x width grid of d-dim state
features plus a fixed positional encoding per cell. Scenes are pure functions
of their spec (same seed, same bits), with rectangular "objects" carrying a
per-object feature signature, optional clutter cells, and iid noise. The last
signature channel plays the role of a Doppler-like value so nearest-neighbor
structure in feature space is exercised, not just spatial structure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError, ShapeError

Array = np.ndarray


@dataclass(frozen=True)
class ObjectBox:
    """A rectangle of cells sharing one feature signature.

    ``center`` is (row, col); the footprint covers rows
    [row - h//2, row - h//2 + h) and likewise for columns.
    """

    center: tuple[int, int]
    extent: tuple[int, int]
    signature: tuple[float, ...]

    def bounds(self) -> tuple[int, int, int, int]:
        r0 = self.center[0] - self.extent[0] // 2
        c0 = self.center[1] - self.extent[1] // 2
        return r0, c0, r0 + self.extent[0], c0 + self.extent[1]


@dataclass(frozen=True)
class SceneSpec:
    height: int
    width: int
    d: int
    boxes: tuple[ObjectBox, ...] = ()
    clutter_density: float = 0.0
    noise_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.d < 1:
            raise ConfigError(f"bad grid dims {self.height}x{self.width}x{self.d}")
        if not 0.0 <= self.clutter_density <= 1.0:
            raise ConfigError(f"clutter_density {self.clutter_density} outside [0, 1]")
        if self.noise_amplitude < 0.0:
            raise ConfigError(f"noise_amplitude {self.noise_amplitude} must be nonnegative")
        for box in self.boxes:
            if len(box.signature) != self.d:
                raise ConfigError(f"box signature length {len(box.signature)} != d={self.d}")
            if min(box.extent) < 1:
                raise ConfigError(f"box extent {box.extent} must be at least 1x1")
            r0, c0, r1, c1 = box.bounds()
            if r0 < 0 or c0 < 0 or r1 > self.height or c1 > self.width:
                raise ConfigError(f"box {box.center}/{box.extent} exceeds grid bounds")

    @property
    def m_bev(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class BevGrid:
    height: int
    width: int
    d: int
    features: Array  # (height*width, d), row-major

    def __post_init__(self):
        if self.features.shape != (self.height * self.width, self.d):
            raise ShapeError(f"features shape {self.features.shape} != ({self.height * self.width}, {self.d})")

    @property
    def m_bev(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class PosEncoding:
    height: int
    width: int
    d: int
    values: Array  # (height*width, d), all entries in [-1, 1]


@dataclass(frozen=True)
class SceneTruth:
    mask: Array        # (height*width,), 1.0 on object cells
    object_ids: Array  # (height*width,), -1 where empty or clutter


def sinusoidal_encoding(height: int, width: int, d: int, base: float = 100.0) -> PosEncoding:
    """Fixed 2-D sinusoidal encodings, half the channels per spatial axis.

    Within an axis, channel pair i holds sin(pos / base^(2i/(d/2))) and the
    matching cos. Cell (0, 0) therefore reads 0 on sin channels and 1 on cos
    channels.
    """
    if d % 4 != 0:
        raise ConfigError(f"encoding width d={d} must be divisible by 4")
    if base <= 1.0:
        raise ConfigError(f"frequency base {base} must exceed 1")
    half = d // 2
    inv = base ** (2.0 * np.arange(half // 2) / half)  # (d/4,)
    rows, cols = np.divmod(np.arange(height * width), width)
    enc = np.empty((height * width, d))
    for offset, pos in ((0, rows), (half, cols)):
        phase = pos[:, None] / inv[None, :]
        enc[:, offset:offset + half:2] = np.sin(phase)
        enc[:, offset + 1:offset + half:2] = np.cos(phase)
    return PosEncoding(height, width, d, enc)


def generate_scene(spec: SceneSpec) -> tuple[BevGrid, SceneTruth]:
    """Render a scene spec into a feature grid and its ground-truth mask.

    Object cells carry their box signature, clutter cells uniform low-magnitude
    features, everything gets iid Gaussian noise scaled by ``noise_amplitude``.
    Overlapping boxes are resolved by the later box winning.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    m, d = spec.m_bev, spec.d
    features = np.zeros((m, d))
    object_ids = np.full(m, -1, dtype=np.intp)

    clutter = rng.random(m) < spec.clutter_density
    features[clutter] = rng.uniform(-0.5, 0.5, size=(int(clutter.sum()), d))

    for i, box in enumerate(spec.boxes):
        r0, c0, r1, c1 = box.bounds()
        rows = np.arange(r0, r1)
        cells = (rows[:, None] * spec.width + np.arange(c0, c1)[None, :]).reshape(-1)
        features[cells] = np.asarray(box.signature, dtype=np.float64)
        object_ids[cells] = i

    if spec.noise_amplitude > 0.0:
        features = features + spec.noise_amplitude * rng.standard_normal((m, d))

    grid = BevGrid(spec.height, spec.width, d, features)
    truth = SceneTruth((object_ids >= 0).astype(np.float64), object_ids)
    return grid, truth


def demo_boxes(height: int, width: int, d: int, n_objects: int = 2, seed: int = 0) -> tuple[ObjectBox, ...]:
    """Convenience boxes with distinct signatures (last channel Doppler-like)."""
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x5CE9E))
    boxes = []
    for i in range(n_objects):
        # a draw of 2 or 3 cells can exceed a grid narrower than 3 cells
        h = min(int(rng.integers(2, max(3, height // 3) + 1)), height)
        w = min(int(rng.integers(2, max(3, width // 3) + 1)), width)
        cr = int(rng.integers(h // 2, height - (h - h // 2) + 1))
        cc = int(rng.integers(w // 2, width - (w - w // 2) + 1))
        sig = rng.uniform(-1.0, 1.0, size=d)
        sig[-1] = (-1.0) ** i * (1.0 + i)  # opposing Doppler-like values per object
        boxes.append(ObjectBox((cr, cc), (h, w), tuple(float(v) for v in sig)))
    return tuple(boxes)


@dataclass(frozen=True)
class FlatPairs:
    """Row-major flattening of a grid and its encoding into (state, position) pairs.

    Pair k of the canonical flattening is cell k = r*width + c. Each pair keeps
    its BEV cell index so reorderings stay traceable: downstream results are
    functions of the pair set, not of the storage order.
    """

    states: Array       # (m, d)
    positions: Array    # (m, d)
    bev_indices: Array  # (m,), permutation of arange(height*width)
    height: int
    width: int

    @property
    def m_bev(self) -> int:
        return self.height * self.width

    @property
    def d(self) -> int:
        return self.states.shape[1]

    def reordered(self, perm: Array) -> "FlatPairs":
        """The pairs in the order ``perm``; raises ``InvalidInputError`` unless ``perm`` is a
        permutation of range(m_bev), so every cell keeps exactly one pair."""
        perm = np.asarray(perm)
        if (perm.dtype.kind not in "iu" or perm.shape != (self.m_bev,)
                or not np.array_equal(np.sort(perm), np.arange(self.m_bev))):
            raise InvalidInputError(f"pair order must be a permutation of range({self.m_bev})")
        return FlatPairs(self.states[perm], self.positions[perm], self.bev_indices[perm],
                         self.height, self.width)

    def to_grid_order(self, per_pair: Array) -> Array:
        """Rearrange per-pair rows back into canonical cell order."""
        out = np.empty_like(per_pair)
        out[self.bev_indices] = per_pair
        return out


def flatten_grid(grid: BevGrid, enc: PosEncoding) -> FlatPairs:
    """Pair up state features and positional encodings in row-major cell order."""
    if (grid.height, grid.width, grid.d) != (enc.height, enc.width, enc.d):
        raise ShapeError(f"grid {grid.height}x{grid.width}x{grid.d} vs encoding "
                         f"{enc.height}x{enc.width}x{enc.d}")
    m = grid.m_bev
    return FlatPairs(grid.features.copy(), enc.values.copy(), np.arange(m, dtype=np.intp),
                     grid.height, grid.width)


def unflatten(flat: FlatPairs) -> BevGrid:
    """Rebuild the grid from pairs (bit-exact roundtrip in any pair order)."""
    feats = flat.to_grid_order(flat.states)
    return BevGrid(flat.height, flat.width, flat.d, feats)


def grid_to_csv(grid: BevGrid, path) -> None:
    """One row per cell: r, c, then the d feature channels."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "c"] + [f"f{i}" for i in range(grid.d)])
        for k in range(grid.m_bev):
            r, c = divmod(k, grid.width)
            writer.writerow([r, c] + [f"{v:.17g}" for v in grid.features[k]])
