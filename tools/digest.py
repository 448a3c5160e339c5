"""One sha256 over the outputs a "same bytes" claim covers, for one source tree.

    python3 tools/digest.py src
    python3 tools/digest.py /path/to/other/checkout/src

Run it on two trees (say, a change and a checkout of its parent) and compare
the lines: equal digests mean byte-identical results on this machine. The
digest covers, in this order:

  * every parameter of ``init_params(GqnConfig(), 1024)``;
  * at seeds 0 and 1, the no-grad reference forward on a 32x32 grid, as
    ``gqn run`` does it: the set maps, concat, skip and fused maps, the global
    vectors, and every chunk's ``edge_src`` and ``edge_dst``;
  * at seeds 0 and 1, every parameter gradient of sum(fused_map) for the
    reference config on a 24x24 grid, for the canonical pair order and for
    one seeded permutation of it;
  * the loss curve of ``gqn train-demo`` at its defaults (201 losses).

Each array enters with its name, dtype and shape. One BLAS thread is pinned
before numpy loads, as ``tests/conftest.py`` and ``perfbench/run.py`` do: GEMM
results may differ across thread counts. It takes about 5 s on a 2-vCPU
x86-64 machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (0, 1)


def build_scene(scene, side: int, d: int, seed: int, freq_base: float):
    """The scene ``gqn run`` builds by default, on a side x side grid."""
    spec = scene.SceneSpec(side, side, d, boxes=scene.demo_boxes(side, side, d, 2, seed),
                           clutter_density=0.05, noise_amplitude=0.05, seed=seed)
    grid, _ = scene.generate_scene(spec)
    return scene.flatten_grid(grid, scene.sinusoidal_encoding(side, side, d, freq_base))


def digest() -> str:
    from gqn import autodiff, cli, pipeline, scene

    h = hashlib.sha256()

    def put(name: str, array) -> None:
        a = np.ascontiguousarray(array)
        h.update(f"{name}|{a.dtype.str}|{a.shape}\n".encode())
        h.update(a.tobytes())

    for name, t in pipeline.init_params(pipeline.GqnConfig(), 1024).items():
        put(f"init/{name}", t.data)

    for seed in SEEDS:
        config = pipeline.GqnConfig(seed=seed)
        flat = build_scene(scene, 32, config.d, seed, config.freq_base)
        params = pipeline.init_params(config, flat.m_bev)
        with autodiff.no_grad():
            out = pipeline.run_gqn(flat, config, params, global_map=flat.states)
        for i, m in enumerate(out.set_maps):
            put(f"run32/{seed}/set{i}", m.data)
        for name in ("concat_map", "skip_map", "fused_map", "global_vectors"):
            put(f"run32/{seed}/{name}", getattr(out, name).data)
        for j, chunk in enumerate(out.queries):
            put(f"run32/{seed}/chunk{j}/edge_src", chunk.edge_src)
            put(f"run32/{seed}/chunk{j}/edge_dst", chunk.edge_dst)

    for seed in SEEDS:
        config = pipeline.GqnConfig(seed=seed)
        canonical = build_scene(scene, 24, config.d, seed, config.freq_base)
        perm = np.random.default_rng(seed).permutation(canonical.m_bev)
        for order, flat in (("canonical", canonical), ("permuted", canonical.reordered(perm))):
            params = pipeline.init_params(config, flat.m_bev)
            out = pipeline.run_gqn(flat, config, params, global_map=flat.states)
            grads = autodiff.backward(autodiff.sum_all(out.fused_map), params)
            for name, g in grads.items():
                put(f"grad24/{seed}/{order}/{name}", g)

    settings = cli.load_settings(None, None, None)
    result = pipeline.toy_train(settings.scene, settings.gqn, settings.train_steps,
                                settings.learning_rate)
    put("train_demo/losses", np.asarray(result.losses))
    put("train_demo/diverged", np.asarray(result.diverged))
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: digest.py <src dir>", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "gqn" / "__init__.py").is_file():
        print(f"digest: no gqn package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    print(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
