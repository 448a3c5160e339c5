"""Record the seed-0 references that run.py checks outputs against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the 201-entry loss curve of ``train_toy``,
summaries of the fused map and global vectors of ``infer_ref32``, and the
loss and per-group gradient norms of ``grad_ref24``. Run it only on a commit
whose outputs are known to be right; the committed file was recorded from
the library's first release.
"""

import json

import run


def main() -> None:
    toy = run.TrainToy(0, None)
    for _ in range(toy.EPISODE):
        if not toy.check(toy.backward(toy.forward())):
            raise SystemExit("train_toy does not reproduce the pinned losses")
    reference = {"train_toy": {"losses": toy.curve}}
    for cls in (run.InferRef32, run.GradRef24):
        wl = cls(0, None)
        if not wl.check(wl.backward(wl.forward())):
            raise SystemExit(f"{cls.name} output failed its checks")
        reference[cls.name] = wl.summary(wl.first)
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
