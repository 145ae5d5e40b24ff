"""Snapshot the artifacts of every reference run into one tree.

    PYTHONPATH=src python tools/snapshot_artifacts.py OUT

Runs, through ``cli.run`` with seed 0, every config in the ``configs/``
directory of the checkout that holds the imported package, the vac-table at
the small and large presets, and fixed-points. Each run writes into
``OUT/<name>/``. The training configs run for ``TRAIN_EPOCHS`` epochs on a
small seeded synthetic MNIST-shaped set written to a temporary directory, and
a training sweep on a subsample of it. Wall times are dropped: ``wall_time_s``
from every manifest and the ``seconds`` column from ``train_epochs.csv``, so
two snapshots of code that behaves alike are byte-identical trees
(``diff -rq``). A failed run is snapshotted too: its manifest holds the
error. To snapshot another checkout, put its ``src`` on PYTHONPATH instead.
"""

from __future__ import annotations

import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from pwmperc import cli, mnist

ROOT = Path(cli.__file__).resolve().parents[2]

TRAIN_EPOCHS = 2
SYNTHETIC_SIZES = {"train": 1500, "test": 300}
SWEEP_SUBSAMPLE = 500


def config_kind(stem: str) -> str:
    """The experiment kind a config file is named after: the longest kind
    whose name, with '_' for '-', starts the file stem."""
    kinds = [k for k in cli.KINDS if stem.startswith(k.replace("-", "_"))]
    if not kinds:
        raise ValueError(f"configs/{stem}.yaml names no experiment kind")
    return max(kinds, key=len)


def reference_runs():
    """(name, kind, parameters) of every snapshot run."""
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        kind = config_kind(path.stem)
        params = yaml.safe_load(path.read_text())
        if kind == "train":
            params["epochs"] = TRAIN_EPOCHS
        elif kind == "train-sweep":
            params["subsample"] = SWEEP_SUBSAMPLE
            params["configs"] = [{**c, "epochs": TRAIN_EPOCHS}
                                 for c in params["configs"]]
        yield path.stem, kind, params
    for preset in ("small", "large"):
        yield f"vac_table_{preset}", "vac-table", {"preset": preset}
    yield "fixed_points", "fixed-points", {}


def write_synthetic_mnist(directory: Path, seed: int = 0) -> None:
    """A seeded, learnable MNIST-shaped set under the four standard IDX file
    names: each image is its class's random prototype plus noise."""
    rng = np.random.default_rng(seed)
    prototypes = rng.uniform(80.0, 120.0, (10, 28 * 28))
    for (images_name, labels_name), split in ((mnist.TRAIN_FILES, "train"),
                                              (mnist.TEST_FILES, "test")):
        n = SYNTHETIC_SIZES[split]
        labels = rng.integers(0, 10, n).astype(np.uint8)
        noisy = prototypes[labels] + rng.normal(0.0, 96.0, (n, 28 * 28))
        pixels = np.clip(noisy, 0.0, 255.0).astype(np.uint8)
        (directory / images_name).write_bytes(
            struct.pack(">iiii", mnist.IMAGES_MAGIC, n, 28, 28) + pixels.tobytes())
        (directory / labels_name).write_bytes(
            struct.pack(">ii", mnist.LABELS_MAGIC, n) + labels.tobytes())


def drop_column(path: Path, column: str) -> None:
    """Rewrite a CSV artifact of plain cells without one of its columns."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    path.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(args[0])
    with tempfile.TemporaryDirectory() as data_dir:
        write_synthetic_mnist(Path(data_dir))
        for name, kind, params in reference_runs():
            spec = cli.ExperimentSpec(kind=kind, parameters=params,
                                      output_dir=out / name, seed=0,
                                      data_dir=data_dir)
            manifest = cli.run(spec)
            del manifest["wall_time_s"]
            (spec.output_dir / cli.MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=2, default=str) + "\n")
            epochs_csv = spec.output_dir / "train_epochs.csv"
            if epochs_csv.is_file():
                drop_column(epochs_csv, "seconds")
            print(f"{name}: {manifest['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
