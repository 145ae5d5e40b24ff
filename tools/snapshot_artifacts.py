"""Snapshot the artifacts of every reference run into one tree.

    PYTHONPATH=src python tools/snapshot_artifacts.py OUT
    PYTHONPATH=src python tools/snapshot_artifacts.py --compare BASE HEAD

Runs, through ``cli.run`` with seed 0, every config in the ``configs/``
directory of the checkout that holds the imported package, the vac-table at
the small and large presets and at network width (``WIDTH_RUNS``: 784 inputs,
clamp off and at 0.4 V, on ``width_rows``), fixed-points, and four runs with
the compensation clamp engaged (``CLAMPED_RUNS``), which no config sets: at
0.4 V, two dynamic-vdd runs with the supply-clamp benchmark's circuit over 20
us, the second with the regions' weights swapped so that region B has rows at
times region A lacks, and ``sweep_vdd.yaml``; and ``sweep_vdd.yaml`` at 1.2 V
(``sweep_vdd_clamp_fails``), where the grid points 0.5 V and 1.0 V fail, so
that their per-row error text is snapshotted too. ``RAW_CHAIN_RUN`` is
``response_curve.yaml`` with the raw converter at depths 1-8 on 101 points,
whose ends stall: no config runs the raw chain. Each run writes into
``OUT/<name>/``. The training configs run for ``TRAIN_EPOCHS`` epochs on a
small seeded synthetic MNIST-shaped set written to a temporary directory, and
a training sweep on a subsample of it. Wall times are dropped: ``wall_time_s``
and ``artifact_seconds`` from every manifest and the ``seconds`` column from
``train_epochs.csv``, so two snapshots of code that behaves alike are
byte-identical trees (``diff -rq``). A failed run is snapshotted too: its
manifest holds the error. To snapshot another checkout, put its ``src`` on
PYTHONPATH instead.

``--compare BASE HEAD`` reads two snapshot trees and prints, for each CSV
that differs, one line per column with differing cells: their count and,
where every differing cell holds a number in both trees, the largest
absolute and relative difference and the largest difference in ulps of the
base cell (``np.spacing``); a column whose differing cells are not all
numbers reads "not numeric". CSVs found in one tree only, or of
different shapes, are listed as such. It exits 0 either way: it reports.
"""

from __future__ import annotations

import csv
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
CLAMP_V = 0.4
DYNAMIC_CLAMPED = {"preset": "custom", "r_unit": 1e5, "c_out": 1e-10,
                   "compensation_threshold": CLAMP_V, "duties": [0.9, 0.8, 0.95],
                   "horizon": 20e-6}
# the clamped runs: (name, kind, the config they start from or None, overrides)
CLAMPED_RUNS = (
    ("dynamic_vdd_clamped", "dynamic-vdd", None,
     {**DYNAMIC_CLAMPED, "weights_a": [7, 7, 7]}),
    ("dynamic_vdd_clamped_swapped", "dynamic-vdd", None,
     {**DYNAMIC_CLAMPED, "weights_a": [2, 2, 2], "weights_b": [7, 7, 7]}),
    ("sweep_vdd_clamped", "sweep-vdd", "sweep_vdd",
     {"compensation_threshold": CLAMP_V}),
    ("sweep_vdd_clamp_fails", "sweep-vdd", "sweep_vdd",
     {"compensation_threshold": 1.2}),
)

# the width runs: one neuron of a 784-input layer, clamp off and at 0.4 V
WIDTH_N = 784
WIDTH_RUNS = (("vac_table_width", 0.0), ("vac_table_width_clamped", CLAMP_V))


def width_rows() -> list[dict]:
    """The width runs' 8 vac-table rows, by a fixed integer formula: row r
    has nonzero byte duties on (20 + 10r) % of the inputs and 6-bit weights
    from 8r to 63, so that the densest rows pull below 0.4 V at 1.5 V."""
    rows = []
    for r in range(8):
        least = 8 * r
        duties = [(1 + (73 * i + 29 * r) % 255) / 255 if (37 * i + 11 * r) % 100 < 20 + 10 * r
                  else 0.0 for i in range(WIDTH_N)]
        weights = [least + (11 * i + 7 * r) % (64 - least) for i in range(WIDTH_N)]
        rows.append({"duties": duties, "weights": weights})
    return rows


# (name, kind, the config it starts from, overrides), like a clamped run
RAW_CHAIN_RUN = ("response_curve_raw", "response-curve", "response_curve",
                 {"converter": "raw", "depths": list(range(1, 9)), "grid_points": 101})


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
    for name, v_th in WIDTH_RUNS:
        yield name, "vac-table", {"preset": "small", "n": WIDTH_N, "k": 6, "vdd": 1.5,
                                  "compensation_threshold": v_th, "rows": width_rows()}
    yield "fixed_points", "fixed-points", {}
    for name, kind, base, overrides in (*CLAMPED_RUNS, RAW_CHAIN_RUN):
        params = {} if base is None else yaml.safe_load(
            (ROOT / "configs" / f"{base}.yaml").read_text())
        yield name, kind, {**params, **overrides}


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


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_diffs(base: list[list[str]], head: list[list[str]]):
    """(column, differing cells, max absolute, max relative and max ulp
    difference) of each column with differing cells, between two CSVs of one
    shape; an ulp is the spacing of floats at the base cell (``np.spacing``).
    The differences are None where a differing cell is not a number in both."""
    out = []
    for j, name in enumerate(head[0]):
        pairs = [(a[j], b[j]) for a, b in zip(base[1:], head[1:]) if a[j] != b[j]]
        if not pairs:
            continue
        nums = [(_number(a), _number(b)) for a, b in pairs]
        if any(a is None or b is None for a, b in nums):
            out.append((name, len(pairs), None, None, None))
            continue
        # 0.0 against -0.0 differs by 0
        gaps = [(abs(a - b), abs(a - b) / (max(abs(a), abs(b)) or 1.0),
                 abs(a - b) / abs(float(np.spacing(a)))) for a, b in nums]
        out.append((name, len(pairs), *map(max, zip(*gaps))))
    return out


def compare(base: Path, head: Path) -> list[str]:
    """The report lines of --compare."""
    lines = []
    names = sorted({p.relative_to(root) for root in (base, head)
                    for p in root.rglob("*.csv")})
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {'head' if b.is_file() else 'base'}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        rows_a, rows_b = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
        if [len(r) for r in rows_a] != [len(r) for r in rows_b] or rows_a[0] != rows_b[0]:
            lines.append(f"{name}: header or shape differs")
            continue
        for column, cells, gap, rel, ulps in column_diffs(rows_a, rows_b):
            detail = ("not numeric" if gap is None
                      else f"max abs {gap:.3g}, max rel {rel:.3g}, max {ulps:.3g} ulp")
            lines.append(f"{name} {column}: {cells} cells, {detail}")
    return lines or ["No CSV differs."]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        print("\n".join(compare(Path(args[1]), Path(args[2]))))
        return 0
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(args[0])
    with tempfile.TemporaryDirectory() as data_dir:
        write_synthetic_mnist(Path(data_dir))
        for name, kind, params in reference_runs():
            spec = cli.ExperimentSpec(
                kind=kind, parameters=params, output_dir=out / name, seed=0,
                data_dir=data_dir if kind.startswith("train") else None)
            manifest = cli.run(spec)
            del manifest["wall_time_s"]
            manifest.pop("artifact_seconds", None)  # an older checkout writes none
            (spec.output_dir / cli.MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=2, default=str) + "\n")
            epochs_csv = spec.output_dir / "train_epochs.csv"
            if epochs_csv.is_file():
                drop_column(epochs_csv, "seconds")
            print(f"{name}: {manifest['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
