"""Snapshot the artifacts of every non-MNIST reference run into one tree.

    PYTHONPATH=src python tools/snapshot_artifacts.py OUT

Runs, through ``cli.run`` with seed 0, every non-MNIST config in the
``configs/`` directory of the checkout that holds the imported package, the
vac-table at the small and large presets, and fixed-points. Each run writes
into ``OUT/<name>/``. ``wall_time_s`` is dropped from every manifest, so two
snapshots of code that behaves alike are byte-identical trees
(``diff -rq``). A failed run is snapshotted too: its manifest holds the
error. To snapshot another checkout, put its ``src`` on PYTHONPATH instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import yaml

from pwmperc import cli

ROOT = Path(cli.__file__).resolve().parents[2]


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
        if not kind.startswith("train"):
            yield path.stem, kind, yaml.safe_load(path.read_text())
    for preset in ("small", "large"):
        yield f"vac_table_{preset}", "vac-table", {"preset": preset}
    yield "fixed_points", "fixed-points", {}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(args[0])
    for name, kind, params in reference_runs():
        spec = cli.ExperimentSpec(kind=kind, parameters=params,
                                  output_dir=out / name, seed=0)
        manifest = cli.run(spec)
        del manifest["wall_time_s"]
        (spec.output_dir / cli.MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, default=str) + "\n")
        print(f"{name}: {manifest['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
