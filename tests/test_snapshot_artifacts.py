"""tools/snapshot_artifacts.py: the reference runs it covers and the tree it
writes."""

import json
from pathlib import Path

from pwmperc import cli

import snapshot_artifacts

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_reference_runs_cover_every_non_training_config():
    runs = list(snapshot_artifacts.reference_runs())
    names = [name for name, _, _ in runs]
    assert len(names) == len(set(names))
    configs = {p.stem for p in CONFIG_DIR.glob("*.yaml")
               if not snapshot_artifacts.config_kind(p.stem).startswith("train")}
    assert configs and configs <= set(names)
    assert all(not kind.startswith("train") for _, kind, _ in runs)


def test_main_writes_a_clean_manifest_per_run(tmp_path, capsys):
    assert snapshot_artifacts.main([str(tmp_path)]) == 0
    names = [name for name, _, _ in snapshot_artifacts.reference_runs()]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        manifest = json.loads((tmp_path / name / cli.MANIFEST_NAME).read_text())
        assert manifest["status"] == "ok", (name, manifest["error"])
        assert "wall_time_s" not in manifest
        for artifact in manifest["artifacts"]:
            assert (tmp_path / name / artifact).is_file()
