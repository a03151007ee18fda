"""Tests for the paper-table command (``python -m repro.harness.tables``),
its registry, EXPERIMENTS.md and the streaming demo job."""
import importlib.util
from pathlib import Path

import pandas as pd
import pytest

from repro.harness import tables
from repro.harness.config import BENCH, TEST
from repro.harness.experiments import build_experiments
from repro.harness.reporting import save_table
from repro.harness.tables import TABLES, run_tables

ROOT = Path(__file__).parent.parent
JOBS = [ROOT / "jobs" / "streaming_demo.py"]


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.stem)
def test_job_importable_with_main(path):
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert callable(mod.main)


def test_cli_config_override(monkeypatch, tmp_path):
    seen = {}
    monkeypatch.setattr(tables, "run_tables", lambda ids, cfg: seen.update(ids=ids, cfg=cfg))
    monkeypatch.setattr(tables, "ROOT", tmp_path)
    (tmp_path / "pyproject.toml").touch()
    tables.main(["table03", "--scale", "0.11", "--n-runs", "4"])
    assert seen["ids"] == ["table03"]
    assert seen["cfg"] == BENCH.with_(scale=0.11, n_runs=4)
    assert (tmp_path / "EXPERIMENTS.md").read_text() == (ROOT / "EXPERIMENTS.md").read_text()
    assert tables.parse_args(["all"])[0] == list(TABLES)


def test_cli_needs_source_checkout(monkeypatch, tmp_path):
    monkeypatch.setattr(tables, "run_tables", lambda ids, cfg: pytest.fail("ran tables"))
    monkeypatch.setattr(tables, "ROOT", tmp_path)
    with pytest.raises(SystemExit, match="pip install -e"):
        tables.main(["table01"])


def test_cli_unknown_id_lists_valid_ids(capsys):
    with pytest.raises(SystemExit) as exc:
        tables.parse_args(["table14"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "table14" in err
    assert all(tid in err for tid in TABLES)


def test_table01_job_runs(tmp_path, capsys):
    run_tables(["table01"], TEST.with_(scale=0.03), results_dir=tmp_path)
    assert "[table01]" in capsys.readouterr().out
    assert (tmp_path / "table01_tidy.json").exists()
    title = (tmp_path / "table01_tidy.md").read_text().splitlines()[0]
    assert title == f"# {TABLES['table01'].title} (tidy)"


def test_registry_matches_committed_results():
    assert list(TABLES) == [f"table{i:02d}" for i in range(1, 14)]
    for tid, table in TABLES.items():
        for suffix in ("json", "md"):
            committed = sorted(p.stem for p in (ROOT / "results").glob(f"{tid}_*.{suffix}"))
            assert committed == sorted(table.artifacts(tid)), tid


def test_experiments_md_matches_results():
    text = build_experiments(TABLES, ROOT / "results")
    assert text == (ROOT / "EXPERIMENTS.md").read_text()


def test_experiments_md_states_n_runs_of_results(tmp_path):
    save_table(pd.DataFrame({"graph": ["cit-PT"], "label": ["WSD-H"], "n_runs": [5]}),
               "table03_tidy", tmp_path)
    text = build_experiments(TABLES, tmp_path)
    assert "are means over 5 sampling repetitions" in text
    assert "written for 12-run results; these results have 5 runs" in text
