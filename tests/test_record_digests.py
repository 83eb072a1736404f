"""The digest recorder .github/scripts/record_digests.py, run on stubbed digest functions."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "record_digests.py"
_spec = importlib.util.spec_from_file_location("record_digests", SCRIPT)
record_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_digests)

# What the stubs return for every config, in place of running a study.
CSV = {"metrics.csv": "c1", "pattern_mvdr.csv": "c2"}
SOLVE = {"1/mvdr": "s2", "0/mvdr": "s1"}


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    """The script with stub digests and its two data files under tmp_path."""
    monkeypatch.setattr(record_digests, "csv_digests", lambda name, output_dir: dict(CSV))
    monkeypatch.setattr(record_digests, "solve_digests", lambda name, output_dir: dict(SOLVE))
    monkeypatch.setattr(record_digests, "CLI_DIGESTS", tmp_path / "cli_digests.json")
    monkeypatch.setattr(record_digests, "SOLVE_DIGESTS", tmp_path / "solve_digests.json")
    return record_digests


def _committed(digests: dict) -> str:
    """A digest file in its committed format: indent 2, sorted keys, trailing newline."""
    return json.dumps({name: digests for name in ("fig1", "fig2", "wide")}, indent=2, sort_keys=True) + "\n"


def test_writes_both_files_in_the_committed_format(recorder, capsys):
    recorder.main()
    assert recorder.CLI_DIGESTS.read_text(encoding="utf-8") == _committed(CSV)
    assert recorder.SOLVE_DIGESTS.read_text(encoding="utf-8") == _committed(SOLVE)
    out = capsys.readouterr().out
    assert "cli_digests.json: 6 changed" in out and "fig2 metrics.csv: - -> c1" in out


def test_prints_each_changed_key_with_its_old_and_new_digest(recorder, capsys):
    recorder.CLI_DIGESTS.write_text(_committed(CSV), encoding="utf-8")
    stale = json.loads(_committed(SOLVE))
    stale["wide"]["1/mvdr"] = "old"
    stale["wide"]["2/mvdr"] = "gone"
    recorder.SOLVE_DIGESTS.write_text(json.dumps(stale), encoding="utf-8")
    recorder.main()
    assert capsys.readouterr().out.splitlines() == [
        "cli_digests.json: 0 changed",
        "solve_digests.json: 2 changed",
        "wide 1/mvdr: old -> s2",
        "wide 2/mvdr: gone -> -",
    ]
    assert recorder.SOLVE_DIGESTS.read_text(encoding="utf-8") == _committed(SOLVE)

