"""The checkout-comparison scripts under ``scripts/``."""

import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCENARIO_FILES = sorted((SCRIPTS / "scenarios").glob("*.json"))
HEADER = "algorithm,x_kind,x_value,mean_sinr_db,mean_steering_mse,trials"


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import csv_digest
    import csv_rowdiff
    return csv_digest, csv_rowdiff


def _csv(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


def test_cut_configs_keep_the_scenarios_but_the_trial_count(scripts, tmp_path):
    csv_digest, _ = scripts
    configs = csv_digest.cut_configs(tmp_path)
    assert [c.name for c in configs] == [p.name for p in SCENARIO_FILES]
    for cut, path in zip(configs, SCENARIO_FILES):
        want = json.loads(path.read_text(encoding="utf-8"))
        want["trials"] = csv_digest.TRIALS
        assert json.loads(cut.read_text(encoding="utf-8")) == want


def test_rowdiff_counts_changed_rows_and_their_largest_deltas(scripts):
    _, csv_rowdiff = scripts
    old = _csv("okspme,snr_db,0.0,10.0,0.5,2", "okspme,snr_db,5.0,12.0,0.25,2",
               "smi,snr_db,0.0,8.0,0.125,2", "smi,snr_db,5.0,9.0,0.125,2")
    new = _csv("okspme,snr_db,0.0,10.0,0.5,2", "okspme,snr_db,5.0,12.0,0.25,2",
               "smi,snr_db,0.0,8.5,0.125,2", "smi,snr_db,5.0,9.25,0.0625,2")
    table = csv_rowdiff.diff(old, new)
    assert table == {"okspme": [2, 0, 0.0, 0.0], "smi": [2, 2, 0.5, 0.0625]}


def test_rowdiff_rejects_csvs_with_other_rows(scripts):
    _, csv_rowdiff = scripts
    old = _csv("okspme,snr_db,0.0,10.0,0.5,2")
    assert csv_rowdiff.diff(old, _csv("smi,snr_db,0.0,10.0,0.5,2")) is None
    assert csv_rowdiff.diff(old, _csv()) is None
