"""Compare the CSVs two checkouts write for the bundled scenarios, row by row.

Runs the scenarios of ``csv_digest.py`` (``trials`` cut to 2, one worker)
through ``python3 -m rabsim.cli simulate`` with each checkout's ``src`` on
the import path, and prints one line per (scenario, algorithm): the rows
compared, the rows whose bytes differ, and the largest |delta mean SINR| (dB)
and |delta steering MSE| over those rows.  Usage:

    python3 scripts/csv_rowdiff.py OLD_CHECKOUT NEW_CHECKOUT

Exits 0 when both checkouts wrote every CSV with the same (algorithm, x)
rows, whatever the values; 1 when a run failed or the rows differ.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from csv_digest import cut_configs

HEADER = "algorithm,x_kind,x_value,mean_sinr_db,mean_steering_mse,trials"


def _simulate(checkout: Path, config: Path, out: Path) -> str | None:
    """The CSV text ``checkout`` writes for ``config``; None if the run failed."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    res = subprocess.run([sys.executable, "-m", "rabsim.cli", "simulate",
                          "--config", str(config), "--out", str(out)],
                         env=env, capture_output=True, text=True, check=False)
    if res.returncode:
        print(f"error: {checkout}: {config.stem} exited {res.returncode}: "
              f"{res.stderr.strip()}", file=sys.stderr)
        return None
    return out.read_text(encoding="utf-8")


def _rows(text: str) -> dict:
    """``(algorithm, x) -> (line, mean SINR, MSE)``, in file order."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = {}
    for line in lines[1:]:
        algorithm, _, x, sinr, mse, _ = line.split(",")
        rows[algorithm, x] = (line, float(sinr), float(mse))
    return rows


def diff(old: str, new: str) -> dict | None:
    """``algorithm -> [rows, changed, max |dSINR|, max |dMSE|]``, or None
    when the two CSVs do not hold the same rows."""
    old_rows, new_rows = _rows(old), _rows(new)
    if list(old_rows) != list(new_rows):
        return None
    table = defaultdict(lambda: [0, 0, 0.0, 0.0])
    for key, (line, sinr, mse) in new_rows.items():
        old_line, old_sinr, old_mse = old_rows[key]
        entry = table[key[0]]
        entry[0] += 1
        if line != old_line:
            entry[1] += 1
            entry[2] = max(entry[2], abs(sinr - old_sinr))
            entry[3] = max(entry[3], abs(mse - old_mse))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout of the old code")
    parser.add_argument("new", type=Path, help="checkout of the new code")
    args = parser.parse_args(argv)

    status = 0
    print(f"{'scenario':<26} {'algorithm':<11} {'rows':>5} {'changed':>7} "
          f"{'max|dSINR| dB':>13} {'max|dMSE|':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        for config in cut_configs(Path(tmp)):
            texts = [_simulate(checkout, config, Path(tmp) / f"{config.stem}-{i}.csv")
                     for i, checkout in enumerate((args.old, args.new))]
            if None in texts:
                status = 1
                continue
            table = diff(*texts)
            if table is None:
                print(f"error: {config.stem}: the checkouts wrote different rows",
                      file=sys.stderr)
                status = 1
                continue
            for algorithm, (rows, changed, d_sinr, d_mse) in sorted(table.items()):
                print(f"{config.stem:<26} {algorithm:<11} {rows:>5} {changed:>7} "
                      f"{d_sinr:>13.3g} {d_mse:>10.3g}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
