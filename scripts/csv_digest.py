"""Digest the CSVs of every bundled scenario, run short, at two worker counts.

Runs each ``scripts/scenarios/*.json`` with ``trials`` cut to 2 (snapshots,
SNR points and roster kept) through ``rabsim simulate`` at ``--threads 1``
and ``--threads 2``, and prints one ``scenario threads sha256`` line per CSV.
The rabsim package is the one found on the import path, so two checkouts can
be compared by diffing the output of

    PYTHONPATH=<checkout>/src python3 scripts/csv_digest.py

run once per checkout.  Exits 1 if a scenario's two worker counts give
different bytes (the determinism contract), otherwise with the status of the
first failing ``simulate`` run, or 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent / "scenarios"
TRIALS = 2
THREADS = (1, 2)


def cut_configs(directory: Path) -> list:
    """Write each bundled scenario, ``trials`` cut to ``TRIALS``, into
    ``directory``; return the paths in name order."""
    configs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["trials"] = TRIALS
        config = Path(directory) / path.name
        config.write_text(json.dumps(doc), encoding="utf-8")
        configs.append(config)
    return configs


def main() -> int:
    # Imported here: csv_rowdiff.py imports this module without a rabsim on
    # its path.
    from rabsim.cli import main as rabsim_main

    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in cut_configs(Path(tmp)):
            digests = set()
            for threads in THREADS:
                out = Path(tmp) / f"{config.stem}-{threads}.csv"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = rabsim_main(["simulate", "--config", str(config),
                                        "--out", str(out),
                                        "--threads", str(threads)])
                if code:
                    print(f"{config.stem} {threads} exit-{code}", flush=True)
                    status = status or code
                    continue
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                digests.add(digest)
                print(f"{config.stem} {threads} {digest}", flush=True)
            if len(digests) > 1:
                print(f"error: {config.stem}: --threads {THREADS[0]} and "
                      f"{THREADS[1]} wrote different bytes", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
