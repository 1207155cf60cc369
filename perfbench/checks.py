"""Output checks on the CSVs that ``rabsim simulate`` writes.

A CSV is accepted when it has the documented header, exactly one row per
(algorithm, x point) of its scenario, finite SINR and MSE values, the full
configured trial count in every row, and no algorithm whose mean SINR beats
the clairvoyant ``optimal`` row (the optimum bounds every weight vector's
SINR at each snapshot, so it bounds the means too).  Default-seed CSVs are
also compared row by row with the reference CSVs recorded in
``perfbench/reference``.
"""

from __future__ import annotations

import math

HEADER = "algorithm,x_kind,x_value,mean_sinr_db,mean_steering_mse,trials"
# Row tolerance against the reference: |delta mean SINR| in dB, and relative
# (plus absolute, for the optimal row's exact zero) tolerance on the MSE.
SINR_TOL_DB = 1e-3
MSE_RTOL = 1e-3
MSE_ATOL = 1e-12
# Round-off allowance for the optimal-SINR bound.
OPTIMAL_SLACK_DB = 1e-9


def parse(text: str) -> list:
    """Rows as dicts; raises ValueError on a malformed file."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = []
    for line in lines[1:]:
        algorithm, x_kind, x_value, sinr, mse, trials = line.split(",")
        rows.append({"algorithm": algorithm, "x_kind": x_kind, "x": x_value,
                     "sinr": float(sinr), "mse": float(mse), "trials": int(trials)})
    return rows


def _names(doc: dict) -> list:
    return [a if isinstance(a, str) else a["name"] for a in doc["algorithms"]]


def expected_points(doc: dict) -> list:
    if isinstance(doc["snr_db"], list):
        return [repr(float(v)) for v in doc["snr_db"]]
    return [str(i) for i in range(1, doc["snapshots"] + 1)]


def check(text: str, doc: dict) -> list:
    """Problems found in one CSV written for scenario ``doc``."""
    try:
        rows = parse(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    keys = [(r["algorithm"], r["x"]) for r in rows]
    expected = [(a, x) for a in sorted(_names(doc)) for x in expected_points(doc)]
    if keys != expected:
        problems.append(f"rows do not match the scenario ({len(keys)} rows, "
                        f"{len(expected)} expected)")
    for r in rows:
        where = f"{r['algorithm']} at x={r['x']}"
        if not (math.isfinite(r["sinr"]) and math.isfinite(r["mse"])):
            problems.append(f"non-finite value for {where}")
        if r["trials"] != doc["trials"]:
            problems.append(f"{where} has {r['trials']} of {doc['trials']} trials")
    optimal = {r["x"]: r["sinr"] for r in rows if r["algorithm"] == "optimal"}
    for r in rows:
        bound = optimal.get(r["x"])
        if bound is not None and r["sinr"] > bound + OPTIMAL_SLACK_DB:
            problems.append(f"{r['algorithm']} at x={r['x']} beats the optimum "
                            f"({r['sinr']!r} > {bound!r} dB)")
    return problems


def compare(text: str, reference: str) -> tuple:
    """``(max |delta mean SINR| in dB, problems)`` against a reference CSV."""
    rows, ref = parse(text), parse(reference)
    if [(r["algorithm"], r["x"]) for r in rows] != [(r["algorithm"], r["x"]) for r in ref]:
        return math.inf, ["rows differ from the reference"]
    drift, problems = 0.0, []
    for r, q in zip(rows, ref):
        d_sinr = abs(r["sinr"] - q["sinr"])
        drift = max(drift, d_sinr)
        where = f"{r['algorithm']} at x={r['x']}"
        if not d_sinr <= SINR_TOL_DB:
            problems.append(f"{where}: mean SINR off the reference by {d_sinr!r} dB")
        if not abs(r["mse"] - q["mse"]) <= MSE_RTOL * abs(q["mse"]) + MSE_ATOL:
            problems.append(f"{where}: steering MSE {r['mse']!r} vs reference {q['mse']!r}")
        if r["trials"] != q["trials"]:
            problems.append(f"{where}: {r['trials']} trials vs reference {q['trials']}")
    return drift, problems


def trial_counts(text, doc: dict) -> tuple:
    """``(attempted, failed)`` (algorithm, trial, SNR point) runs in one CSV.

    A snapshot-trace CSV repeats each algorithm's trial count on every row,
    so it is counted once per algorithm; a sweep counts once per point.  A
    ``text`` of None stands for a run that wrote no CSV: nothing succeeded.
    """
    points = expected_points(doc) if isinstance(doc["snr_db"], list) else ["1"]
    attempted = len(_names(doc)) * len(points) * doc["trials"]
    if text is None:
        return attempted, attempted
    rows = [r for r in parse(text) if r["x"] in points]
    return attempted, attempted - sum(r["trials"] for r in rows)
