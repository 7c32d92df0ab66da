"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py RUNS_DIR              # one set: medians, quartiles, spreads
    python3 perfbench/compare.py BASE_DIR CHANGE_DIR   # two sets: one row per (workload, metric)

A directory holds the run records that perfbench/run.py writes to
perfbench/out/runs/ (copy them elsewhere to keep a set).  Untraced
records give the end-to-end rows; traced records give the tracing
overhead.  Bounds and directions come from BENCHMARK.json.

In a comparison, runs pair up by seed.  Failures are compared first,
exactly: pass_share is "worse" if the change's fail share (failed over
attempted) is higher than the base's for any seed (or, without shared
seeds, if its median is higher), "improved" if it is lower for some seed
and higher for none, and "unchanged" otherwise.  A timing or memory
metric is "improved" when the change wins at least nine tenths of the
pairs and the medians differ by more than the base set's quartile
distance, "worse" when the change's median is worse than the base
median by more than the bound, "unresolved" when either set's quartile
spread is wider than the bound (unless every run of the change is better
than every run of the base), and "unchanged" otherwise.  A change with
more failures is never "improved" on any metric: that verdict becomes
"unresolved".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict:
    """{(workload, trace): {seed: record}} for the full-size runs in a directory."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("tiny"):
            continue
        out.setdefault((rec["workload"], bool(rec["trace"])), {})[rec["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def metric_values(records: dict, name: str) -> dict:
    return {seed: rec["result"]["metrics"][name]["value"] for seed, rec in records.items()}


def fail_shares(records: dict) -> dict:
    return {seed: rec["result"]["failed"] / rec["result"]["attempted"] for seed, rec in records.items()}


def failure_verdict(base: dict, change: dict) -> tuple[str, int, int]:
    """Fail shares compared exactly, seed by seed; any rise is worse."""
    seeds = sorted(set(base) & set(change))
    if seeds:
        rises = sum(1 for s in seeds if change[s] > base[s])
        falls = sum(1 for s in seeds if change[s] < base[s])
    else:
        ma, mb = statistics.median(base.values()), statistics.median(change.values())
        rises, falls = int(mb > ma), int(mb < ma)
    word = "worse" if rises else "improved" if falls else "unchanged"
    return word, falls, len(seeds)


def verdict(base: dict, change: dict, bound: float, better: str) -> tuple[str, int, int]:
    sign = 1.0 if better == "lower" else -1.0
    a, b = list(base.values()), list(change.values())
    qa, qb = quartiles(a), quartiles(b)
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) < 0)
    if seeds and wins >= 0.9 * len(seeds) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "improved", wins, len(seeds)
    if max(spread(a), spread(b)) > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("improved" if all_better else "unresolved"), wins, len(seeds)
    if sign * (qb[1] - qa[1]) / abs(qa[1]) > bound:
        return "worse", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def _q(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def summarise(runs: dict, spec: dict) -> None:
    print(f"{'workload':<20} {'metric':<12} {'n':>3} {'median [q1, q3]':<36} {'spread':>8} {'bound':>6}")
    for workload in [w["name"] for w in spec["workloads"]]:
        records = runs.get((workload, False), {})
        if not records:
            continue
        for m in spec["end_to_end"]:
            vals = list(metric_values(records, m["name"]).values())
            flag = "" if spread(vals) <= m["bound"] / 3 else "  > bound/3"
            print(f"{workload:<20} {m['name']:<12} {len(vals):>3} {_q(vals):<36} {spread(vals):>8.4f} {m['bound']:>6}{flag}")
        shares = [rec["fail_share"] for rec in records.values()]
        tails = sorted({f"p{rec['tail_percentile']:.1f} of {rec['operations']}" for rec in records.values()})
        print(f"{workload:<20} fail_share   {len(shares):>3} {_q(shares):<36}  tail: {', '.join(tails)}")
    for workload in [w["name"] for w in spec["workloads"]]:
        traced = runs.get((workload, True), {})
        if traced:
            over = list(metric_values(traced, "trace.overhead_s").values())
            run = list(metric_values(traced, "trace.untraced_run_s").values())
            print(f"{workload:<20} tracing overhead {_q(over)} s on an untraced pass of {_q(run)} s ({len(over)} runs)")


def compare(base: dict, change: dict, spec: dict) -> None:
    print(f"{'workload':<20} {'metric':<12} {'base median [q1, q3]':<34} {'change median [q1, q3]':<34} {'wins':>7} {'delta':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a_recs, b_recs = base.get((workload, False), {}), change.get((workload, False), {})
        if not a_recs or not b_recs:
            print(f"{workload:<20} (missing in {'base' if not a_recs else 'change'})")
            continue
        failures = failure_verdict(fail_shares(a_recs), fail_shares(b_recs))
        for m in spec["end_to_end"]:
            a, b = metric_values(a_recs, m["name"]), metric_values(b_recs, m["name"])
            if m["name"] == "pass_share":
                word, wins, pairs = failures
            else:
                word, wins, pairs = verdict(a, b, m["bound"], m["better"])
                if word == "improved" and failures[0] == "worse":
                    word = "unresolved"
            ma, mb = quartiles(list(a.values()))[1], quartiles(list(b.values()))[1]
            delta = (mb - ma) / abs(ma)
            print(f"{workload:<20} {m['name']:<12} {_q(list(a.values())):<34} {_q(list(b.values())):<34} "
                  f"{wins:>3}/{pairs:<3} {delta:>+8.2%}  {word}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load_runs(Path(a)) for a in argv]
    if len(sets) == 1:
        summarise(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
