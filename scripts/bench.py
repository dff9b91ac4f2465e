#!/usr/bin/env python3
"""Run the benchmark over several seeds into BENCH_<label>.json files.

For each workload this runs the unchanged ``perfbench/run.py --trace 0``
once per seed, then one ``--trace 1`` run on each of the first three seeds,
one run at a time. The file holds each end-to-end metric's median and
quartiles over the untraced runs and each per-layer metric's over the traced
runs (and every run's value), the ``details`` record of the runs (nproc,
BLAS build, thread variables and the steal share of each run), the git
commit of the checkout measured and whether its tree had uncommitted changes
(``dirty``). A checkout without a commit is refused. One traced run drifts
by more than a 10-20% per-layer saving, so the per-layer figures are
medians too.

With ``--parent CHECKOUT`` each run of the measured checkout is paired with
the same run of CHECKOUT, the two back to back and the side that goes first
switching from one run to the next, traced runs included, so machine drift
over the session falls on both sides alike. CHECKOUT's file is
BENCH_<label>_parent.json. The measured checkout's file then also holds,
under ``paired`` for each workload and its traced runs, each metric's
per-seed ratio measured/CHECKOUT, that ratio's median and quartiles, the
runs where the measured side was better (``wins``, by the metric's
``better`` in BENCHMARK.json), worse and tied, and the two-sided sign-test
p-value of the wins against the losses (ties left out).

    python3 scripts/bench.py --label baseline --seeds 11 12 13 14 15
    python3 scripts/bench.py --label change --checkout ../other-copy --seconds 30
    python3 scripts/bench.py --label change --parent ../parent-copy --seconds 10
    python3 scripts/bench.py --label claim --parent ../parent-copy \\
        --workloads synth-phrases --seeds 51 52 53 54 55 56 57 58 59 60
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-desk", "synth-phrases", "synth-verse")
# traced runs per side and workload, on the first seeds
TRACED_SEEDS = 3


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run: its ``details`` record and its result."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so one run is its own
    quartiles), plus the values themselves in run order."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``: twice the
    binomial(n, 1/2) tail at the smaller count, at most 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def paired_summaries(parent: list, change: list, better: dict) -> dict:
    """Each metric's paired statistics over runs matched by position (by
    seed): ratio change/parent (pairs whose parent value is 0 left out),
    wins, losses, ties and the sign test's p; with no known direction,
    ratios only."""
    out = {}
    for name in change[0][1]["metrics"]:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for (_, p), (_, c) in zip(parent, change)]
        ratios = [c / p for p, c in pairs if p]
        record = {"ratio": summary(ratios) if ratios else None}
        if better.get(name) in ("lower", "higher"):
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in pairs)
            losses = sum(sign * (c - p) < 0 for p, c in pairs)
            record.update(better=better[name], wins=wins, losses=losses,
                          ties=len(pairs) - wins - losses,
                          sign_test_p=sign_test_p(wins, losses))
        out[name] = record
    return out


def git_state(checkout: Path) -> tuple[str, bool]:
    """The checkout's commit and whether its tree differs from it; exits
    when the checkout has no commit to name."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    if head.returncode != 0 or not head.stdout.strip():
        sys.exit(f"bench: {checkout} is not a git checkout with a commit "
                 f"(git rev-parse HEAD: {head.stderr.strip()})")
    status = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                            capture_output=True, text=True, check=True)
    return head.stdout.strip(), bool(status.stdout.strip())


def paired_runs(checkouts: list[Path], workload: str, seeds: list[int],
                seconds: int) -> list[tuple[list, list]]:
    """Each checkout's untraced runs (one per seed) and its traced runs (one
    per seed of the first ``TRACED_SEEDS``); with several checkouts, the
    order they run in rotates from one run to the next."""
    runs = [[] for _ in checkouts]
    traced = [[] for _ in checkouts]
    for n, seed in enumerate([*seeds, *seeds[:TRACED_SEEDS]]):
        trace = int(n >= len(seeds))
        for j in range(len(checkouts)):
            side = (j + n) % len(checkouts)
            details, result = run_once(checkouts[side], workload, seed,
                                       seconds, trace)
            p50 = ("traced" if trace else
                   f"p50 {result['metrics']['latency_ms_p50']['value']:.2f} ms")
            print(f"{checkouts[side]} {workload} seed {seed}: {p50}, "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
            (traced if trace else runs)[side].append((details, result))
    return list(zip(runs, traced))


def metric_summaries(runs: list) -> dict:
    """Each metric's unit, median and quartiles over the runs."""
    return {name: {"unit": metric["unit"],
                   **summary([r["metrics"][name]["value"] for _, r in runs])}
            for name, metric in runs[0][1]["metrics"].items()}


def workload_record(runs: list, traced: list, seeds: list[int]) -> dict:
    """One checkout's record of one workload: the end-to-end summaries of
    its untraced runs and the per-layer summaries of its traced runs."""
    return {
        "metrics": metric_summaries(runs),
        "attempted": [r["attempted"] for _, r in runs],
        "failed": [r["failed"] for _, r in runs],
        "details": {
            "environment": runs[0][0]["environment"],
            "cpu_steal_share": [d["cpu_steal_share"] for d, _ in runs],
            "latency_samples": [d["latency_samples"] for d, _ in runs],
        },
        "trace": {
            "seeds": seeds,
            "attempted": [r["attempted"] for _, r in traced],
            "failed": [r["failed"] for _, r in traced],
            "metrics": metric_summaries(traced),
            "details": [{key: d[key] for key in d if key not in
                         ("environment", "bases", "spans_file")}
                        for d, _ in traced],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[11, 12, 13, 14, 15])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout to measure (default: this one)")
    parser.add_argument("--parent", type=Path, default=None,
                        help="checkout to measure in alternation with it, "
                             "into BENCH_<label>_parent.json")
    args = parser.parse_args(argv)

    labels = {args.label: args.checkout.resolve()}
    if args.parent is not None:
        labels = {f"{args.label}_parent": args.parent.resolve(), **labels}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}
    records = {}
    for label, path in labels.items():
        commit, dirty = git_state(path)
        records[label] = {"label": label, "commit": commit, "dirty": dirty,
                          "command": "perfbench/run.py",
                          "seconds": args.seconds, "seeds": args.seeds,
                          "workloads": {}}
    for workload in args.workloads:
        sides = paired_runs(list(labels.values()), workload, args.seeds,
                            args.seconds)
        for label, (runs, traced) in zip(labels, sides):
            records[label]["workloads"][workload] = workload_record(
                runs, traced, args.seeds[:TRACED_SEEDS])
        if args.parent is not None:
            (parent_runs, parent_traced), (runs, traced) = sides
            record = records[args.label]["workloads"][workload]
            record["paired"] = paired_summaries(parent_runs, runs, better)
            record["trace"]["paired"] = paired_summaries(parent_traced, traced,
                                                         better)
    for label, record in records.items():
        out = ROOT / f"BENCH_{label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
