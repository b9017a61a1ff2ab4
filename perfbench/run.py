"""procsem's benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload spectrum-d2 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports procsem from ``src/``.  The
load is a closed loop: this process starts one worker at a time and waits
for it, and each worker issues one op at a time.  A round is one worker, a
fresh interpreter, so the program's process-global memo tables start empty
in every round; nothing is cleared in between and no interpreter or
garbage-collector setting is changed.  A run makes a fixed number of rounds
for its ``--seconds`` (see ``SECONDS_PER_ROUND``); each round draws its own
inputs from the seed and the round number.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` every round runs twice on the same inputs, untraced and
then traced, and the last line holds the per-layer metrics of the traced
runs plus ``trace.overhead_s``.  The lines before it are a report for
people, including the metrics that ``BENCHMARK.json`` does not bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import gen
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Work per round, per workload.
PARAMS = {
    "spectrum-d2": {"pairs": 5},
    "spectrum-d3": {"pairs": 7},
    "relations-d2": {"terms": 32, "explain_per_semantics": 10},
}
# A run makes --seconds / SECONDS_PER_ROUND rounds, so every run of a
# workload does the same work and takes its order statistics over the same
# number of ops; a round takes about this long on 2 CPUs at the commit that
# added the benchmark.  Many short rounds give the medians over rounds more
# samples of the host's speed, which changes every few seconds on a shared
# host.
SECONDS_PER_ROUND = {"spectrum-d2": 2.1, "spectrum-d3": 4.3, "relations-d2": 2.7}
MIN_SETUPS = 7  # set-ups per run, topped up by set-up-only workers
HARD_LIMIT_S = 170  # the whole run, set-up-only workers included, ends by then
EXIT_SETUP = 3  # the worker could not import procsem or parse its input


class SetupFailed(RuntimeError):
    pass


def run_worker(job: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its result (None if it died)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - perf_counter()))
            if proc.returncode == EXIT_SETUP or not ready:
                raise SetupFailed(f"worker set-up failed (exit {proc.returncode})")
            return setup, None
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, its value,
    and the number of samples beyond it.  With 10 samples or fewer there is
    none; the smallest sample stands in."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, ordered[k], n - 1 - k


def planned_ops(job: dict) -> int:
    """Ops a round would have made; those of a worker that died count as failed."""
    if "pairs" in job:
        return len(job["pairs"])
    return len(job["terms"]) ** 2 * len(worker.RELATE_IDS)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    params = PARAMS[workload]
    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    lost_rounds = lost_ops = 0
    first_job = None
    longest = 0.0
    rounds = max(1, round(seconds / SECONDS_PER_ROUND[workload]))
    for r in range(rounds):
        if r and perf_counter() + 2 * longest > deadline:
            break
        job = gen.make_round(workload, seed, r, params)
        job.update(src=str(SRC), trace=False)
        first_job = first_job or job
        t_round = perf_counter()
        setup, result = run_worker(job, deadline)
        setups.append(setup)
        if result is None:
            lost_rounds += 1
            lost_ops += planned_ops(job)
        else:
            result["round"] = r
            untraced.append(result)
            if trace:
                setup, traced_result = run_worker(dict(job, trace=True), deadline)
                setups.append(setup)
                if traced_result is not None:
                    traced.append((result, traced_result))
        longest = max(longest, perf_counter() - t_round)
    while len(setups) < MIN_SETUPS and perf_counter() + 5 < deadline:
        setups.append(run_worker(dict(first_job, setup_only=True), deadline)[0])
    if not untraced:
        raise SetupFailed("no round finished")

    ops = sum(u["ops"] for u in untraced)
    latencies = [x for u in untraced for x in u["latencies"]]
    tail_pct, tail_s, beyond = tail(latencies)
    cells = sum(u["cells"] for u in untraced)
    summary = {
        "rounds": len(untraced),
        "lost_rounds": lost_rounds,
        "ops": ops,
        "failed": sum(u["failed"] for u in untraced) + lost_ops,
        "attempted": ops + lost_ops,
        "failures": dict(sum((Counter(u["failures"]) for u in untraced), Counter())),
        "wrong": sum(u["wrong"] for u in untraced),
        "checked": sum(u["checked"] for u in untraced),
        "cells": cells,
        "cap_cells": sum(u["cap_cells"] for u in untraced),
        "digest": (untraced[0]["round"], untraced[0]["digest"]),
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        "e2e": {
            "setup_s": statistics.median(setups),
            "round_norm_s": statistics.median(u["norm_s"] for u in untraced),
            "ops_per_norm_s": statistics.median(u["ops"] / u["norm_s"] for u in untraced),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in untraced),
        },
        "op_p50_cpu_ms": 1000 * statistics.median(latencies),
        "op_tail_cpu_ms": 1000 * tail_s,
        "round_cpu_s": statistics.median(u["cpu_s"] for u in untraced),
        "round_wall_s": statistics.median(u["wall_s"] for u in untraced),
        "slice_ms": 1000 * statistics.median(u["slice_s"] for u in untraced),
        "setups": len(setups),
    }
    if trace:
        if not traced:
            raise SetupFailed("no traced round finished")
        layers = {}
        for name in traced[0][1]["layers"]:
            layers[name] = statistics.median(t["layers"][name] for _, t in traced)
        layers["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in traced)
        summary["layers"] = layers
        summary["traced_rounds"] = len(traced)
        summary["traced_digests_match"] = all(t["digest"] == u["digest"] for u, t in traced)
    return summary


UNITS = {
    "setup_s": "s",
    "round_norm_s": "s",
    "ops_per_norm_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name == "preorders.decide.calls":
        return "calls/op"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def report(workload: str, seed: int, s: dict, trace: bool) -> dict:
    failed_share = s["failed"] / s["attempted"]
    undecided_share = s["cap_cells"] / s["cells"] if s["cells"] else 0.0
    e2e = s["e2e"]
    lines = [
        f"workload {workload}  seed {seed}  rounds {s['rounds']} (lost {s['lost_rounds']})  "
        f"ops {s['ops']}  set-ups {s['setups']}",
    ]
    for name, value in e2e.items():
        lines.append(f"  {name:<16} {value:>14.6g} {UNITS[name]:<6}")
    lines.append(f"  {'round_cpu_s':<16} {s['round_cpu_s']:>14.6g} {'s':<6}  median CPU time of a round's ops")
    lines.append(f"  {'round_wall_s':<16} {s['round_wall_s']:>14.6g} {'s':<6}  median wall-clock time of a round's timed phase")
    lines.append(f"  {'slice_ms':<16} {s['slice_ms']:>14.6g} {'ms':<6}  median CPU time of a reference slice")
    lines.append(f"  {'op_p50_cpu_ms':<16} {s['op_p50_cpu_ms']:>14.6g} {'ms':<6}  median of {s['ops']} ops")
    lines.append(
        f"  {'op_tail_cpu_ms':<16} {s['op_tail_cpu_ms']:>14.6g} {'ms':<6}  "
        f"p{s['tail_pct']:.3f} of {s['ops']} ops, {s['tail_beyond']} beyond"
    )
    lines.append(f"  {'failed_share':<16} {failed_share:>14.6g} {'ratio':<6}  {s['failed']} of {s['attempted']} ops raised {s['failures']}")
    lines.append(f"  {'undecided_share':<16} {undecided_share:>14.6g} {'ratio':<6}  {s['cap_cells']} of {s['cells']} cells hit a cap")
    lines.append(f"  {'wrong_verdicts':<16} {s['wrong']:>14d} {'count':<6}  of {s['checked']} oracle checks")
    lines.append("  verdict digest, round {}: {}".format(*s["digest"]))
    if trace:
        lines.append(f"  traced rounds {s['traced_rounds']}, verdicts equal to untraced: {s['traced_digests_match']}")
        for name, value in s["layers"].items():
            lines.append(f"  {name:<40} {value:>14.6g} {layer_unit(name)}")
    print("\n".join(lines))
    correct = s["wrong"] == 0 and s.get("traced_digests_match", True)
    if trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in s["layers"].items()}
        shown = {
            "round_cpu_s": s["round_cpu_s"],
            "slice_ms": s["slice_ms"],
            "op_p50_cpu_ms": s["op_p50_cpu_ms"],
            "op_tail_cpu_ms": s["op_tail_cpu_ms"],
            "failed_share": failed_share,
            "undecided_share": undecided_share,
        }
        for name, value in shown.items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    else:
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in e2e.items()}
    return {"correct": correct, "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "procsem" / "__init__.py").is_file():
        print(f"no procsem sources under {SRC}", file=sys.stderr)
        return 1
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, summary, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
