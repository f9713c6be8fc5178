"""The prefetching simulator's benchmark.

Runs one workload for ``--seconds`` seconds of host time and prints its
metrics by name, with units.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0``  end-to-end metrics.  Each measured run is a freshly forked
               process (``worker.py``), so peak memory is per run; runs
               cycle through three inputs derived from ``--seed`` until
               ``--seconds`` have passed, and each value is the mean over
               the inputs of the median over that input's runs.  Times are
               speed-corrected (see ``worker.run_sliced``).
``--trace 1``  per-layer metrics from one traced run, next to an untraced
               run, a run split into quarters and, on ``parallel-tier``,
               the serial twin and the shard dispatch time.

Every run's simulated outputs are checked (``outputs.py``) and
fingerprinted; runs of one input must have equal digests.  A run that raises, breaks a check or disagrees on the digest is
counted in ``failed``.

Usage::

    python3 perfbench/run.py --workload paper-proxy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20    # every workload, both modes
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import select
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("paper-proxy", "prefetch-overload", "coop-fleet", "parallel-tier")

END_TO_END = {"setup_s": "s", "us_per_request": "us", "peak_rss_mb": "MB"}

PER_LAYER = {
    "des.self_s": "s",
    "des.queue_len_mean": "events",
    "link.fetch_calls": "count",
    "link.fetch_us": "us",
    "link.active_jobs_mean": "jobs",
    "link.active_jobs_max": "jobs",
    "link.utilization": "ratio",
    "predict.calls": "count",
    "predict.us": "us",
    "predict.candidates_mean": "count",
    "plan.calls": "count",
    "plan.us": "us",
    "select.us": "us",
    "plan.selected_mean": "count",
    "prefetch.accuracy": "ratio",
    "access.us": "us",
    "estimator.us": "us",
    "cache.lookup_us": "us",
    "cache.insert_us": "us",
    "cache.hit_ratio": "ratio",
    "metrics.record_us": "us",
    "fetchtable.join_ratio": "ratio",
    "ring.lookup_us": "us",
    "coop.probe_hit_ratio": "ratio",
    "workload.draw_us": "us",
    "setup.partition_s": "s",
    "parallel.shards_s": "s",
    "parallel.merge_s": "s",
    "parallel.speedup": "x",
    "sim.us_per_request_q1": "us",
    "sim.us_per_request_q2": "us",
    "sim.us_per_request_q3": "us",
    "sim.us_per_request_q4": "us",
    "sim.cost_growth": "x",
    "share.des": "ratio",
    "share.link": "ratio",
    "share.plan": "ratio",
    "share.access": "ratio",
    "share.node": "ratio",
    "share.metrics": "ratio",
    "share.workload": "ratio",
    "share.ring": "ratio",
    "trace.accounted": "ratio",
    "trace.overhead": "x",
    "trace.prediction_ok": "bool",
    "host.ref_s": "s",
}

#: the layer each workload is predicted to spend most of its traced time in
PREDICTED = {
    "paper-proxy": "plan",
    "prefetch-overload": "link",
    "coop-fleet": "plan",
    "parallel-tier": "speedup",
}

MIN_RUNS = 6
INPUTS_PER_SEED = 3
WORKER_TIMEOUT_S = 150.0
#: an invocation must end well inside 180 s; no run starts past this
BUDGET_S = 165.0


def in_child(workload: str, seed: int, mode: str, **options) -> dict:
    """``worker.run_one`` in a freshly forked process; its record.

    The child gets its own process group, so a run that hangs is killed
    together with any pool workers it started.
    """
    from worker import run_one

    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # the child: one run, its record down the pipe, exit
        os.close(read_fd)
        os.setsid()
        try:
            payload = json.dumps(run_one(workload, seed, mode, **options))
        except BaseException:  # noqa: B036 - never unwind into the parent's code
            payload = json.dumps({"mode": mode, "seed": seed, "error": traceback.format_exc(limit=8)})
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(payload)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        ready, _, _ = select.select([pipe], [], [], WORKER_TIMEOUT_S)
        if not ready:
            os.killpg(pid, signal.SIGKILL)
        payload = pipe.read() if ready else ""
    os.waitpid(pid, 0)
    try:
        record = json.loads(payload)
    except ValueError:
        record = {"mode": mode, "seed": seed, "error": "timed out" if not ready else "no record"}
    record["wall_s"] = time.perf_counter() - start
    return record


def problems(record: dict) -> list[str]:
    """Why a run failed (empty for a sound run)."""
    found = []
    if record.get("error"):
        found.append(record["error"].strip().splitlines()[-1])
    found += record.get("violations", [])
    found += record.get("trace_problems", [])
    return found


def judge(records: list[dict]) -> tuple[list[dict], str | None]:
    """Mark failed runs: those with problems, and those whose digest differs
    from the most common one among runs of the same input seed."""
    common = {}
    for seed in {r["seed"] for r in records if "digest" in r}:
        digests = collections.Counter(
            r["digest"] for r in records if r.get("seed") == seed and "digest" in r)
        common[seed] = digests.most_common(1)[0][0]
    for record in records:
        found = problems(record)
        expected = common.get(record.get("seed"))
        if "digest" in record and record["digest"] != expected:
            found.append(f"digest {record['digest']} != {expected}")
        record["problems"] = found
    ok = [r for r in records if not r["problems"]]
    return ok, " ".join(common[seed] for seed in sorted(common)) or None


def input_seeds(seed: int) -> list[int]:
    """The simulation seeds of one invocation.

    A measured invocation cycles through ``INPUTS_PER_SEED`` inputs derived
    from ``--seed`` and averages their medians, which shrinks the share of
    the spread between invocations that comes from one input's luck.
    """
    return [seed * INPUTS_PER_SEED + j for j in range(INPUTS_PER_SEED)]


def end_to_end(workload: str, seed: int, seconds: float):
    """Measured runs until ``seconds`` have passed (at least ``MIN_RUNS``)."""
    inputs = input_seeds(seed)
    start = time.monotonic()
    records: list[dict] = []
    while True:
        records.append(in_child(workload, inputs[len(records) % len(inputs)], "measure"))
        elapsed = time.monotonic() - start
        longest = max(r["wall_s"] for r in records)
        if len(records) >= MIN_RUNS and elapsed >= seconds and len(records) % len(inputs) == 0:
            break
        if elapsed + 1.5 * longest > BUDGET_S:
            break
    ok, common = judge(records)
    groups = [[r for r in ok if r["seed"] == s] for s in inputs]
    metrics = {}
    if all(groups):
        def mean_of_medians(value) -> float:
            return statistics.fmean(statistics.median(value(r) for r in g) for g in groups)

        metrics = {
            "setup_s": mean_of_medians(lambda r: r["setup_ref_s"]),
            "us_per_request": mean_of_medians(lambda r: r["run_ref_s"] / r["requests"] * 1e6),
            "peak_rss_mb": mean_of_medians(lambda r: r["peak_rss_mb"]),
        }
    return records, metrics, common


def per_layer(workload: str, seed: int, ref_s: float):
    """The traced run and its untraced companions; the per-layer metrics.

    The untraced runs of the serial code (a plain run and the run split
    into quarters) are the base of ``trace.overhead``; on ``parallel-tier``
    they are the serial twin, and two parallel runs (one with the shard
    dispatch timed) give ``parallel.speedup``.
    """
    parallel = workload == "parallel-tier"
    seed = input_seeds(seed)[0]
    untraced = in_child(workload, seed, "measure", setups=1, serial_twin=parallel)
    traced = in_child(workload, seed, "trace")
    quartered = in_child(workload, seed, "split")
    records = [untraced, traced, quartered]
    if parallel:
        records += [in_child(workload, seed, "measure", setups=1), in_child(workload, seed, "shards")]
    ok, common = judge(records)
    if len(ok) != len(records):
        return records, {}, common
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(traced["layers"])
    serial_s = (untraced["run_s"] + quartered["run_s"]) / 2
    if parallel:
        layers.update(records[4]["layers"])
        layers["parallel.speedup"] = serial_s / ((records[3]["run_s"] + records[4]["run_s"]) / 2)
    quarters = [q["s"] / q["requests"] * 1e6 for q in quartered["quarters"]]
    for k, value in enumerate(quarters, start=1):
        layers[f"sim.us_per_request_q{k}"] = value
    layers["sim.cost_growth"] = quarters[3] / quarters[0]
    layers["trace.overhead"] = traced["run_s"] / serial_s
    layers["trace.prediction_ok"] = 1.0 if prediction_holds(workload, layers) else 0.0
    layers["host.ref_s"] = ref_s
    return records, {name: layers[name] for name in PER_LAYER}, common


def prediction_holds(workload: str, layers: dict) -> bool:
    """Whether the traced run confirms the workload's predicted dominant layer.

    Link time counts the PS link's completion timer, which runs inside the
    event kernel, so on the link-bound workload it is ``share.link`` plus
    ``share.des``; elsewhere every share competes on its own.
    """
    predicted = PREDICTED[workload]
    if predicted == "speedup":
        return layers["parallel.speedup"] > 1.0
    shares = {name[6:]: value for name, value in layers.items() if name.startswith("share.")}
    if predicted == "link":
        link = shares.pop("link") + shares.pop("des")
        return link > max(shares.values())
    return max(shares, key=shares.get) == predicted


def describe(workload: str, seed: int, trace: int, records, metrics, common) -> None:
    """Human-readable lines (everything but the final JSON line)."""
    failed = [r for r in records if r["problems"]]
    print(f"workload {workload} seed {seed} trace {trace}: {len(records)} runs, "
          f"{len(failed)} failed, digests {common}")
    for record in failed:
        print(f"  failed {record['mode']} run: {'; '.join(record['problems'])}")
    if not trace:
        for s in sorted({r["seed"] for r in records if "run_s" in r}):
            runs = [r for r in records if r.get("seed") == s and "run_s" in r]
            wall = " ".join(f"{r['run_s'] / r['requests'] * 1e6:.1f}" for r in runs)
            corrected = " ".join(f"{r['run_ref_s'] / r['requests'] * 1e6:.1f}" for r in runs)
            print(f"  input seed {s}: us_per_request of each run, wall: {wall}")
            print(f"  input seed {s}: us_per_request of each run, speed-corrected: {corrected}")
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {units[name]}")
    if not trace:
        print(f"  {'failed_frac':<26} {len(failed) / len(records):>16.6g} ratio")


def result(records, metrics, trace: int) -> dict:
    units = PER_LAYER if trace else END_TO_END
    failed = sum(1 for r in records if r["problems"])
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def measure(workload: str, seed: int, seconds: float, trace: int, ref_s: float) -> dict:
    if trace:
        records, metrics, common = per_layer(workload, seed, ref_s)
    else:
        records, metrics, common = end_to_end(workload, seed, seconds)
    describe(workload, seed, trace, records, metrics, common)
    summary = result(records, metrics, trace)
    summary["digest"] = common
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --all: write the results here")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator's sources are not at {SRC}", file=sys.stderr)
        return 2
    # Runs are forked from this process, and forking is only safe in a
    # process with one thread; the simulator makes no BLAS calls, so a
    # single-threaded OpenBLAS changes no measured work.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import worker  # noqa: F401  (imports the simulator once, before any timing)
    from hostinfo import manifest

    host = manifest(ROOT)
    print("manifest " + json.dumps(host))
    if not args.all:
        summary = measure(args.workload, args.seed, args.seconds, args.trace, host["host.ref_s"])
        del summary["digest"]
        print(json.dumps(summary))
        return 0
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            results[f"{workload}/trace{trace}"] = measure(
                workload, args.seed, args.seconds, trace, host["host.ref_s"])
    print(f"\n{'workload':<20}" + "".join(f"{n:>18}" for n in (*END_TO_END, "failed_frac")))
    for workload in WORKLOADS:
        summary = results[f"{workload}/trace0"]
        values = [summary["metrics"].get(n, {}).get("value", float("nan")) for n in END_TO_END]
        values.append(summary["failed"] / summary["attempted"])
        print(f"{workload:<20}" + "".join(f"{v:>18.6g}" for v in values))
    print(f"{'(unit)':<20}" + "".join(f"{u:>18}" for u in (*END_TO_END.values(), "ratio")))
    if args.record:
        record = {"seed": args.seed, "seconds": args.seconds, "manifest": host, "results": results}
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
