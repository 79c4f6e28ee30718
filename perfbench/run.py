"""qmds benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  One generator process starts the items of a workload one at a
time, each in a fresh child interpreter (a closed loop with one client).

--trace 0 repeats whole passes over the workload's items while another pass
fits in --seconds (at least one) and reports the end-to-end metrics.  Their
times are reference seconds: each child's measured times scaled by the
host's speed before, during and after it, read from a fixed kernel (see
speed.py).
--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics; the difference of the two is the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the machine,
the commit and the raw samples.  See perfbench/NOTES.md for what each
metric means and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PYCACHE = ROOT / ".bench_build" / "pycache"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Child interpreters that only import qmds, per run, for setup_s.
SETUP_PROBES = 15
#: No single item may run longer than this.
ITEM_TIMEOUT_S = 150.0
#: An untraced child is stopped this often for a reading of the host's
#: speed (see speed.py); the stops are taken out of its times.
READ_EVERY_S = 2.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_s": "s",
    "pass_share": "share",
    "checked_share": "share",
}

# name -> unit; the table in NOTES.md says which end-to-end metric each
# should move, on which workload.
PER_LAYER = {
    "grs.rank_s": "s",
    "grs.rank_codes": "count",
    "grs.rank_subsets": "count",
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "grs.brute_s": "s",
    "grs.brute_codes": "count",
    "grs.brute_words": "count",
    "grs.brute_rss_mb": "MB",
    "grs.brute_words_per_table_row": "ratio",
    "grs.hermitian_s": "s",
    "grs.by_construction_codes": "count",
    "poly.root_free_s": "s",
    "poly.root_free_calls": "count",
    "poly.root_free_candidates": "count",
    "poly.root_free_yield": "ratio",
    "field.build_s": "s",
    "field.builds": "count",
    "field.elements": "count",
    "construct.s": "s",
    "verify.s": "s",
    "verify.reconstruct_s": "s",
    "verify.excluded_rows": "count",
    "serialize.s": "s",
    "serialize.bytes": "bytes",
    "field.s": "s",
    "poly.s": "s",
    "grs.s": "s",
    "linalg.s": "s",
    "trace.uncovered_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "proc.setup_s": "s",
    "proc.cpu_s": "s",
    "proc.wait_s": "s",
}


def now() -> float:
    # CLOCK_MONOTONIC is one clock for every process on Linux, so a child's
    # timestamps can be subtracted from the parent's spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QMDS_ELEMENT_BOUND", None)
    # An installed CLI starts from compiled bytecode, so the children keep
    # one, inside the checkout; the warm-up probe writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def spawn(args: List[str], timeout: float, readings: Optional[List[float]] = None) -> dict:
    """Run one child to completion; its JSON result plus `t_spawn` and
    `stops`, or an `errors` entry when it crashed, timed out or printed no
    result.

    With `readings`, the child is stopped every READ_EVERY_S for a reading of
    the host's speed, which is appended to the list; `stops` holds the
    (start, end) of each stop."""
    stops: List[Tuple[float, float]] = []
    t_spawn = now()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        while True:
            left = t_spawn + timeout - now()
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(0.0, left if readings is None else min(left, READ_EVERY_S)))
                break
            except subprocess.TimeoutExpired:
                if readings is None or now() >= t_spawn + timeout:
                    return {"t_spawn": t_spawn, "errors": [f"timed out after {timeout:.0f} s"]}
            t_stop = now()
            proc.send_signal(signal.SIGSTOP)
            try:
                readings.append(speed.reading())
            finally:
                proc.send_signal(signal.SIGCONT)
            stops.append((t_stop, now()))
    finally:
        if proc.returncode is None:  # timed out or interrupted
            proc.kill()
            proc.communicate()
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"t_spawn": t_spawn,
                "errors": [f"exit {proc.returncode}, no result: {stderr[-2000:]}"]}
    result["t_spawn"] = t_spawn
    result["stops"] = stops
    return result


def stopped(stops: List[Tuple[float, float]], start: float, end: float) -> float:
    """Seconds of `stops` that fall between `start` and `end`."""
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in stops)


def run_pass(items: List[dict], traced: bool) -> List[dict]:
    """One child per item.  `latency_s` and `setup_s` are measured seconds
    without the stops; `speed` scales them to the reference speed, from the
    readings before, during (untraced children only) and after the child."""
    records = []
    before = speed.reading()
    for item in items:
        readings = [before]
        rec = spawn([json.dumps(item), "1" if traced else "0"], ITEM_TIMEOUT_S,
                    None if traced else readings)
        before = speed.reading()
        readings.append(before)
        rec["item"] = " ".join(item["argv"])
        if not rec["errors"]:
            stops, t0 = rec["stops"], rec["t_spawn"]
            rec["latency_s"] = rec["t_end"] - t0 - stopped(stops, t0, rec["t_end"])
            rec["setup_s"] = rec["t_imported"] - t0 - stopped(stops, t0, rec["t_imported"])
            rec["speed"] = speed.factor(readings)
        records.append(rec)
    return records


def pass_wall(records: List[dict], scaled: bool = False) -> float:
    """Time for all items of a pass: spawn to the end of each timed call,
    summed over the items (the output checks after it are not counted)."""
    return sum(r["latency_s"] * (r["speed"] if scaled else 1.0) for r in records)


def probe_setup() -> Tuple[List[float], float]:
    """Set-up times of SETUP_PROBES children, and the speed factor that
    scales them to the reference speed."""
    # Writes bytecode; not counted.  A program that fails here fails in the
    # items too, where the failure is reported.
    spawn(["--warm-up"], ITEM_TIMEOUT_S)
    before = speed.reading()
    out = []
    for _ in range(SETUP_PROBES):
        rec = spawn(["--probe"], ITEM_TIMEOUT_S)
        if "errors" in rec:
            raise SystemExit(f"setup probe failed: {rec['errors']}")
        out.append(rec["t_imported"] - rec["t_spawn"])
    return out, speed.factor([before, speed.reading()])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_call(passes: List[List[dict]]) -> List[float]:
    """Each call of the list at its median over the passes, in reference
    seconds."""
    return [statistics.median(r["latency_s"] * r["speed"] for r in calls)
            for calls in zip(*passes)]


def verified_codes(records: List[dict]) -> Tuple[int, int]:
    """(codes verified, codes whose distance method was by-construction)."""
    return (sum(r["counters"].get("verify.codes", 0) for r in records),
            sum(r["counters"].get("verify.method.by-construction", 0) for r in records))


def end_to_end(passes: List[List[dict]], setups: List[float]) -> Dict[str, dict]:
    """`setups` are the probes' set-up times in reference seconds."""
    records = [r for p in passes for r in p]
    ok = [r for r in records if not r["errors"]]
    codes, unchecked = verified_codes(ok)
    calls = per_call([p for p in passes if all(not r["errors"] for r in p)])
    values = {
        "wall_s": sum(calls),
        "setup_s": statistics.median(setups + [r["setup_s"] * r["speed"] for r in ok]),
        "peak_rss_mb": max((r["rss_mb"] for r in ok), default=0.0),
        "call_p50_s": statistics.median(calls) if calls else 0.0,
        "pass_share": len(ok) / len(records),
        "checked_share": (codes - unchecked) / codes if codes else 0.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, dict]:
    counters: Dict[str, float] = {}
    spans: Dict[str, List[float]] = {}
    layers = dict.fromkeys(tracer.LAYERS, 0.0)
    for r in traced:
        for key, val in r["counters"].items():
            counters[key] = counters.get(key, 0) + val
        for name, (calls, total, self_s) in r["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for layer, self_s in r["layers"].items():
            layers[layer] += self_s

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def count(name: str) -> float:
        return counters.get(name, 0)

    wall = pass_wall(traced)
    cpu = sum(r["cpu_s"] for r in traced)
    table_rows = count("grs.brute_table_rows")
    candidates = count("poly.root_free_candidates")
    values = {
        "grs.rank_s": total("grs.rank"),
        "grs.rank_codes": count("grs.rank_codes"),
        "grs.rank_subsets": count("grs.rank_subsets"),
        "linalg.rank_s": total("linalg.rank"),
        "linalg.rank_calls": spans.get("linalg.rank", [0])[0],
        "grs.brute_s": total("grs.brute"),
        "grs.brute_codes": count("grs.brute_codes"),
        "grs.brute_words": count("grs.brute_words"),
        "grs.brute_rss_mb": max(
            (r["counters"].get("grs.brute_rss_mb", 0.0) for r in traced), default=0.0),
        "grs.brute_words_per_table_row":
            count("grs.brute_words") / table_rows if table_rows else 0.0,
        "grs.hermitian_s": total("grs.hermitian"),
        "grs.by_construction_codes": count("verify.method.by-construction"),
        "poly.root_free_s": total("poly.root_free"),
        "poly.root_free_calls": count("poly.root_free_calls"),
        "poly.root_free_candidates": candidates,
        "poly.root_free_yield":
            count("poly.root_free_searches") / candidates if candidates else 0.0,
        "field.build_s": total("field.build"),
        "field.builds": count("field.builds"),
        "field.elements": count("field.elements"),
        "construct.s": layers["construct"],
        "verify.s": layers["verify"],
        "verify.reconstruct_s": total("verify.reconstruct"),
        "verify.excluded_rows": count("verify.excluded_rows"),
        "serialize.s": layers["serialize"],
        "serialize.bytes": count("serialize.bytes"),
        "field.s": layers["field"],
        "poly.s": layers["poly"],
        "grs.s": layers["grs"],
        "linalg.s": layers["linalg"],
        "trace.uncovered_s": wall - sum(layers.values()),
        "trace.wall_s": wall,
        "trace.overhead_s": pass_wall(traced, True) - pass_wall(untraced, True),
        "proc.setup_s": sum(r["setup_s"] for r in traced),
        "proc.cpu_s": cpu,
        "proc.wait_s": wall - cpu,
    }
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def machine() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, items=None) -> dict:
    """Run one workload and return the result object plus its notes."""
    if items is None:
        items = workloads.items_for(workload, seed)
    setups, probe_speed = probe_setup()
    passes: List[List[dict]] = []
    start = now()
    while True:
        t0 = now()
        passes.append(run_pass(items, traced=False))
        if trace or now() - start + (now() - t0) > seconds:
            break
    traced: List[dict] = []
    if trace:
        traced = run_pass(items, traced=True)
    records = [r for p in passes + [traced] for r in p]
    failed = sum(bool(r["errors"]) for r in records)
    if trace:
        # A failed item has no samples; the result then says correct: false.
        metrics = per_layer([r for r in traced if not r["errors"]],
                            [r for r in passes[0] if not r["errors"]])
    else:
        metrics = end_to_end(passes, [s * probe_speed for s in setups])
    ok = [r for p in passes for r in p if not r["errors"]]
    codes, unchecked = verified_codes(ok)
    notes = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        **machine(),
        "items": [" ".join(item["argv"]) for item in items],
        "passes": len(passes),
        "pass_wall_s": [pass_wall(p) for p in passes if all(not r["errors"] for r in p)],
        "latencies_s": [[r["item"], r["latency_s"]] for r in ok],
        "setup_samples_s": setups + [r["setup_s"] for r in ok],
        "speed_factors": {"probes": probe_speed, "items": [r["speed"] for r in ok]},
        "call_samples": len(ok),
        "fail_share": failed / len(records),
        "unchecked_share": unchecked / codes if codes else None,
        "proc.wait_s": sum(r["latency_s"] - r["cpu_s"] for r in ok),
        "errors": [{"item": r["item"], "errors": r["errors"]} for r in records if r["errors"]],
        "missing_trace_targets": sorted(
            {m for r in records for m in r.get("missing", [])}),
    }
    if trace:
        notes["trace.overhead_s"] = metrics["trace.overhead_s"]["value"]
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmds" / "__init__.py").is_file():
        print(f"no qmds sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"notes": out["notes"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
