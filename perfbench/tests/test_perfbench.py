"""Tests of the benchmark itself: workloads, the external tracer, the work
counters it derives, the output checks and the result format.

    python3 -m pytest perfbench/tests -q

The counter tests start real child interpreters and take about two minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import construct_item, items_for, sweep_item

ROOT = Path(__file__).resolve().parents[2]


def _argv(family, q, t, x):
    flag = "--k" if family == "theorem1" else "--d"
    return ["construct", family, "--q", str(q), "--t", str(t), flag, str(x)]


# -- workloads ----------------------------------------------------------------

def test_default_seed_runs_exactly_the_listed_calls():
    assert [i["argv"] for i in items_for("construct-highdeg")] == [
        _argv("theorem2", 16, 5, 3), _argv("theorem2", 9, 6, 2),
        _argv("theorem2", 8, 6, 2), _argv("theorem2", 8, 4, 2),
        _argv("theorem2", 7, 5, 2),
    ]
    assert [i["argv"] for i in items_for("construct-large")] == [
        _argv("theorem1", 128, 1, 1), _argv("theorem1", 121, 2, 2),
        _argv("theorem2", 128, 2, 2), _argv("theorem2", 127, 2, 2),
        _argv("theorem2", 125, 3, 3), _argv("theorem2", 128, 3, 3),
    ]
    assert items_for("sweep-default") == [sweep_item()]


def _shape(family, q, t, x):
    """What a seed must keep: q, l (theorem2) or k (theorem1), the method."""
    if family == "theorem1":
        return family, q, x, workloads.distance_method(q, t * q, x)
    k = x - 1
    return family, q, t + 1 - k, workloads.distance_method(q, t * (q + 1) + 2, k)


def _call(item):
    argv = item["argv"]
    return argv[1], int(argv[3]), int(argv[5]), int(argv[7])


@pytest.mark.parametrize("workload", ["construct-highdeg", "construct-large"])
def test_other_seeds_swap_calls_for_equivalent_ones(workload):
    default = sorted(_shape(*_call(i)) for i in items_for(workload))
    seen = set()
    for seed in range(1, 30):
        items = items_for(workload, seed)
        assert items == items_for(workload, seed)
        assert sorted(_shape(*_call(i)) for i in items) == default
        for item in items:
            family, q, t, x = _call(item)
            assert item["expect"] == dict(
                zip("nkd", workloads.expected_quantum(family, q, t, x)), q=q)
        seen.add(tuple(tuple(i["argv"]) for i in items))
    assert len(seen) > 1


def test_theorem1_alternatives_never_grow_the_length():
    for family, q, t, x in workloads.CONSTRUCT_LARGE:
        if family == "theorem1":
            assert all(t2 <= t for t2, _ in workloads.alternatives(family, q, t, x))


def test_sweep_ignores_the_seed():
    assert items_for("sweep-default", 7) == items_for("sweep-default", 0)


# -- tracer -------------------------------------------------------------------

def _current(target):
    owner = tracer._resolve(target[0])
    return owner.__dict__[target[1]] if isinstance(owner, type) else getattr(owner, target[1])


def test_tracer_restores_every_wrapped_function(tmp_path):
    import qmds.cli

    before = [_current(t) for t in tracer.LAYER_TARGETS]
    with pytest.raises(RuntimeError):
        with tracer.Tracer(tracer.LAYER_TARGETS) as tr:
            assert tr.missing == []
            for target, original in zip(tracer.LAYER_TARGETS, before):
                assert _current(target) is not original
            assert qmds.cli.main(["construct", "theorem2", "--q", "3", "--t", "2",
                                  "--d", "3", "--out", str(tmp_path / "a.json")]) == 0
            raise RuntimeError("leave the block by an exception")
    for target, original in zip(tracer.LAYER_TARGETS, before):
        assert _current(target) is original
    assert tr.counters["verify.codes"] == 1
    assert tr.spans["grs.brute"][0] == 1


def test_self_times_add_up_to_the_top_level_spans(tmp_path):
    import qmds.cli

    with tracer.Tracer(tracer.LAYER_TARGETS) as tr:
        qmds.cli.main(["construct", "theorem1", "--q", "4", "--t", "3", "--k", "2",
                       "--out", str(tmp_path / "b.json")])
    top = tr.spans["construct.additive"][1] + tr.spans["verify.verify_construction"][1] \
        + tr.spans["serialize.result_to_obj"][1] + tr.spans["serialize.save"][1]
    assert math.isclose(sum(tr.layer_self_times().values()), top, rel_tol=1e-9)


# -- timing and memory of one child ------------------------------------------------

def test_stopped_counts_only_the_overlap():
    stops = [(1.0, 2.0), (3.0, 3.5), (5.0, 6.0)]
    assert run.stopped(stops, 1.5, 5.25) == 0.5 + 0.5 + 0.25
    assert run.stopped(stops, 6.0, 7.0) == 0.0


def test_speed_readings_stop_the_child_and_leave_its_time_out(monkeypatch):
    monkeypatch.setattr(run, "READ_EVERY_S", 0.05)
    (rec,) = run.run_pass([construct_item("theorem2", 3, 2, 2)], traced=False)
    assert rec["errors"] == []
    assert rec["stops"]
    measured = rec["t_end"] - rec["t_spawn"]
    assert rec["latency_s"] == measured - run.stopped(rec["stops"], rec["t_spawn"], rec["t_end"])
    assert 0 < rec["latency_s"] < measured
    assert rec["speed"] > 0


def test_child_peak_rss_is_its_own_not_the_runners():
    ballast = list(range(3_000_000))  # about 100 MB in this process
    (rec,) = run.run_pass([construct_item("theorem2", 3, 2, 2)], traced=False)
    assert len(ballast) and rec["errors"] == []
    assert rec["rss_mb"] < 60


# -- counters, from child interpreters ------------------------------------------

def test_sweep_counters_match_the_seed():
    out = run.run("sweep-default", 0, 0, trace=True)
    result, notes = out["result"], out["notes"]
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    assert m["grs.brute_codes"] == 180
    assert m["grs.brute_words"] == 244_978
    assert m["grs.rank_codes"] == 11
    assert m["grs.rank_subsets"] == 519_722
    assert m["grs.by_construction_codes"] == 78
    assert m["verify.excluded_rows"] == 3
    assert notes["unchecked_share"] == 78 / 269
    assert notes["missing_trace_targets"] == []
    uncovered = m["trace.wall_s"] - sum(
        m[f"{layer}.s"] for layer in tracer.LAYERS)
    assert math.isclose(m["trace.uncovered_s"], uncovered, abs_tol=1e-9)


def test_root_free_candidates_repeat_exactly():
    items = [construct_item("theorem2", 16, 5, 3),
             construct_item("theorem2", 128, 2, 2),
             construct_item("theorem2", 128, 3, 3)]
    runs = [run.run_pass(items, traced=True) for _ in range(2)]
    for records in runs:
        assert [r["errors"] for r in records] == [[], [], []]
        counts = [r["counters"]["poly.root_free_candidates"] for r in records]
        assert counts == [66_562, 16_391, 16_391]

    def counts(records):  # every counter except the memory reading
        return [{k: v for k, v in r["counters"].items() if k != "grs.brute_rss_mb"}
                for r in records]

    assert counts(runs[0]) == counts(runs[1])


# -- output checks ----------------------------------------------------------------

def test_wrong_reference_fails_every_item():
    wrong_sweep = sweep_item(q_list=(2, 3), sha256="0" * 64)
    wrong_construct = construct_item("theorem2", 7, 5, 2)
    wrong_construct["expect"] = dict(wrong_construct["expect"], d=3)
    for items in ([wrong_sweep], [wrong_construct]):
        out = run.run("construct-highdeg", 0, 0, trace=False, items=items)
        assert out["result"]["correct"] is False
        assert out["result"]["failed"] == out["result"]["attempted"] >= 1
        assert out["notes"]["fail_share"] == 1
        assert out["result"]["metrics"]["pass_share"]["value"] == 0


def test_hermitian_recheck_rejects_a_tampered_generator():
    import child
    from qmds import quantum_params_for_distance, serialize

    obj = serialize.result_to_obj(quantum_params_for_distance(5, 3, 4))
    assert child.hermitian_recheck(obj) == ""
    obj["generator"][1][0] = obj["generator"][1][0] % 24 + 1
    assert "not Hermitian" in child.hermitian_recheck(obj)


# -- result format ----------------------------------------------------------------

def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
