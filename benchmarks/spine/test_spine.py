"""Checks on the benchmark spine itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/spine -q``: one
``--smoke`` run and two one-second single-workload runs, about a minute.
"""

import glob
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, ROOT)

from benchmarks.spine import table  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spine(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke():
    stdout = spine("--smoke", "--seed", "7")
    with open(os.path.join(HERE, "out", "metrics.json"), encoding="utf-8") as fh:
        return stdout, json.load(fh)


def printed(stdout):
    """{workload: {metric names printed for it}}."""
    names = {}
    for line in stdout.splitlines():
        for m in re.finditer(r"(\S+)/(\S+) = ", line):
            names.setdefault(m.group(1), set()).add(m.group(2))
    return names


def test_table_matches_benchmark_json(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == [
        w.name for w in table.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in benchmark_json["end_to_end"]] == list(table.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark_json["per_layer"]] == list(table.PER_LAYER)
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    names += [w["name"] for w in benchmark_json["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_workloads_are_defined_in_one_table():
    for path in glob.glob(os.path.join(HERE, "*.py")):
        if os.path.basename(path) in ("table.py", "test_spine.py"):
            continue
        with open(path, encoding="utf-8") as fh:
            assert "Workload(" not in fh.read(), path


def test_smoke_prints_every_name(smoke, benchmark_json):
    names = printed(smoke[0])
    end_to_end = {m["name"] for m in benchmark_json["end_to_end"]} | {"ops", "failed"}
    per_layer = {m["name"] for m in benchmark_json["per_layer"]}
    assert set(names) == {w["name"] for w in benchmark_json["workloads"]}
    for workload, seen in names.items():
        assert seen - per_layer == end_to_end, workload
    for workload in ("counter_overhead", "campaign_hit"):
        assert names[workload] - end_to_end == per_layer, workload
    assert "failed = 0" in smoke[0].splitlines()[-1]


def test_profile_buckets_cover_the_traced_wall(smoke):
    for workload, check in smoke[1]["checks"].items():
        layer = smoke[1]["per_layer"][workload]
        total = sum(layer[f"{b}.self_s"] for b in table.BUCKETS)
        assert abs(total - check["profile.wall_s"]) <= 0.02 * check["profile.wall_s"]
        # ``other`` takes the remainder; what cProfile attributed on its own
        # must still be nearly all of it, or the profile missed the sample.
        assert check["profile.accounted_s"] >= 0.9 * check["profile.wall_s"], workload


def test_setup_spans_cover_the_setup_span(smoke):
    layer = smoke[1]["per_layer"]["counter_overhead"]
    parts = sum(layer[name] for name in table.SETUP_SPANS)
    assert abs(parts - layer["setup.traced_s"]) <= 0.05 * layer["setup.traced_s"]


def test_campaign_hit_simulates_nothing(smoke):
    layer = smoke[1]["per_layer"]["campaign_hit"]
    assert layer["generated.self_s"] == 0
    assert layer["serve.store.hits"] == layer["cluster.shards"]
    assert layer["serve.store.misses"] == 0


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_workload_line(benchmark_json, trace, key):
    stdout = spine("--workload", "counter_overhead", "--seed", "5",
                   "--seconds", "1", "--trace", trace)
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in benchmark_json[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_nothing_is_left_behind(smoke):
    assert multiprocessing.active_children() == []
    assert glob.glob(os.path.join(HERE, "out", "store-*")) == []
