"""Tests of the benchmark harness itself.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Cheap calls that touch every traced layer.
SLICE = [
    ["gen", "x:000", "40"],
    ["pair", "x:000", "a:000", "--horizon", "20000"],
    ["pair", "b:000", "b:011", "--horizon", "2000", "--resolution", "10"],
    ["scan", "--codes-inline", "000,011,101", "--horizon", "20000"],
    ["omega", "000", "111", "--horizon", "20000", "--factor-len", "5..8"],
    ["diamond", "010", "--horizon", "20000", "--factor-len", "8"],
    ["sturmian-check", "--max-shift", "5", "--horizon", "2000"],
    ["dendrite", "check", "--codes-inline", "000,111"],
]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_a_nested_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("b.child", 6.0, 7.0, 2),
        ("other-root", 11.0, 12.0, -1),
    ]
    assert layertrace.self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_self_times_merge_overlapping_children():
    spans = [("p", 0.0, 10.0, -1), ("c1", 1.0, 5.0, 0), ("c2", 3.0, 7.0, 0),
             ("c3", 9.0, 12.0, 0)]
    assert layertrace.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrappers_record_parents_and_self_time():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock=clock)

    def inner(x, n, horizon):
        clock.now += 2.0
        return {"w"}

    wrapped_inner = tracer._span_wrapper("coding.factor", inner)

    def outer():
        clock.now += 1.0
        wrapped_inner(None, 5, 104)
        clock.now += 0.5
        wrapped_inner(None, 5, 10)

    tracer._span_wrapper("cli.main", outer)()
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("cli.main", -1), ("coding.factor", 0), ("coding.factor", 0)]
    metrics = layertrace.layer_metrics(tracer)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["coding.factor_s"] == pytest.approx(4.0)
    assert metrics["coding.factor_calls"] == 2
    assert metrics["coding.factor_windows"] == 100 + 6
    assert metrics["trace.layers_s"] == pytest.approx(4.0)


def test_tracer_unwraps_every_binding():
    import gehman
    import gehman.chaoscan
    import gehman.cli
    import gehman.coding

    before = (gehman.cli.lcp_series, gehman.chaoscan.lcp_series,
              gehman.classify_pair, gehman.coding.SymbolStream.prefix)
    with layertrace.Tracer():
        assert gehman.cli.lcp_series is gehman.chaoscan.lcp_series
        assert gehman.cli.lcp_series is not before[0]
    after = (gehman.cli.lcp_series, gehman.chaoscan.lcp_series,
             gehman.classify_pair, gehman.coding.SymbolStream.prefix)
    assert after == before


def test_traced_and_untraced_runs_give_identical_digests():
    plain = run.spawn(SLICE)
    traced = run.spawn(SLICE, trace=True)
    assert [r[:3] for r in plain["results"]] == [r[:3] for r in traced["results"]]
    assert all(r[3] is None for r in plain["results"] + traced["results"])
    layers = traced["layers"]
    for metric in ("coding.gen_symbols", "diamond.gen_symbols", "coding.factor_calls",
                   "chaoscan.lcp_series_calls", "chaoscan.pairs_certified",
                   "dendrite.accepts_calls", "exactnum.surd_ops", "family.stream_hits"):
        assert layers[metric] > 0, metric
    # the named layers below the CLI, not cli.main's own code, do most of the work
    assert 0.5 < layers["trace.layers_s"] / traced["wall_s"] <= 1.0
    spans = [json.loads(line) for line in
             (BENCH / "spans.jsonl").read_text(encoding="ascii").splitlines()]
    assert sum(s["name"] == "cli.main" for s in spans) == len(SLICE)
    assert all(s["start"] <= s["end"] and s["parent"] < i for i, s in enumerate(spans))


def test_tampered_reference_raises_failed_count(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    reference = json.loads(run.REFERENCE.read_text(encoding="ascii"))["calls"]
    honest = run.measure("gen-fresh", 7, 0, False, reference)
    assert honest["failed"] == 0 and honest["attempted"] == honest["calls"]
    assert honest["metrics"]["wall_s"] == pytest.approx(
        honest["raw_walls"][0] * run.PROBE_REF_S / honest["probes"][0])
    victim = workloads.call_key(workloads.calls("gen-fresh", 7, 0)[0])
    tampered = dict(reference)
    rc, digest = tampered[victim]
    tampered[victim] = [rc, digest[::-1]]
    res = run.measure("gen-fresh", 7, 0, False, tampered)
    assert res["failed"] == 1 and res["failures"] == [victim]


def test_check_counts_raised_and_missing_calls():
    reference = {"a": [0, "x"], "b": [3, "y"]}
    results = [["a", 0, "x", None], ["b", 0, "y", None], ["c", 0, "z", None],
               ["a", None, "x", "RuntimeError: boom"]]
    assert run.check(results, reference) == ["b", "c", "a"]


def test_every_seed_draws_recorded_calls():
    reference = json.loads(run.REFERENCE.read_text(encoding="ascii"))["calls"]
    for name in workloads.WORKLOADS:
        every = {workloads.call_key(c) for c in workloads.universe(name)}
        assert every <= reference.keys(), name
        for seed, number in itertools.product(range(10), range(4)):
            batch = workloads.calls(name, seed, number)
            assert batch == workloads.calls(name, seed, number)
            assert {workloads.call_key(c) for c in batch} <= every


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
