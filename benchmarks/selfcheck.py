"""Self-check of the benchmark harness.

    python3 benchmarks/selfcheck.py

Covers the tail-percentile rule, the self-time computation over nested
spans, that a corrupted golden digest shows up as error_rate > 0, and that
the metric names and units the benchmark prints are the ones
BENCHMARK.json declares.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import clirun
import harness
import run


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_tail_rule() -> None:
    cases = {20: 5000, 99: 5000, 100: 9000, 999: 9000, 1000: 9900, 9999: 9900, 10000: 9990, 100000: 9999}
    for samples, level in cases.items():
        got = harness.tail_level(samples)
        check(got == level, f"tail_level({samples}) = {got}, expected {level}")
        check(samples - harness.rank_of(got, samples) >= 10, f"fewer than ten samples beyond p{got / 100} of {samples}")
    try:
        harness.tail_level(19)
    except ValueError:
        pass
    else:
        check(False, "19 samples must leave no percentile with ten beyond it")
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    check(harness.percentile(values, 9000) == 90, "nearest-rank p90 of 1..100 must be 90")
    check(harness.percentile(values, 5000) == 50, "nearest-rank p50 of 1..100 must be 50")


def check_self_times() -> None:
    spans = [
        ("root", None, 0, 100, -1),
        ("a", None, 10, 30, 0),
        ("b", None, 20, 50, 0),  # overlaps a: the union is counted once
        ("c", None, 90, 120, 0),  # runs past the parent: clipped to it
        ("a.child", None, 15, 20, 1),
        ("other", None, 200, 260, -1),
    ]
    got = harness.self_times_ns(spans)
    check(got == [50, 15, 30, 30, 5, 60], f"self times {got}")

    tracer = harness.Tracer()
    tracer.open("task")
    tracer("outer", lambda: tracer("inner", lambda: 7))
    tracer.close()
    names = [s[0] for s in tracer.spans]
    parents = [s[4] for s in tracer.spans]
    check(names == ["task", "outer", "inner"] and parents == [-1, 0, 1], f"span tree {names} {parents}")
    own = harness.self_times_ns(tracer.spans)
    total = tracer.spans[0][3] - tracer.spans[0][2]
    check(sum(own) == total and min(own) >= 0, "self times must partition the root span")


def check_corrupted_digest() -> None:
    sys.path.insert(0, str(run.SRC))
    E = run.import_echelon()
    workdir = run.OUT / "selfcheck-corpus"
    try:
        inputs = clirun.setup(E, random.Random(0), workdir)
        key = next(iter(inputs["digests"]))
        inputs["digests"][key] = "0" * 64
        passes = []
        with harness.SpeedSampler() as sampler:
            for tracer in (harness.NullTracer(), harness.Tracer()):
                groups, finish = clirun.build(E, inputs)
                passes.append(harness.run_pass([t for g in groups for t in g], tracer, sampler, finish))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = run.per_layer(passes)
    check(metrics["error_rate"]["value"] > 0, "a corrupted digest must give error_rate > 0")
    check(metrics["cli.errors"]["value"] == 2, "the corrupted digest must fail once per pass, blamed on cli")
    failed = [f for p in passes for f in p.failures]
    check(all(key in message for _kind, _module, message in failed), f"unexpected failures {failed}")


def check_declared_metrics() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    check(e2e == list(run.END_TO_END), f"end_to_end in BENCHMARK.json {e2e} != {list(run.END_TO_END)}")
    layers = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    check(layers == run.per_layer_spec(), "per_layer in BENCHMARK.json differs from run.per_layer_spec()")
    names = [w["name"] for w in declared["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS), f"workloads {names}")


if __name__ == "__main__":
    check_tail_rule()
    check_self_times()
    check_declared_metrics()
    check_corrupted_digest()
    print("selfcheck: ok")
