"""Benchmark of the echelon library: one closed-loop client, four workloads.

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file).  The library is imported from ``src/`` next to this directory; the
run fails with exit code 2 when it is missing.  Set-up (importing echelon
afresh, generating inputs from ``random.Random(seed)``, writing the CLI
corpus, warming lazy state) is repeated SETUP_REPS times and its median is
``setup_s``.  Then whole passes over the workload's fixed task list repeat
until ``--seconds`` have passed and at least the workload's MIN_PASSES are
done; a pass runs the task groups riffled in a seeded order, each group
keeping its own order.  Every time is reported at reference speed (see
harness).  The last stdout line is the JSON result; the line before it holds the
environment stamp and details, also written to ``.bench_out/``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self times and counts per pass (median over traced
passes), scaling curves and CLI medians over every traced span, and
``trace.overhead_s``, the traced minus the untraced busy time per pass.
The spans are written to ``.bench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import clirun
import desk
import harness
import models
import search

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
WORKLOADS = {w.NAME: w for w in (desk, models, search, clirun)}

SELF_TIMES = (
    "space.enumerate_spaces",
    "metrize.metrize_dull",
    "metrize.validate_metric",
    "metrize.from_metric",
    "metrize.is_dull",
    "katetov.realize_extension",
    "katetov.katetov_map",
    "amalgam.amalgamate",
    "space.canonical_form",
    "space.are_isomorphic",
    "ramsey.arrow_check",
    "ramsey.witness_search",
    "limit.deterministic.limit_points",
    "limit.deterministic.ensure_witness",
    "limit.random.sample_prefix",
    "limit.random.ensure_witness",
    "limit.back_and_forth",
    "colgraph.random_coloured_graph",
    "prng.edge_colour",
    "colgraph.check_star",
    "jsonio.load",
    "jsonio.dumps",
)
COUNTS = (
    ("space.enumerate_spaces.emitted", "count"),
    ("katetov.katetov_map.points", "count"),
    ("space.canonical_form.calls", "count"),
    ("ramsey.arrow_check.a_copies", "count"),
    ("limit.deterministic.labels", "count"),
    ("limit.random.points_scanned", "count"),
    ("limit.back_and_forth.pairs", "count"),
    ("cli.stdout_bytes", "bytes"),
    ("jsonio.dumps.bytes", "bytes"),
)
# metric -> (span name, span tag): median duration of those spans.
CURVES = {
    **{f"space.canonical_form.uniform_m{m}_s": ("space.canonical_form", f"uniform_m{m}") for m in search.UNIFORM},
    **{f"limit.deterministic.limit_points.n{n}_s": ("limit.deterministic.limit_points", f"n{n}") for n in models.DET_GROWTH},
    **{f"limit.random.sample_prefix.n{n}_s": ("limit.random.sample_prefix", f"n{n}") for n in models.RANDOM_PREFIX},
}
# metric -> (numerator count, denominator count)
RATIOS = {
    "limit.random.witness_yield": ("limit.random.witnesses", "limit.random.points_scanned"),
    "colgraph.check_star.hit_rate": ("colgraph.check_star.hits", "colgraph.check_star.calls"),
}
CLI_SUBCOMMANDS = tuple(dict.fromkeys(clirun.subcommand(argv) for _, argv in clirun.INVOCATIONS + clirun.STANDALONE))
MODULES = ("space", "metrize", "katetov", "amalgam", "ramsey", "limit", "colgraph", "prng", "cli", "jsonio")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(f"{name}.self_s", "s", "lower") for name in SELF_TIMES]
    spec += [(name, unit, "lower") for name, unit in COUNTS]
    spec += [(name, "s", "lower") for name in CURVES]
    spec += [(name, "ratio", "higher") for name in RATIOS]
    spec += [(f"cli.main.{sub}.p50_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    spec += [(f"{module}.errors", "count", "lower") for module in MODULES]
    spec += [("error_rate", "ratio", "lower"), ("trace.overhead_s", "s", "lower")]
    return spec


END_TO_END = (
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


def import_echelon():
    """Import echelon from SRC afresh, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == "echelon" or n.startswith("echelon.")]:
        del sys.modules[name]
    E = importlib.import_module("echelon")
    importlib.import_module("echelon.cli")
    if Path(E.__file__).resolve().parent != SRC / "echelon":
        raise ImportError(f"echelon was imported from {E.__file__}, not from {SRC}")
    return E


def set_up(workload, seed: int, workdir: Path, sampler):
    """Returns the last set-up's module and inputs, with every set-up's raw
    time and its factor to reference speed."""
    marks = []
    for _ in range(SETUP_REPS):
        start = sampler.mark()
        E = import_echelon()
        inputs = workload.setup(E, random.Random(seed), workdir)
        workload.warm(E, inputs)
        marks.append((start, sampler.mark()))
    times, factors = zip(*(sampler.interval(start, end) for start, end in marks))
    return E, inputs, list(times), list(factors)


def measure(workload, E, inputs, seed: int, seconds: float, trace: bool, sampler) -> list:
    """Closed-loop passes; in trace mode untraced and traced passes alternate."""
    order = None
    passes = []
    start = time.perf_counter()
    while True:
        groups, finish = workload.build(E, inputs)
        if order is None:
            # A seeded riffle of the groups: each group keeps its own order,
            # and every kind of task is spread over the whole pass.
            order = [g for g, group in enumerate(groups) for _ in group]
            random.Random(f"order-{seed}").shuffle(order)
        cursors = [iter(group) for group in groups]
        tasks = [next(cursors[g]) for g in order]
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        passes.append(harness.run_pass(tasks, harness.Tracer() if traced else harness.NullTracer(), sampler, finish))
        done = time.perf_counter() - start >= seconds
        if done and (len(passes) % 2 == 0 if trace else len(passes) >= workload.MIN_PASSES):
            return passes


def timing_metrics(passes, setup_times, level):
    """setup_s, throughput and the two latencies from the given times."""
    latencies = [x for p in passes for x in p]
    return {
        "setup_s": harness.median(setup_times),
        "throughput": harness.median([len(p) / sum(p) for p in passes]),
        "latency_p50_ms": harness.median(latencies) * 1e3,
        "latency_tail_ms": harness.percentile(latencies, level) * 1e3,
    }


def end_to_end(workload, passes, setup_times, setup_factors, tasks_per_pass):
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    level = harness.tail_level(workload.MIN_PASSES * tasks_per_pass)
    scaled_setup = [t * f for t, f in zip(setup_times, setup_factors)]
    metrics = timing_metrics([p.scaled for p in passes], scaled_setup, level)
    metrics["success_rate"] = 1 - failed / attempted
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    details = {
        "tail_percentile": level / 100,
        "tail_samples": attempted,
        "tail_beyond": attempted - harness.rank_of(level, attempted),
        "raw": timing_metrics([p.latencies for p in passes], setup_times, level),
        "pass_speed_factors": [p.factor for p in passes],
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, details


def per_layer(passes):
    """Per-layer metrics; span times are brought to reference speed with
    their pass's median factor."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    self_sums, spans_by = [], {}
    for p in traced:
        sums: Counter = Counter()
        spans, factor = p.tracer.spans, p.factor
        for (name, tag, start, end, _parent), own in zip(spans, harness.self_times_ns(spans)):
            sums[name] += own * factor
            spans_by.setdefault((name, tag), []).append((end - start) * factor)
            if tag is not None:
                spans_by.setdefault((name, None), []).append((end - start) * factor)
        self_sums.append(sums)
    counts = [p.tracer.counts for p in traced]
    per_pass = lambda get: harness.median([get(i) for i in range(len(traced))])
    values = {}
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = per_pass(lambda i: self_sums[i][name]) / 1e9
    for name, _unit in COUNTS:
        values[name] = per_pass(lambda i: counts[i][name])
    for metric, key in CURVES.items():
        values[metric] = harness.median(spans_by[key]) / 1e9 if key in spans_by else 0.0
    for metric, (num, den) in RATIOS.items():
        total = sum(c[den] for c in counts)
        values[metric] = sum(c[num] for c in counts) / total if total else 0.0
    for sub in CLI_SUBCOMMANDS:
        key = (f"cli.main.{sub}", None)
        values[f"cli.main.{sub}.p50_ms"] = harness.median(spans_by[key]) / 1e6 if key in spans_by else 0.0
    errors = Counter(module for p in passes for _kind, module, _msg in p.failures)
    for module in MODULES:
        values[f"{module}.errors"] = errors[module]
    attempted = sum(len(p.latencies) for p in passes)
    values["error_rate"] = sum(errors.values()) / attempted
    busy = lambda group: harness.median([sum(p.scaled) for p in group])
    values["trace.overhead_s"] = busy(traced) - busy(plain)
    return {name: {"value": values[name], "unit": unit} for name, unit, _better in per_layer_spec()}


def write_spans(path: Path, passes) -> None:
    names: dict = {}
    rows = []
    for number, p in enumerate(passes):
        if not p.traced:
            continue
        for name, tag, start, end, parent in p.tracer.spans:
            key = name if tag is None else f"{name}#{tag}"
            rows.append([number, names.setdefault(key, len(names)), start, end, parent])
    path.write_text(json.dumps({"names": list(names), "columns": ["pass", "name", "start_ns", "end_ns", "parent"], "spans": rows}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "echelon" / "__init__.py").is_file():
        print(f"benchmark: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.NAME}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{stem}-corpus"
    try:
        with harness.SpeedSampler() as sampler:
            E, inputs, setup_times, setup_factors = set_up(workload, args.seed, workdir, sampler)
            gc.collect()
            gc.freeze()
            passes = measure(workload, E, inputs, args.seed, args.seconds, bool(args.trace), sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tasks_per_pass = len(passes[0].latencies)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    if args.trace:
        metrics = per_layer(passes)
        details = {}
        write_spans(OUT / f"{stem}-spans.json", passes)
    else:
        metrics, details = end_to_end(workload, passes, setup_times, setup_factors, tasks_per_pass)
    details.update(
        workload=workload.NAME,
        env=harness.env_stamp(ROOT, args.seed),
        passes=len(passes),
        tasks_per_pass=tasks_per_pass,
        setup_times_s=setup_times,
        failures=failures[:20],
    )
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
