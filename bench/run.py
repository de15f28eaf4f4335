"""nskwave benchmark: one workload, its end-to-end metrics or, traced, its
per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload stability-pair --seed 1 --seconds 20 --trace 0

The workload repeats whole rounds of its operation until ``--seconds``
have passed, in this single process and on one worker.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones: ``setup_s`` (median of five fresh-process
set-ups), ``run_s`` (median round) and ``peak_rss_mb``.  With ``--trace 1``
rounds alternate untraced and traced, and the metrics are the per-layer
ones, medians over the traced rounds, together with the tracing overhead.
Result and trace files go to ``.bench_out/<workload>/``.  See README.md
in this directory.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, instrument, layer_table, median_duration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5


def _calls(name):
    return lambda tab: tab[name]["calls"] if name in tab else 0


def _items(name):
    return lambda tab: tab[name]["items"] if name in tab else 0


def _total_s(*names):
    return lambda tab: sum((tab[n]["total_s"] for n in names if n in tab), 0.0)


def _self_s(name):
    return lambda tab: tab[name]["self_s"] if name in tab else 0.0


def _mean_ms(name):
    return lambda tab: 1e3 * tab[name]["total_s"] / tab[name]["calls"] if name in tab else 0.0


#: per-layer metrics of one traced round: (name, unit, value from the span table);
#: *_s are inclusive seconds per round, except quadrature.s, the quadrature's
#: self time without the integrand evaluations it calls back into
ROUND_METRICS = [
    ("solver.steps", "count", _calls("solver.step")),
    ("solver.step_ms", "ms", _mean_ms("solver.step")),
    ("solver.rhs_calls", "count", _calls("solver.rhs")),
    ("solver.rhs_s", "s", _total_s("solver.rhs")),
    ("solver.shift_rate_calls", "count", _calls("solver.shift_rate")),
    ("solver.shift_rate_s", "s", _total_s("solver.shift_rate")),
    ("rarefaction.eval_calls", "count", _calls("rarefaction.eval")),
    ("rarefaction.eval_points", "count", _items("rarefaction.eval")),
    ("rarefaction.eval_s", "s", _total_s("rarefaction.eval")),
    ("shockprofile.volume_points", "count", _items("shockprofile.volume")),
    ("shockprofile.volume_s", "s", _total_s("shockprofile.volume")),
    ("composite.eval_bar_calls", "count", _calls("composite.eval_bar")),
    ("composite.eval_bar_s", "s", _total_s("composite.eval_bar")),
    ("composite.interaction_norms_s", "s", _total_s("composite.interaction_norms")),
    ("quadrature.integrand_points", "count", _items("composite.integrand")),
    ("quadrature.s", "s", _self_s("quadrature.adaptive_simpson")),
    ("diagnostics.records", "count", _calls("diagnostics.collect_record")),
    ("diagnostics.record_ms", "ms", _mean_ms("diagnostics.collect_record")),
    ("cli.write_s", "s", _total_s("cli.write_csv", "cli.write_ndjson")),
    ("cli.bytes_written", "bytes", _items("cli.write_file")),
]
#: per-layer metrics measured once per process, or over all rounds
PROCESS_METRICS = [
    ("shockprofile.solve_s", "s"),      # median of one profile solve
    ("config.parse_s", "s"),
    ("nskwave.import_s", "s"),
    ("trace.run_s", "s"),               # median traced round
    ("trace.untraced_run_s", "s"),      # median untraced round of the same process
    ("trace.overhead_pct", "%"),
]
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]


def measure_setup(config_path: Path) -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(ROOT),
                               str(config_path)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tables, setup_table, import_s, round_times) -> dict:
    """name -> (value, unit): medians over the traced rounds' span tables,
    then the metrics measured once per process or over all rounds."""
    metrics = {name: (median([fn(tab) for tab in tables]), unit)
               for name, unit, fn in ROUND_METRICS}
    solves = [d for tab in (setup_table, *tables)
              for d in tab.get("shockprofile.solve_profile", {}).get("durations_s", [])]
    traced = median([t for t, on in round_times if on])
    untraced = median([t for t, on in round_times if not on])
    once = {
        "shockprofile.solve_s": median(solves),
        "config.parse_s": median_duration(setup_table, "config.parse_config"),
        "nskwave.import_s": import_s,
        "trace.run_s": traced,
        "trace.untraced_run_s": untraced,
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced if untraced else 0.0,
    }
    metrics.update({name: (once[name], unit) for name, unit in PROCESS_METRICS})
    return metrics


def write_trace(path: Path, spans, table):
    origin = spans[0][1] if spans else 0.0
    path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "items"],
        "spans": [[n, s - origin, e - origin, p, k] for n, s, e, p, k in spans],
        "layers": {name: {k: v for k, v in row.items() if k != "durations_s"}
                   for name, row in table.items()},
    }))


def print_layers(table, out=sys.stderr):
    print(f"{'span':32s} {'calls':>8s} {'items':>12s} {'total_s':>10s} {'self_s':>10s}",
          file=out)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
        print(f"{name:32s} {row['calls']:8d} {row['items']:12d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "nskwave" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import nskwave  # noqa: F401  (timed: the first import in this process)
    import_s = time.perf_counter() - start
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, out, args.seed)

    setup_s = None if args.trace else measure_setup(workload.config_path)
    setup_tracer = Tracer()
    if args.trace:
        instrument(setup_tracer)
    try:
        workload.setup(setup_tracer.span if args.trace else workloads.null_span)
    finally:
        setup_tracer.remove()

    attempted = failed = 0
    first = None
    problems: list[str] = []
    round_times: list[tuple[float, bool]] = []   # (seconds, traced)
    tables, first_spans = [], None
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(round_times) % 2 == 1
        tracer = Tracer()
        if traced:
            instrument(tracer)
        t0 = time.perf_counter()
        try:
            output = workload.run_round(tracer.span if traced else workloads.null_span)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            output = None
        finally:
            elapsed = time.perf_counter() - t0
            tracer.remove()
        attempted += workload.ops_per_round
        if output is None:
            failed += workload.ops_per_round
        else:
            round_times.append((elapsed, traced))
            if first is None:
                first = output
            elif not workload.same_output(first, output):
                problems.append(f"round {len(round_times)} gave other outputs than round 1")
            if traced:
                tables.append(layer_table(tracer.spans))
                if first_spans is None:
                    first_spans = tracer.spans
        spent = time.perf_counter() - begin
        both = len({on for _, on in round_times}) == 2
        if spent >= args.seconds and (both or not args.trace) or spent >= 3 * args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if first is None:
        problems.append("no round completed")
    else:
        try:
            problems += workload.check(first)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems.append("the checks could not read the outputs")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        setup_table = layer_table(setup_tracer.spans)
        metrics = per_layer(tables, setup_table, import_s, round_times)
        if tables:
            print_layers(tables[0])
            offset = len(setup_tracer.spans)
            write_trace(out / "trace.json", setup_tracer.spans + [
                [n, s, e, p + offset if p >= 0 else p, k] for n, s, e, p, k in first_spans],
                tables[0])
    else:
        values = {"setup_s": setup_s, "run_s": median([t for t, _ in round_times]),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(f"{args.workload}: {len(round_times)} rounds "
          f"({'traced/untraced alternating' if args.trace else 'untraced'}), seconds: "
          + " ".join(f"{t:.3f}" for t, _ in round_times), file=sys.stderr)
    (out / ("trace_result.json" if args.trace else "result.json")).write_text(json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
