"""polebracket benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload statesum --seed 7 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each is there):
    statesum  `invariant` and `bracket` calls, alternating, c = 12..16
    surfaces  `info` calls on large codes, c = 40..200
    check     `check --count 2` batteries of small diagrams

Each op is one in-process `polebracket.cli.main` call with --workers 1, fed
.tgc text on stdin, in a closed loop: the next call starts when the last one
returned.  The seed draws the calls from the shipped pool (workloads.plan);
their recorded cost adds up to about --seconds.  Every output is compared
with the digest recorded at the seed commit; on `check` a FAIL line also
fails the op.  On statesum the cheapest op runs once more, untimed, with
--workers 2 and must print the same bytes.

Times are reported at nominal machine speed.  The speed of a shared machine
drifts by a third within a minute, so between ops the runner times a fixed
pure-Python kernel (`calibrate`) and scales each op's time by
CAL_NOMINAL_S / (mean kernel time just before and after it).  The raw times
are printed too.  Between ops, untimed, the runner collects garbage: a real CLI
call is one process, so no op should pay for its predecessor's cycles.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each call twice back
to back, untraced and with every layer wrapped (tracer.py), prints per-layer
self times (scaled the same way, net of the wrapper's own cost), calls and
ratios, the tracing overhead (traced minus untraced wall_s, as the median
op's ratio times the untraced wall_s) and how much of the untraced latency
the layer self times account for on the median op, and writes the spans to
bench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

SETUP_PROBES = 5
CAL_ROUNDS = 20_000
CAL_NOMINAL_S = 0.006
# Largest share by which the median op's layer self times, net of the
# wrapper cost, may miss its untraced latency before the run says so.
ACCOUNTED = 0.05
OUT_DIR = Path(__file__).with_name("out")


def calibrate() -> float:
    """Fastest of three runs of a fixed kernel of tuple-keyed dict updates
    and list appends over a few MB, the kind of work polebracket does; its
    time follows the machine's momentary speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        d: dict = {}
        out = []
        for i in range(CAL_ROUNDS):
            k = ((i * 7919) & 65535, "A")
            d[k] = d.get(k, 0) + 1
            out.append((k, i))
        best = min(best, time.perf_counter() - t0)
    return best


def setup(workload: str, seed: int, seconds: float):
    cli = workloads.import_program()
    ops = workloads.plan(workload, workloads.load_pools()[workload], seed, seconds)
    return cli, ops


def probe_setup_s(args) -> tuple[float, float]:
    """(scaled, raw) median over fresh processes of the time from spawn
    until the first op could run: interpreter start, imports, pool load and
    plan."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only"]
    raw, cals = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {rc}")
        raw.append(dt)
        cals.append(calibrate())
    return statistics.median(scaled(raw, cals)), statistics.median(raw)


def call(cli, item, cmd) -> tuple[float, int, str]:
    """One op: (raw latency s, exit code, output).  Garbage is collected
    after it, untimed."""
    t0 = time.perf_counter()
    try:
        rc, out = workloads.call_cli(cli, workloads.argv_for(item, cmd), item.get("text", ""))
    except Exception:
        traceback.print_exc()
        rc, out = -1, ""
    latency = time.perf_counter() - t0
    gc.collect()
    return latency, rc, out


def run_ops(cli, ops):
    """Run the ops in order.  Returns (raw latencies s, kernel times s before
    the first op and after each, exit codes, outputs)."""
    latencies, codes, outputs = [], [], []
    cals = [calibrate()]
    for item, cmd in ops:
        latency, rc, out = call(cli, item, cmd)
        cals.append(calibrate())
        latencies.append(latency)
        codes.append(rc)
        outputs.append(out)
    return latencies, cals, codes, outputs


def run_paired(cli, ops, tracer):
    """Run each op twice back to back, between the same two kernel timings:
    once untraced and once under `tracer`, the order alternating from op to
    op.  Returns (untraced latencies, traced latencies, kernel times, exit
    codes, outputs); codes and outputs hold the untraced then the traced run
    of each op."""
    plain, traced, codes, outputs = [], [], [], []
    cals = [calibrate()]
    for i, (item, cmd) in enumerate(ops):
        tracer.op = i
        if i % 2:
            with tracer:
                traced_run = call(cli, item, cmd)
            plain_run = call(cli, item, cmd)
        else:
            plain_run = call(cli, item, cmd)
            with tracer:
                traced_run = call(cli, item, cmd)
        cals.append(calibrate())
        plain.append(plain_run[0])
        traced.append(traced_run[0])
        codes += [plain_run[1], traced_run[1]]
        outputs += [plain_run[2], traced_run[2]]
    return plain, traced, cals, codes, outputs


def scaled(latencies, cals) -> list[float]:
    """Times at nominal speed: each raw time times CAL_NOMINAL_S over the
    mean of the kernel times just before and after it."""
    return [lat * 2 * CAL_NOMINAL_S / (a + b) for lat, a, b in zip(latencies, cals, cals[1:])]


def failed_ops(ops, codes, outputs) -> int:
    """Ops that exited nonzero, printed other bytes than the reference, or
    printed a FAIL line."""
    failed = 0
    for i, ((item, cmd), rc, out) in enumerate(zip(ops, codes, outputs)):
        if (rc != 0 or workloads.digest(out) != item["digest"][cmd]
                or any(line.startswith("FAIL") for line in out.splitlines())):
            failed += 1
            print(f"FAILED op {i}: {cmd} {item['key']} exit {rc}", file=sys.stderr)
    return failed


def tail(latencies) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten ops
    beyond it; None when that would not reach above the median."""
    n = len(latencies)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def workers_identity(cli, ops, outputs) -> bool:
    """Untimed: the cheapest op again with --workers 2 prints the same bytes."""
    i = min(range(len(ops)), key=lambda k: (ops[k][0]["cost_s"], k))
    item, cmd = ops[i]
    rc, out = workloads.call_cli(cli, workloads.argv_for(item, cmd, workers=2), item["text"])
    same = rc == 0 and out == outputs[i]
    print(f"workers 1 vs 2 on {item['key']} {cmd}: {'identical' if same else 'DIFFERENT'}")
    return same


def report(workload, ops, latencies, cals, failed, setup):
    """Print every end-to-end metric with its unit; return those that go into
    the result line: name -> (value, unit)."""
    attempted = len(ops)
    times = scaled(latencies, cals)
    wall = sum(times)
    metrics = {
        "setup_s": (setup[0], "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    t = tail(times)
    if t is not None:
        metrics["op_tail_ms"] = (t[1] * 1e3, "ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if t is None:
        print(f"op_tail_ms omitted: {attempted} ops, need 20")
    else:
        print(f"op_tail_ms is p{t[0]:.1f} of {attempted} ops")
    print(f"raw setup_s {setup[1]:.6g} s, wall_s {sum(latencies):.6g} s, "
          f"op_p50_ms {statistics.median(latencies) * 1e3:.6g} ms; "
          f"kernel {min(cals) * 1e3:.4g}..{max(cals) * 1e3:.4g} ms")
    if workload == "statesum":
        states = sum(1 << item["crossings"] for item, _ in ops)
        print(f"us_per_state {wall / states * 1e6:.6g} us ({states} states)")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    return metrics


def trace_report(cli, ops, args):
    """Traced run: per-layer metrics, name -> (value, unit), the outputs of
    the untraced runs, and the number of failed ops of both runs."""
    tracer = tracing.Tracer()
    plain, traced, cals, codes, outputs = run_paired(cli, ops, tracer)
    failed = failed_ops([op for op in ops for _ in range(2)], codes, outputs)
    untraced_wall = sum(scaled(plain, cals))
    wall = sum(scaled(traced, cals))
    scale = wall / sum(traced)
    cost = tracing.wrapper_cost()
    spans = tracer.spans
    metrics = tracing.layer_metrics(spans, tracer.states, scale, cost)
    # A few long ops carry most of wall_s, and one slow moment in one of
    # them moves the difference of the sums by several percent; the median
    # over ops of the traced to untraced ratio does not move with it.
    share = statistics.median(t / u for t, u in zip(traced, plain)) - 1
    metrics["trace.overhead_s"] = (share * untraced_wall, "s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    print(f"tracing overhead: median op {100 * share:+.2f}% = {share * untraced_wall:.6g} s "
          f"of untraced wall_s {untraced_wall:.6g} s (traced wall_s {wall:.6g} s); "
          f"wrapped no-op: {len(spans)} spans x {sum(cost):.0f} ns = "
          f"{len(spans) * sum(cost) * scale / 1e9:.6g} s")
    per_op = [0.0] * len(ops)
    for span, ns in zip(spans, tracing.net_self_ns(spans, *cost)):
        per_op[span[4]] += ns / 1e9
    covered = statistics.median(s / u for s, u in zip(per_op, plain))
    print(f"layer self times net of the wrapper cost, over the untraced latency: median op "
          f"{100 * covered:.1f}%" + ("" if abs(covered - 1) <= ACCOUNTED else
                                      f"  NOT ACCOUNTED (off by more than {100 * ACCOUNTED:.0f}%)"))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracing.write_spans(path, spans)
    print(f"{len(spans)} spans written to {path.relative_to(workloads.ROOT)}")
    return metrics, outputs[::2], failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    try:
        cli, ops = setup(args.workload, args.seed, args.seconds)
    except (ImportError, OSError, KeyError, ValueError) as e:
        print(f"bench: cannot set up: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0

    env = workloads.environment()
    print(f"env python={env['python']} nproc={env['nproc']} commit={env['commit']} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"{len(ops)} ops: " + " ".join(f"{cmd}:{item['key']}" for item, cmd in ops))
    if args.trace:
        metrics, outputs, failed = trace_report(cli, ops, args)
        attempted = 2 * len(ops)
    else:
        setup_s = probe_setup_s(args)
        latencies, cals, codes, outputs = run_ops(cli, ops)
        failed = failed_ops(ops, codes, outputs)
        metrics = report(args.workload, ops, latencies, cals, failed, setup_s)
        attempted = len(ops)
    correct = failed == 0
    if args.workload == "statesum":
        correct = workers_identity(cli, ops, outputs) and correct
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
