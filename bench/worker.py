"""One workload in a fresh process: runs passes and prints one JSON line.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload census --seed 1 --seconds 10 --trace 0
    python3 bench/worker.py --workload survey --reference

Run from the root of a checkout; ``antidual`` is imported from its ``src``.
``--probe`` times import plus warm-up.  ``--reference`` runs one untimed pass
and reports only its digest.  Otherwise passes repeat until ``--seconds``
have passed and at least two passes (with ``--trace 1``: one untraced and
one traced) have run.  Untraced runs probe the host's speed before each
pass and about every ``SEGMENT_S`` within it, and report their times at the
reference speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from speed import SpeedProbe, at_reference

SRC = os.path.join(os.getcwd(), "src")
SPANS_DIR = os.path.join(os.getcwd(), ".bench_spans")
SEGMENT_S = 2.0     # probe the host's speed about this often within a pass


def import_antidual():
    sys.path.insert(0, SRC)
    import antidual.cli
    if not os.path.abspath(antidual.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"antidual imported from {antidual.cli.__file__}, not {SRC}")
    return antidual.cli


def warm_up(cli) -> None:
    cfg = cli.RunConfig()
    cli.cmd_realize(4, cfg)
    cli.cmd_tilts(4, cfg)
    cli.cmd_decompose(4, 0, cfg)
    cli.cmd_isom_group(4, 0, cfg)
    cli.cmd_classify(4, cfg)


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_pass(ops, speed_probe=None) -> dict:
    """Run every op once, in order; time the pass and its ops.

    With a ``SpeedProbe``, the pass is cut between ops into segments of
    about ``SEGMENT_S``.  The probe samples the host's speed after each
    segment, outside the timed spans, and the times of a segment are also
    reported at the mean speed of the samples before and after it."""
    # imported late so that a set-up probe's clock covers importing antidual
    from workloads import digest

    outputs: dict[tuple, str] = {}
    latencies_ms: list[float] = []
    attempted = failed = verdict_false = 0
    problems: list[str] = []
    totals = dict.fromkeys(("wall_s", "cpu_s", "children_cpu_s", "ref_wall_s", "ref_cpu_s"), 0.0)
    probes: list[float] = []

    def end_segment() -> None:
        wall = time.perf_counter() - seg_start
        own1, kids1 = _cpu()
        cpu = own1 - own0 + kids1 - kids0
        totals["wall_s"] += wall
        totals["cpu_s"] += cpu
        totals["children_cpu_s"] += kids1 - kids0
        if speed_probe is not None:
            before = speed_probe.last
            speed = (before + speed_probe.sample()) / 2
            probes.append(speed)
            totals["ref_wall_s"] += at_reference(wall, speed)
            totals["ref_cpu_s"] += at_reference(cpu, speed)

    own0, kids0 = _cpu()
    seg_start = time.perf_counter()
    for i, op in enumerate(ops, 1):
        attempted += op.units
        t0 = time.perf_counter()
        try:
            text, verdicts, op_problems = op.run()
        except Exception as exc:  # a failing op is counted, the pass goes on
            latencies_ms.append((time.perf_counter() - t0) * 1e3)
            failed += op.units
            problems.append(f"{op.key}: {type(exc).__name__}: {exc}")
        else:
            latencies_ms.append((time.perf_counter() - t0) * 1e3)
            outputs[op.key] = text
            verdict_false += sum(1 for v in verdicts if not v)
            problems += op_problems
            if len(verdicts) != op.units:
                problems.append(f"{op.key}: {len(verdicts)} verdicts for {op.units} operations")
        if speed_probe is not None and i < len(ops) and (
                time.perf_counter() - seg_start >= SEGMENT_S):
            end_segment()
            own0, kids0 = _cpu()
            seg_start = time.perf_counter()
    end_segment()
    out = {
        **totals,
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p90_ms": percentile(latencies_ms, 90),
        "digest": digest(outputs),
        "attempted": attempted,
        "failed": failed,
        "verdict_false": verdict_false,
        "problems": problems,
    }
    if speed_probe is not None:
        # call latencies take the factor of the whole pass: the factor of
        # one segment carries more of the probe's own noise
        factor = totals["ref_wall_s"] / totals["wall_s"]
        out["ref_op_p50_ms"] = out["op_p50_ms"] * factor
        out["ref_op_p90_ms"] = out["op_p90_ms"] * factor
        out["probe_s"] = statistics.mean(probes)
    return out


def _traced_pass(tracer, ops) -> dict:
    tracer.install()
    try:
        return run_pass(ops)
    finally:
        tracer.uninstall()


def _write_spans(spans: list[list], name: str) -> str:
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, name)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent", "info"],
                   "spans": spans}, fh)
    return os.path.relpath(path)


def measure(workload, seed: int, seconds: float, trace: bool, spool_dir: str | None) -> dict:
    """Passes of one workload; end-to-end or per-layer metrics of the run."""
    from spans import Tracer, layer_metrics, per_cell_counts

    ops = workload.make_ops(seed)
    tracer = Tracer(spool_dir) if trace else None
    plain, traced, layers, cells = [], [], [], []
    # a traced run reports its times as measured; see speed.py
    speed_probe = None if trace else SpeedProbe()
    try:
        if speed_probe is not None:
            speed_probe.sample()
        start = time.perf_counter()
        while True:
            if tracer is not None and len(traced) < len(plain):
                traced.append(_traced_pass(tracer, ops))
                recorded = tracer.take()
                layers.append(layer_metrics(recorded))
                cells.append(per_cell_counts(recorded))
            else:
                plain.append(run_pass(ops, speed_probe))
            done = plain + traced
            if time.perf_counter() - start >= seconds and len(done) >= 2 and (
                    tracer is None or len(traced) == len(plain)):
                break
        # read before the speed probe's helpers end and count among the children
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        if speed_probe is not None:
            speed_probe.close()

    problems = sorted({p for r in done for p in r["problems"]})
    digests = sorted({r["digest"] for r in done})
    if len(digests) > 1:
        problems.append(f"passes emitted {len(digests)} different outputs")
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    out = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "digest": digests[0] if len(digests) == 1 else digests,
        "pass_wall_s": [round(r["wall_s"], 3) for r in plain],
        "attempted": attempted,
        "failed": failed,
        "op_order": [list(op.key) for op in ops[:5]],
    }
    jobs = workload.jobs if workload.jobs > 1 else 0
    if tracer is None:
        out["pass_probe_s"] = [round(r["probe_s"], 4) for r in plain]
        out["metrics"] = {
            key: statistics.median(r["ref_" + key] for r in plain)
            for key in ("wall_s", "cpu_s")}
        for key in ("op_p50_ms", "op_p90_ms"):
            # a percentile taken within each pass always falls on the same
            # rank; runs differ in their number of passes
            out["metrics"][key] = (statistics.median(r["ref_" + key] for r in plain)
                                   if workload.call_latency
                                   else out["metrics"]["wall_s"] * 1e3)
        # ru_maxrss is in KiB; pool workers run side by side
        out["metrics"]["peak_rss_mb"] = (own + jobs * kids) / 1024
    else:
        counts = {k: v for k, v in layers[0].items() if not k.endswith("self_s")}
        for other in layers[1:]:
            if {k: v for k, v in other.items() if not k.endswith("self_s")} != counts:
                problems.append("work counters differ between traced passes")
        if any(c != cells[0] for c in cells[1:]):
            problems.append("per-cell counts differ between traced passes")
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics.update(counts)
        pool_wall = statistics.median(r["wall_s"] for r in traced)
        workers_cpu = statistics.median(r["children_cpu_s"] for r in traced)
        metrics["cli.pool.workers_cpu_s"] = workers_cpu if jobs else 0.0
        metrics["cli.pool.busy_share"] = workers_cpu / (jobs * pool_wall) if jobs else 0.0
        metrics["trace.overhead_s"] = pool_wall - statistics.median(r["wall_s"] for r in plain)
        units = sum(r["attempted"] for r in traced)
        metrics["failed_share"] = sum(r["failed"] for r in traced) / units
        metrics["verdict_false_share"] = sum(r["verdict_false"] for r in traced) / units
        out["metrics"] = metrics
        out["per_cell"] = cells[0]
        out["spans"] = recorded
    out["problems"] = problems
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spool-dir")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    cli = import_antidual()
    warm_up(cli)
    if args.probe:
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.reference:
        print(json.dumps({"digest": run_pass(workload.make_ops(args.seed))["digest"]}))
        return 0
    out = measure(workload, args.seed, args.seconds, bool(args.trace), args.spool_dir)
    if args.trace:
        out["spans_file"] = _write_spans(out.pop("spans"), f"{workload.name}-seed{args.seed}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
