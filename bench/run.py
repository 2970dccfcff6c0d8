"""antidual benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run from the root of a checkout that holds ``src/antidual``.  Set-up time is
the median of several fresh processes that import the package and warm it
up; the workload then runs in a fresh process of its own (see worker.py).
Every end-to-end time is rescaled to a reference host speed, probed next to
each measurement (see speed.py).
``survey-par`` also runs one untimed ``survey`` pass in another process and
requires the same output digest.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``; a traced run also
writes the spans of its last traced pass under ``.bench_spans/``.  Exits 2
when the checkout has no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from speed import SpeedProbe, at_reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
RUN_TIMEOUT_S = 170

# the names of workloads.WORKLOADS, which cannot be imported before the
# checkout is known to hold antidual
WORKLOAD_NAMES = ("survey", "survey-par", "classify", "census")
UNITS = {
    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
    "realization.builds_per_n": "ratio", "decomposition.builds_per_cell": "ratio",
    "groups.enumerations_per_presentation": "ratio",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "share" if name.endswith(("share", "yield")) else "count"


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "antidual", "__init__.py")):
        print("bench: run from a checkout root holding src/antidual", file=sys.stderr)
        return 2

    # each set-up time is rescaled by the host speed probed around it
    setups = []
    with SpeedProbe() as probe:
        before = probe.sample()
        for _ in range(SETUP_PROBES):
            seconds = _worker(["--probe"], PROBE_TIMEOUT_S)["setup_s"]
            after = probe.sample()
            setups.append(at_reference(seconds, (before + after) / 2))
            before = after
    setup = statistics.median(setups)
    spool_dir = tempfile.mkdtemp(prefix=".bench_spool-", dir=".")
    try:
        run = _worker([
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spool-dir", spool_dir,
        ], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(spool_dir)
    problems = run.pop("problems")
    if args.workload == "survey-par":
        ref = _worker(["--workload", "survey", "--reference"], RUN_TIMEOUT_S)
        run["survey_digest"] = ref["digest"]
        if ref["digest"] != run["digest"]:
            problems.append("survey-par output differs from survey --jobs 1")
    metrics = run.pop("metrics")
    if not args.trace:
        metrics = {"setup_s": setup, **metrics}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "problems": problems, **run}))
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
