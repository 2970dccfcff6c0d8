"""The benchmark's workloads: fixed sets of antidual calls and their checks.

An operation returns the text it emitted, one verdict per counted
operation (False where the mathematics reports a failed check) and a list
of problems: outputs that contradict what the package is known to get
right.  Verdicts are measured, problems make a run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import antidual.cli as cli

CFG = cli.RunConfig()

# Acceptance criteria 1 and 3 claim valid geometry and canonicality up to
# n = 100; past that a false `valid` is measured as a verdict, not an error.
REALIZE_CHECKED_MAX_N = 100


@dataclass(frozen=True)
class Op:
    key: tuple                  # fixes the op's place in the output digest
    units: int                  # operations it counts in attempted/failed
    run: Callable[[], tuple[str, list[bool], list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int                   # worker processes the program starts
    make_ops: Callable[[int], list[Op]]
    # Latency percentiles over single calls need many calls of one kind.
    # A survey pass is one call, and the 17 classify calls differ in size by
    # a factor of 250, so their percentiles fall on one particular call.
    # Those workloads report the median pass time as both percentiles.
    call_latency: bool = False


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _survey(n_min: int, n_max: int, jobs: int):
    argv = ["survey", "--n-min", str(n_min), "--n-max", str(n_max), "--jobs", str(jobs)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run_cli(argv)
    text = out.getvalue()
    payload = json.loads(text)
    rows = payload["rows"]
    problems = []
    cells = [(n, k) for n in range(n_min, n_max + 1) for k in range(n)]
    if [(r["n"], r["k"]) for r in rows] != cells:
        problems.append("survey rows are not the sorted (n, k) grid")
    if not payload["internally_consistent"]:
        problems.append("survey reports internally_consistent = false")
    for r in rows:
        n, k = r["n"], r["k"]
        if not r["valid"]:
            problems.append(f"survey ({n},{k}): geometry/census verdict false")
        if r["genus"] != (n - 3 if n % 3 == 0 else n - 1):
            problems.append(f"survey ({n},{k}): genus {r['genus']}")
        if r["class_representative"] != min(k, n - k - 1):
            problems.append(f"survey ({n},{k}): class representative")
        if not r["tilt_margin"] < 0:
            problems.append(f"survey ({n},{k}): non-negative tilt margin")
        if r["aut_order"] % (2 * n):
            problems.append(f"survey ({n},{k}): |Aut| not a multiple of 2n")
    verdicts = [r["valid"] and r["isom_verdict"] for r in rows]
    return text, verdicts, problems


def _classify(n: int):
    payload, ok = cli.cmd_classify(n, CFG)
    problems = [] if ok else [f"classify {n}: classes are not {{k, n-k-1}}"]
    return _dump(payload), [ok], problems


def _realize(n: int):
    payload, ok = cli.cmd_realize(n, CFG)
    problems = [] if ok or n > REALIZE_CHECKED_MAX_N else [f"realize {n}: invalid"]
    return _dump(payload), [ok], problems


def _tilts(n: int):
    payload, ok = cli.cmd_tilts(n, CFG)
    return _dump(payload), [ok], [] if ok else [f"tilts {n}: not canonical"]


def _decompose(n: int, k: int):
    payload, ok = cli.cmd_decompose(n, k, CFG)
    return _dump(payload), [ok], [] if ok else [f"decompose ({n},{k}): census check failed"]


def survey_ops(seed: int, jobs: int, n_min: int = 4, n_max: int = 16) -> list[Op]:
    # one CLI call; the CLI fixes the cell order, so the seed changes nothing
    cells = sum(range(n_min, n_max + 1))
    return [Op(("survey", n_min, n_max), cells, partial(_survey, n_min, n_max, jobs))]


def classify_ops(seed: int, n_min: int = 4, n_max: int = 20) -> list[Op]:
    ops = [Op(("classify", n), 1, partial(_classify, n)) for n in range(n_min, n_max + 1)]
    random.Random(seed).shuffle(ops)
    return ops


def census_ops(seed: int, geometry_max: int = 400, decompose_max: int = 40) -> list[Op]:
    ops = [Op(("realize", n), 1, partial(_realize, n)) for n in range(4, geometry_max + 1)]
    ops += [Op(("tilts", n), 1, partial(_tilts, n)) for n in range(4, geometry_max + 1)]
    ops += [Op(("decompose", n, k), 1, partial(_decompose, n, k))
            for n in range(4, decompose_max + 1) for k in range(n)]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("survey", 1, partial(survey_ops, jobs=1)),
        Workload("survey-par", 2, partial(survey_ops, jobs=2)),
        Workload("classify", 1, classify_ops),
        Workload("census", 1, census_ops, call_latency=True),
    )
}


def digest(outputs: dict[tuple, str]) -> str:
    """sha256 of the emitted text; several ops are joined in key order, so the
    digest does not depend on the seeded call order."""
    if len(outputs) == 1:
        (text,) = outputs.values()
        return hashlib.sha256(text.encode()).hexdigest()
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(f"{key!r}\n".encode())
        h.update(outputs[key].encode())
    return h.hexdigest()
