"""In-memory span tracer for antidual's layers, and the per-layer metrics.

The tracer replaces public functions of ``antidual`` at the module attribute
their callers look them up by (``antidual.cli.automorphism_group``,
``antidual.symmetry.enumerate_isomorphisms``, ...), so nothing under
``src/`` changes.  A span is ``[name, layer, start, end, parent, info]``;
``info`` holds work counts read from the call's arguments and return value.

Pool workers of ``survey --jobs N`` inherit the wrappers by fork.  Each
worker writes the spans of every top-level call it serves to the spool
directory, and the parent merges them as children of the span that was open
when the worker was forked.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import time
from collections import defaultdict

import antidual.cli as cli
import antidual.groups as groups
import antidual.symmetry as symmetry

NAME, LAYER, START, END, PARENT, INFO = range(6)

_VERTEX_MAPS = tuple(itertools.permutations(range(4)))
_SEEDS_PER_PIECE = len(_VERTEX_MAPS)


def call_sites() -> list[tuple[object, str]]:
    """(module, attribute) pairs the tracer replaces, in a fixed order.

    Every function the CLI module calls by name, its own commands included,
    plus the three calls that cross a layer inside the package: the
    isomorphism search and decomposition builds made by ``symmetry`` and the
    coset enumeration made by ``groups.verify_isomorphism``.
    """
    sites = [
        (cli, attr) for attr, obj in vars(cli).items()
        if inspect.isfunction(obj) and obj.__module__.startswith("antidual.")
        and attr != "main"
    ]
    sites += [
        (symmetry, "enumerate_isomorphisms"),
        (symmetry, "Decomposition"),
        (groups, "coset_enumerate"),
    ]
    return sites


def _layer(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    return "realization" if module == "minkowski" else module


def _presentation_key(group) -> str:
    return repr((group.generators, group.relators))


def _enumeration_info(args, kwargs, result) -> dict:
    a, b = args[0], args[1]
    find_all = kwargs.get("find_all", args[2] if len(args) > 2 else True)
    if a.n != b.n:
        seeds = 0
    elif find_all or not result:
        seeds = _SEEDS_PER_PIECE * a.num_pieces
    else:
        first = result[0]
        seeds = (first.pieces[0] * _SEEDS_PER_PIECE
                 + _VERTEX_MAPS.index(first.vertex_maps[0]) + 1)
    return {"seeds": seeds, "found": len(result)}


def _closure_info(args, kwargs, result) -> dict:
    verify = kwargs.get("verify_closure", args[1] if len(args) > 1 else True)
    order = result.order
    return {"closure": order * order + order if verify else 0}


# Work counts taken from each call's public arguments and return value.
_HOOKS = {
    "build_realization": lambda a, kw, r: {"n": r.params.n},
    "validate_realization": lambda a, kw, r: {"invalid": int(not r.verdict)},
    "build_decomposition": lambda a, kw, r: {"cell": [r.n, r.k]},
    "Decomposition": lambda a, kw, r: {"cell": [r.n, r.k]},
    "_survey_cell": lambda a, kw, r: {"cell": [r["n"], r["k"]]},
    "automorphism_group": _closure_info,
    "enumerate_isomorphisms": _enumeration_info,
    "coset_enumerate": lambda a, kw, r: {
        "pres": _presentation_key(a[0]),
        "cosets": r.cosets_used,
        "order": r.order or 0,
    },
}


class Tracer:
    """Records spans while installed; ``spool_dir`` receives worker spans."""

    def __init__(self, spool_dir: str | None = None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._origin_pid = self._pid = os.getpid()
        self._fork_parent = -1
        self._spool_dir = spool_dir
        self._spooled = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr in call_sites():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(module.__name__, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Spans recorded so far, worker spans merged in; resets the tracer."""
        spans, self.spans = self.spans, []
        if self._spool_dir is not None:
            for fname in sorted(os.listdir(self._spool_dir)):
                path = os.path.join(self._spool_dir, fname)
                with open(path) as fh:
                    chunk = json.load(fh)
                os.remove(path)
                base = len(spans)
                for span in chunk["spans"]:
                    parent = span[PARENT]
                    span[PARENT] = base + parent if parent >= 0 else chunk["fork_parent"]
                    spans.append(span)
        return spans

    def _adopt_fork(self) -> None:
        # First call in a forked worker: drop the parent's copied spans but
        # remember which of its spans caused this worker.
        pid = os.getpid()
        if pid != self._pid:
            self._fork_parent = self._stack[-1] if self._stack else -1
            self._pid = pid
            self.spans = []
            self._stack = []

    def _spool(self) -> None:
        self._spooled += 1
        path = os.path.join(self._spool_dir, f"{self._pid}-{self._spooled:06d}.json")
        with open(path, "w") as fh:
            json.dump({"fork_parent": self._fork_parent, "spans": self.spans}, fh)
        self.spans = []

    def _wrap(self, site: str, fn):
        name = f"{site}.{fn.__name__}"
        layer = _layer(fn)
        hook = _HOOKS.get(fn.__name__)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tracer._adopt_fork()
            stack = tracer._stack
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[INFO] = {"raised": type(exc).__name__}
                raise
            else:
                span[END] = clock()
                if hook is not None:
                    span[INFO] = hook(args, kwargs, result)
                return result
            finally:
                stack.pop()
                if not stack and tracer._pid != tracer._origin_pid and tracer._spool_dir:
                    tracer._spool()

        # pickling by reference (pool.map of cli._survey_cell) must find the
        # wrapper under the original's module and qualified name
        traced.__module__ = fn.__module__
        traced.__qualname__ = fn.__qualname__
        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of the intervals its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for cs, ce in sorted((spans[j][START], spans[j][END]) for j in children[i]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def _hashable(value):
    # JSON turns a worker's tuples into lists
    return tuple(value) if isinstance(value, list) else value


def _fn(span) -> str:
    return span[NAME].rsplit(".", 1)[1]


def owners(spans: list[list]) -> list[int]:
    """For each span, the unit of work it belongs to: its nearest enclosing
    survey cell, or else its root span (one benchmark operation).

    A parent always precedes its children in ``spans``."""
    out: list[int] = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        out.append(i if parent < 0 or _fn(span) == "_survey_cell" else out[parent])
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and work counters of one pass."""
    selfs = self_times(spans)
    owner = owners(spans)
    by_fn: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_fn[_fn(span)].append(i)

    def self_of(*fns: str) -> float:
        return sum(selfs[i] for f in fns for i in by_fn[f])

    def layer_self(layer: str) -> float:
        return sum(s for s, span in zip(selfs, spans) if span[LAYER] == layer)

    def info(fns, key, per_owner=False):
        return [(owner[i], _hashable(spans[i][INFO][key])) if per_owner else spans[i][INFO][key]
                for f in fns for i in by_fn[f]
                if spans[i][INFO] and key in spans[i][INFO]]

    def share(num, den):
        return num / den if den else 0.0

    realized = info(["build_realization"], "n", per_owner=True)
    decomposed = info(["build_decomposition", "Decomposition"], "cell", per_owner=True)
    seeds = sum(info(["enumerate_isomorphisms"], "seeds"))
    found = sum(info(["enumerate_isomorphisms"], "found"))
    in_classify = [i for i in by_fn["enumerate_isomorphisms"]
                   if spans[i][PARENT] >= 0 and _fn(spans[spans[i][PARENT]]) == "classify"]
    presentations = info(["coset_enumerate"], "pres", per_owner=True)
    cosets = sum(info(["coset_enumerate"], "cosets"))
    missing = sum(1 for i in by_fn["verify_isomorphism"]
                  if (spans[i][INFO] or {}).get("raised") == "MissingGenerator")
    return {
        "realization.build_realization.calls": len(realized),
        "realization.builds_per_n": share(len(realized), len(set(realized))),
        "realization.validate_realization.self_s": self_of("validate_realization"),
        "realization.validate_realization.invalid": sum(info(["validate_realization"], "invalid")),
        "tilt.self_s": layer_self("tilt"),
        "decomposition.build_decomposition.calls": len(decomposed),
        "decomposition.builds_per_cell": share(len(decomposed), len(set(decomposed))),
        "decomposition.build_decomposition.self_s": self_of("build_decomposition", "Decomposition"),
        "decomposition.boundary_surface.self_s": self_of("boundary_surface"),
        "decomposition.angle_sum_check.self_s": self_of("angle_sum_check"),
        "symmetry.automorphism_group.self_s": self_of("automorphism_group"),
        "symmetry.closure_products": sum(info(["automorphism_group"], "closure")),
        "symmetry.enumerate_isomorphisms.self_s": self_of("enumerate_isomorphisms"),
        "symmetry.seeds_tried": seeds,
        "symmetry.seed_yield": share(found, seeds),
        "symmetry.classify.self_s": self_of("classify"),
        "symmetry.classify.pairs_tested": len(in_classify),
        "symmetry.classify.pairs_isomorphic": sum(
            1 for i in in_classify if spans[i][INFO]["found"]),
        "groups.coset_enumerate.calls": len(presentations),
        "groups.enumerations_per_presentation": share(
            len(presentations), len(set(presentations))),
        "groups.cosets_allocated": cosets,
        "groups.coset_yield": share(sum(info(["coset_enumerate"], "order")), cosets),
        "groups.verify_isomorphism.self_s": self_of("verify_isomorphism"),
        "groups.verify_isomorphism.missing_generator": missing,
        "cli.self_s": layer_self("cli"),
    }


def per_cell_counts(spans: list[list]) -> dict[str, list[int]]:
    """The distinct per-survey-cell counts of realizations and decomposition
    builds, and the most enumerations of one presentation in one cell."""
    owner = owners(spans)
    cells = {i for i, span in enumerate(spans) if _fn(span) == "_survey_cell"}
    realizations = dict.fromkeys(cells, 0)
    decompositions = dict.fromkeys(cells, 0)
    enumerations: dict[tuple[int, str], int] = defaultdict(int)
    for i, span in enumerate(spans):
        fn, cell = _fn(span), owner[i]
        if cell not in cells or cell == i:
            continue
        if fn == "build_realization":
            realizations[cell] += 1
        elif fn in ("build_decomposition", "Decomposition"):
            decompositions[cell] += 1
        elif fn == "coset_enumerate" and span[INFO]:
            enumerations[(cell, span[INFO]["pres"])] += 1
    return {
        "realizations": sorted(set(realizations.values())),
        "decompositions": sorted(set(decompositions.values())),
        "max_enumerations_per_presentation": [max(enumerations.values(), default=0)],
    }
