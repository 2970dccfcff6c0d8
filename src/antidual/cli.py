"""Command-line reports: realize geometry, tilts, census, groups, surveys.

Every subcommand writes one deterministic report (JSON by default) to
standard output and exits 0 when all mathematical checks in the requested
computation pass, 1 when some check fails (a non-canonical verdict, a
group-order mismatch), and 2 on usage errors: unknown or invalid options,
n < 4, k outside 0..n-1, --n-min above --n-max, or an --out path that cannot
be written (no report then reaches standard output).  A computation that
raises instead (say, a numerically degenerate realization at huge n) exits
1 with ``antidual: error: <message>`` on stderr and no report.

``survey`` and ``verify-presentations`` share one audit loop, ``_audit``, which
enumerates each distinct presentation once for all the cells that share it.
A survey reads the census once per n, at k = 0 (notes/decisions.md §3).

A survey row's ``valid`` field and the survey's exit code cover geometry,
canonicality and the census, not ``isom_verdict``: the printed group table
it audits is wrong on named subcase-2.2 cells (notes/decisions.md).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .decomposition import (
    Decomposition,
    arcs,
    boundary_surface,
    build_decomposition,
    decomposition_to_dict,
)
from .groups import (
    DEFAULT_COSET_CAP,
    PRINTED_ORDER_OVER_N,
    EnumerationResult,
    MissingGenerator,
    PresentedGroup,
    coset_enumerate,
    format_presentation,
    isometry_presentation,
    verify_isomorphism,
)
from .realization import (
    Realization,
    angle_sum_check,
    build_realization,
    dihedral_angles,
    edge_length,
    solve_parameters,
    validate_realization,
)
from .symmetry import automorphism_group, classify, group_to_dict, reflection_iso
from .tilt import canonicality_verdict, support_hull_margins


@dataclass(frozen=True)
class RunConfig:
    coset_cap: int = DEFAULT_COSET_CAP
    jobs: int = 1
    fmt: str = "json"
    out: str | None = None

    def __post_init__(self):
        if self.coset_cap < 1:
            raise ValueError("coset cap must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _tilt_dict(tv) -> dict:
    return {
        "upper": tv.t_upper,
        "lower": tv.t_lower,
        "near": tv.t_near,
        "far": tv.t_far,
    }


def cmd_realize(n: int, cfg: RunConfig) -> tuple[dict, bool]:
    return _realize_report(build_realization(solve_parameters(n)))


def _realize_report(real: Realization) -> tuple[dict, bool]:
    params = real.params
    report = validate_realization(real)
    ang = dihedral_angles(real)
    payload = {
        "n": params.n,
        "case": params.case.value,
        "c_n": params.c_n,
        "h": params.h,
        "r": params.r,
        "sin_theta": params.sin_theta,
        "theta": params.theta,
        "slant_angle": ang.slant,
        "equator_angle": ang.equator,
        "slant_edge_length": edge_length(real, "slant"),
        "equator_edge_length": edge_length(real, "equator"),
        "residuals": {
            "planarity": report.residual_planarity,
            "edge_equality": report.residual_edge_equality,
            "angle_sum": report.residual_angle_sum,
            "unit_norm": report.residual_unit_norm,
            "polar_orthogonality": report.residual_polar_orthogonality,
            "twist_consistency": report.residual_twist_consistency,
            "normal_agreement": report.residual_normal_agreement,
        },
        "h_exceeds_one": report.h_exceeds_one,
        "r_exceeds_one": report.r_exceeds_one,
        "ultraparallel": report.ultraparallel,
        "valid": report.verdict,
    }
    return payload, report.verdict


def cmd_tilts(n: int, cfg: RunConfig) -> tuple[dict, bool]:
    return _tilts_report(build_realization(solve_parameters(n)))


def _tilts_report(real: Realization) -> tuple[dict, bool]:
    verdict = canonicality_verdict(real)
    payload = {
        "n": real.params.n,
        "tilts_gram": _tilt_dict(verdict.gram),
        "tilts_closed_form": _tilt_dict(verdict.reference),
        "tilts_exact_form": _tilt_dict(verdict.exact),
        "margin": verdict.margin,
        "is_canonical": verdict.is_canonical,
        "agreement_residual": verdict.agreement_residual,
        "exact_agreement_residual": verdict.exact_agreement_residual,
        "signs_agree": verdict.signs_agree,
        "hull_margins": support_hull_margins(real),
    }
    return payload, verdict.is_canonical


def cmd_decompose(n: int, k: int, cfg: RunConfig, full: bool = False) -> tuple[dict, bool]:
    real = build_realization(solve_parameters(n))
    return _decompose_report(build_decomposition(n, k), real, full)


def _decompose_report(dec: Decomposition, real: Realization, full: bool) -> tuple[dict, bool]:
    # the census and boundary are lifted from the quotient; only --full
    # lifts the gluing list and the wedge lists, to export them
    n, k = dec.n, dec.k
    surf = boundary_surface(dec)
    angle_report = angle_sum_check(dec, real)
    genus_expected = n - 3 if n % 3 == 0 else n - 1
    payload = {
        "n": n,
        "k": k,
        "pieces": dec.num_pieces,
        # each piece has 4 glued faces, two to a pairing
        "pairings": 2 * dec.num_pieces,
        "edge_classes": [
            {
                "kind": cls.kind,
                "wedge_count": cls.wedge_count,
                "distinct_pieces": cls.distinct_pieces,
            }
            for cls in dec.class_summaries
        ],
        "arcs": arcs(dec),
        "boundary": {
            "vertices": surf.vertex_count,
            "edges": surf.edge_count,
            "faces": surf.face_count,
            "euler_characteristic": surf.euler_characteristic,
            "genus": surf.genus,
            "genus_expected": genus_expected,
            "orientable": surf.is_orientable,
            "connected": surf.is_connected,
        },
        "angle_sums": {
            "classes_checked": angle_report.classes_checked,
            "max_residual": angle_report.max_residual,
            "all_within": angle_report.all_within,
        },
    }
    if full:
        payload["complex"] = decomposition_to_dict(dec)
    ok = (
        surf.is_orientable
        and surf.is_connected
        and surf.genus == genus_expected
        and angle_report.all_within
    )
    return payload, ok


def cmd_classify(n: int, cfg: RunConfig) -> tuple[dict, bool]:
    result = classify(n)
    expected = [sorted({k, n - k - 1}) for k in range((n + 1) // 2)]
    matches = sorted(result.classes) == sorted(tuple(c) for c in expected)
    payload = {
        "n": n,
        "classes": [list(c) for c in result.classes],
        "expected_pairing": [list(c) for c in expected],
        "matches_expected": matches,
    }
    return payload, matches


def cmd_isom_group(n: int, k: int, cfg: RunConfig, full: bool = False) -> tuple[dict, bool]:
    enum = coset_enumerate(isometry_presentation(n, k), cap=cfg.coset_cap)
    return _isom_group_report(build_decomposition(n, k), enum, full)


def _isom_group_report(dec: Decomposition, enum: EnumerationResult,
                       full: bool) -> tuple[dict, bool]:
    n, k = dec.n, dec.k
    aut = automorphism_group(dec)
    pres = enum.group
    expected = n * PRINTED_ORDER_OVER_N[pres.provenance]
    try:
        cert = verify_isomorphism(enum, aut, dec)
    except MissingGenerator as exc:
        cert_payload = {"missing_generator": str(exc), "verdict": False}
    else:
        cert_payload = {
            "relators_hold": cert.relators_hold,
            "relator_results": list(cert.relator_results),
            "generated_order": cert.generated_order,
            "surjective": cert.surjective,
            "order_matches": cert.order_matches,
            "verdict": cert.verdict,
        }
    payload = {
        "n": n,
        "k": k,
        "aut_order": aut.order,
        "generators_found": sorted(
            name for name, iso in aut.generators.items() if iso is not None),
        "presentation": format_presentation(pres),
        "presentation_case": pres.provenance,
        "presentation_order": enum.order if enum.completed else "cap_exceeded",
        "expected_order": expected,
        "aut_matches_expected": aut.order == expected,
        "presentation_matches_aut": enum.completed and enum.order == aut.order,
        "certificate": cert_payload,
    }
    if full:
        payload["group"] = group_to_dict(aut)
    ok = (payload["aut_matches_expected"] and payload["presentation_matches_aut"]
          and cert_payload["verdict"])
    return payload, ok


def _audit_presentation(task: tuple[PresentedGroup, int, Callable, list[tuple]]) -> list[dict]:
    """The reports of every cell that shares one presentation, which is
    enumerated once for all of them."""
    pres, coset_cap, report, cells = task
    enum = coset_enumerate(pres, cap=coset_cap)
    return [report(enum, *cell) for cell in cells]


def _audit(cells: list[tuple], cfg: RunConfig, report: Callable) -> list[dict]:
    """``report(enumeration, *cell)`` for each cell, a tuple that starts with
    (n, k), sorted by (n, k).  One task per distinct presentation enumerates
    it once; tasks go largest first (by the sum of n over their cells) to no
    more workers than there are tasks."""
    groups: dict[PresentedGroup, list] = {}
    for cell in cells:
        groups.setdefault(isometry_presentation(*cell[:2]), []).append(cell)
    tasks = sorted(((pres, cfg.coset_cap, report, group) for pres, group in groups.items()),
                   key=lambda task: -sum(cell[0] for cell in task[3]))
    workers = min(cfg.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_audit_presentation, tasks))
    else:
        results = map(_audit_presentation, tasks)
    return sorted((row for rows in results for row in rows), key=lambda r: (r["n"], r["k"]))


def _survey_geometry(n: int) -> tuple[bool, float, int]:
    """The part of a survey row that does not depend on k: whether n passes
    `realize`, `tilts` and the census, its tilt margin and its genus."""
    real = build_realization(solve_parameters(n))
    _, valid = _realize_report(real)
    tilt_payload, canonical = _tilts_report(real)
    census, census_ok = _decompose_report(build_decomposition(n, 0), real, full=False)
    return valid and canonical and census_ok, tilt_payload["margin"], census["boundary"]["genus"]


def _survey_cell(enum: EnumerationResult, n: int, k: int,
                 geometry: tuple[bool, float, int]) -> dict:
    valid, tilt_margin, genus = geometry
    dec = build_decomposition(n, k)
    group_payload, _ = _isom_group_report(dec, enum, full=False)
    return {
        "n": n,
        "k": k,
        "valid": valid,
        "tilt_margin": tilt_margin,
        "aut_order": group_payload["aut_order"],
        "presentation_order": group_payload["presentation_order"],
        "isom_verdict": group_payload["certificate"]["verdict"],
        "class_representative": min(k, (n - k - 1) % n),
        "mirror_target_k": reflection_iso(dec).target[1],
        "genus": genus,
    }


def cmd_survey(n_min: int, n_max: int, cfg: RunConfig) -> tuple[dict, bool]:
    # each n's geometry is built here once and shared by its cells
    geometry = {n: _survey_geometry(n) for n in range(n_min, n_max + 1)}
    rows = _audit([(n, k, geometry[n]) for n in geometry for k in range(n)],
                  cfg, _survey_cell)
    # cannot fail: both fields are min(k, (n - k - 1) mod n) by construction
    consistent = all(
        row["class_representative"] == min(row["k"], row["mirror_target_k"])
        for row in rows
    )
    payload = {
        "n_min": n_min,
        "n_max": n_max,
        "rows": rows,
        "internally_consistent": consistent,
    }
    return payload, consistent and all(r["valid"] for r in rows)


def _presentation_entry(enum: EnumerationResult, n: int, k: int) -> dict:
    report, _ = _isom_group_report(build_decomposition(n, k), enum, full=False)
    return {
        "n": n,
        "k": k,
        "case": report["presentation_case"],
        "presentation_order": report["presentation_order"],
        "aut_order": report["aut_order"],
        "claimed_order": report["expected_order"],
        "match": report["presentation_matches_aut"],
        "certificate_verdict": report["certificate"]["verdict"],
    }


def cmd_verify_presentations(n_min: int, n_max: int, cfg: RunConfig) -> tuple[dict, bool]:
    entries = _audit([(n, k) for n in range(n_min, n_max + 1) for k in range(n)],
                     cfg, _presentation_entry)
    discrepancies = [{key: e[key] for key in ("n", "k", "case")}
                     for e in entries if not e["match"]]
    all_completed = all(e["presentation_order"] != "cap_exceeded" for e in entries)
    payload = {
        "n_min": n_min,
        "n_max": n_max,
        "entries": entries,
        "discrepancies": discrepancies,
        "all_enumerations_completed": all_completed,
    }
    return payload, all_completed and not discrepancies


# -- output ------------------------------------------------------------------


def _as_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_as_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                flat = ", ".join(f"{ik}={iv}" for ik, iv in item.items())
                lines.append(f"{pad}  - {flat}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _as_csv(payload: dict) -> str:
    if "rows" not in payload:
        raise ValueError("csv format is only defined for survey reports")
    rows = payload["rows"]
    buf = io.StringIO()
    # every row has the same keys, and a survey has at least n_min >= 4 rows
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(payload: dict, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2)
    elif cfg.fmt == "csv":
        text = _as_csv(payload)
    elif cfg.fmt == "text":
        text = _as_text(payload)
    else:
        raise ValueError(f"unknown format {cfg.fmt!r}")
    if not text.endswith("\n"):
        text += "\n"
    return text


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antidual",
        description=(
            "hyperbolic structure, canonical decomposition, and isometry "
            "groups of the twisted antiprism-dual quotients"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the tuning options it reads; an option left
    # out of the command line takes its default from RunConfig

    def common(p, *options, with_k=False, with_range=False):
        if with_range:
            p.add_argument("--n-min", type=int, default=4)
            p.add_argument("--n-max", type=int, default=12)
        else:
            p.add_argument("--n", type=int, required=True)
        if with_k:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                       default="json")
        for option in options:
            p.add_argument(option, type=int, default=argparse.SUPPRESS)
        p.add_argument("--out", type=str, default=None)

    common(sub.add_parser("realize", help="solve and validate the wedge geometry"))
    common(sub.add_parser("tilts", help="tilts and canonicality of the cut"))
    p = sub.add_parser("decompose", help="combinatorial decomposition census")
    common(p, with_k=True)
    p.add_argument("--full", action="store_true",
                   help="include the full pairing/edge-class JSON")
    common(sub.add_parser("classify", help="isometry classes of steps k"))
    p = sub.add_parser("isom-group", help="isometry group vs presentation")
    common(p, "--coset-cap", with_k=True)
    p.add_argument("--full", action="store_true",
                   help="include the permutation realization of the group")
    common(sub.add_parser("survey", help="grid survey over (n, k)", description=(
        "A row's valid field and the exit code cover the geometry (realize), "
        "canonicality (tilts) and the census (decompose), not isom_verdict: the "
        "printed group table it audits is wrong on named subcase-2.2 cells "
        "(see notes/decisions.md).")),
        "--coset-cap", "--jobs", with_range=True)
    common(sub.add_parser("verify-presentations",
                          help="coset-enumeration audit of the presentations"),
           "--coset-cap", with_range=True)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    if args.fmt == "csv" and args.command != "survey":
        parser.error("csv format is only defined for survey reports")
    options = vars(args)
    try:
        cfg = RunConfig(**{f.name: options[f.name] for f in fields(RunConfig)
                           if f.name in options})
    except ValueError as exc:
        parser.error(str(exc))
    n = options.get("n", options.get("n_min"))
    if n < 4:
        parser.error(f"n must be >= 4, got {n}")
    if "k" in options and not 0 <= args.k < args.n:
        parser.error(f"k must lie in 0..{args.n - 1}, got {args.k}")
    if "n_max" in options and args.n_min > args.n_max:
        parser.error(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    try:
        if args.command == "realize":
            payload, ok = cmd_realize(args.n, cfg)
        elif args.command == "tilts":
            payload, ok = cmd_tilts(args.n, cfg)
        elif args.command == "decompose":
            payload, ok = cmd_decompose(args.n, args.k, cfg, full=args.full)
        elif args.command == "classify":
            payload, ok = cmd_classify(args.n, cfg)
        elif args.command == "isom-group":
            payload, ok = cmd_isom_group(args.n, args.k, cfg, full=args.full)
        elif args.command == "survey":
            payload, ok = cmd_survey(args.n_min, args.n_max, cfg)
        else:
            payload, ok = cmd_verify_presentations(args.n_min, args.n_max, cfg)
    except ValueError as exc:
        # every package exception is a ValueError: a failed computation,
        # not a usage error
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    text = _emit(payload, cfg)
    if cfg.out:
        # written before stdout, so an unwritable path prints no report
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out {cfg.out}: {exc.strerror}")
    sys.stdout.write(text)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
