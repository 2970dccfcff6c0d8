import dataclasses
import hashlib
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import antidual.cli as cli
import antidual.groups as groups
import antidual.tilt as tilt
from antidual.cli import RunConfig, run_cli
from antidual.decomposition import Decomposition
from antidual.minkowski import MinkVec
from antidual.realization import (
    ANGLE_SUM_TOL, RESIDUAL_TOL, ValidationReport, validate_realization)
from antidual.symmetry import ClassificationResult, classify

GOLDEN = Path(__file__).parent / "golden"


def run_capture(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, out


def test_realize_json(capsys):
    code, out = run_capture(capsys, ["realize", "--n", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "div3"
    assert payload["h"] == pytest.approx(1.9319, abs=1e-3)
    assert payload["valid"] is True
    assert payload["residuals"]["angle_sum"] < 1e-10


def test_realize_prints_every_residual_its_verdict_reads(capsys):
    # validate_realization gates on each residual_* field of its report
    _, out = run_capture(capsys, ["realize", "--n", "7"])
    fields = [f.name for f in dataclasses.fields(ValidationReport)]
    assert list(json.loads(out)["residuals"]) == [
        f.removeprefix("residual_") for f in fields if f.startswith("residual_")]


def test_tilts_json(capsys):
    code, out = run_capture(capsys, ["tilts", "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["is_canonical"] is True
    assert payload["margin"] < 0
    assert payload["signs_agree"] is True
    assert "convention" not in payload
    assert all(v > 0 for v in payload["hull_margins"].values())


def test_decompose_json(capsys):
    code, out = run_capture(capsys, ["decompose", "--n", "6", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["boundary"]["genus"] == 3
    assert payload["boundary"]["genus_expected"] == 3
    assert payload["arcs"] == {"e0": 0, "e1": 1, "e2": 2, "e3": 3}


def test_decompose_full_embeds_complex(capsys):
    code, out = run_capture(capsys, ["decompose", "--n", "4", "--k", "0", "--full"])
    assert code == 0
    payload = json.loads(out)
    assert payload["complex"]["pieces"] == 8
    assert len(payload["complex"]["pairings"]) == 16


# sha256 of the decompose reports of every census cell, n <= 40, each as
# json.dumps(payload, indent=2) and a newline, recorded from the complex walk
# and 2-colouring before the reports were read off the quotient
DECOMPOSE_CENSUS_SHA256 = "46442a3f2de5a2dce48bafb31087d94bd082ad20c04fac410033b7198b545a1a"


def test_decompose_reports_over_the_census_are_pinned():
    digest = hashlib.sha256()
    for n in range(4, 41):
        for k in range(n):
            payload, ok = cli.cmd_decompose(n, k, RunConfig())
            assert ok, (n, k)
            digest.update(json.dumps(payload, indent=2).encode() + b"\n")
    assert digest.hexdigest() == DECOMPOSE_CENSUS_SHA256


def test_decompose_builds_the_complex_only_for_full(monkeypatch, capsys):
    # each report builds one Decomposition, with or without --full; only
    # --full lifts its gluing list to the complex's 4n gluings
    built = []
    init = Decomposition.__init__

    def counted(self, n, k):
        built.append((n, k))
        init(self, n, k)

    def refuse(self):
        raise AssertionError("the complex's gluings were lifted")

    monkeypatch.setattr(Decomposition, "__init__", counted)
    monkeypatch.setattr(Decomposition, "_gluings", refuse)
    code, out = run_capture(capsys, ["decompose", "--n", "12", "--k", "5"])
    assert code == 0 and json.loads(out)["boundary"]["genus"] == 9
    assert built == [(12, 5)]
    with pytest.raises(AssertionError, match="the complex's gluings were lifted"):
        run_cli(["decompose", "--n", "12", "--k", "5", "--full"])
    assert built == [(12, 5)] * 2


def test_classify_output(capsys):
    code, out = run_capture(capsys, ["classify", "--n", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == [[0, 6], [1, 5], [2, 4], [3]]
    assert payload["matches_expected"] is True


def test_isom_group_green_cell(capsys):
    code, out = run_capture(capsys, ["isom-group", "--n", "5", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["aut_order"] == 20
    assert payload["presentation_order"] == 20
    assert payload["certificate"]["verdict"] is True


def test_isom_group_disputed_cell_exits_one(capsys):
    # the generic n=0 mod 3, k=1 mod 3 cell: brute force disagrees with the
    # claimed group family, so the report flags a failed check
    code, out = run_capture(capsys, ["isom-group", "--n", "9", "--k", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["aut_order"] == 18
    assert payload["expected_order"] == 72
    assert payload["aut_matches_expected"] is False
    assert "missing_generator" in payload["certificate"]


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "antidual.cli", "realize"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "antidual.cli", "no-such-command"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_deterministic_output(capsys):
    _, out1 = run_capture(capsys, ["tilts", "--n", "9"])
    _, out2 = run_capture(capsys, ["tilts", "--n", "9"])
    assert out1 == out2


def test_survey_small_grid(capsys):
    code, out = run_capture(capsys, ["survey", "--n-min", "4", "--n-max", "5"])
    payload = json.loads(out)
    assert code == 0
    rows = payload["rows"]
    assert [r["k"] for r in rows] == [0, 1, 2, 3, 0, 1, 2, 3, 4]
    assert all(r["valid"] for r in rows)
    assert payload["internally_consistent"] is True
    for row in rows:
        assert row["class_representative"] == min(row["k"], row["mirror_target_k"])


def test_survey_class_representatives_are_the_least_of_their_classes(capsys):
    # each row's representative against the classes of classify, read
    # here apart from the survey's own internally_consistent check
    code, out = run_capture(capsys, ["survey", "--n-min", "4", "--n-max", "16"])
    assert code == 0
    least = {(n, k): min(cls) for n in range(4, 17) for cls in classify(n).classes
             for k in cls}
    rows = json.loads(out)["rows"]
    assert [(r["n"], r["k"]) for r in rows] == sorted(least)
    assert all(r["class_representative"] == least[r["n"], r["k"]] for r in rows)


def test_survey_consistency_fails_on_a_split_class(capsys, monkeypatch):
    # negative control: with each class of classify split into singletons,
    # k = n - 1 is the least of its class but its row's representative is 0
    real = cli.classify

    def split(n):
        return ClassificationResult(n, tuple((k,) for c in real(n).classes for k in c))

    monkeypatch.setattr(cli, "classify", split)
    code, out = run_capture(capsys, ["survey", "--n-min", "4", "--n-max", "5"])
    assert code == 1
    assert json.loads(out)["internally_consistent"] is False


def test_survey_census_matches_every_cell():
    # a survey reads each n's census at k = 0 only (notes/decisions.md §3);
    # every k's own decompose report must give that verdict and genus
    for n in range(4, 61):
        valid, _, genus = cli._survey_geometry(n)
        real = cli.build_realization(cli.solve_parameters(n))
        for k in range(n):
            payload, ok = cli._decompose_report(cli.build_decomposition(n, k), real, full=False)
            assert (ok, payload["boundary"]["genus"]) == (valid, genus), (n, k)


def test_survey_csv(capsys):
    code, out = run_capture(capsys, ["survey", "--n-min", "4", "--n-max", "4",
                                     "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,k,valid,tilt_margin,aut_order")
    assert len(lines) == 5  # header + 4 rows
    # the header is the survey row's keys in order, and each line its values
    _, out = run_capture(capsys, ["survey", "--n-min", "4", "--n-max", "4"])
    rows = json.loads(out)["rows"]
    assert lines[0].split(",") == list(rows[0])
    assert lines[1:] == [",".join(str(v) for v in row.values()) for row in rows]


def test_survey_parallel_matches_serial(monkeypatch, capsys):
    tasks = []

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, iterable):
            tasks.extend(iterable)
            return super().map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    _, serial = run_capture(capsys, ["survey", "--n-min", "9", "--n-max", "15"])
    assert tasks == []
    _, parallel = run_capture(capsys, ["survey", "--n-min", "9", "--n-max", "15",
                                       "--jobs", "2"])
    assert serial == parallel
    # one task per distinct presentation, dispatched largest first; the
    # self-dual presentation of n = 9 and 15 is one task carrying both n
    assert len({pres for pres, _, _, _ in tasks}) == len(tasks) == 20
    sizes = [sum(n for n, _, _ in cells) for _, _, _, cells in tasks]
    assert sizes == sorted(sizes, reverse=True)
    assert [sorted({n for n, _, _ in cells})
            for pres, _, _, cells in tasks if pres.provenance == "subcase22_selfdual"] == [[9, 15]]


def test_survey_forks_no_more_workers_than_tasks(monkeypatch, capsys):
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    # n = 4, 5, 6 have 1 + 2 + 3 distinct presentations; n = 4 alone has one,
    # so that survey is one task and runs in-process
    for n_max, jobs, expected in [(6, 64, [6]), (6, 2, [2]), (4, 64, [])]:
        pools.clear()
        assert run_cli(["survey", "--n-min", "4", "--n-max", str(n_max),
                        "--jobs", str(jobs)]) == 0
        capsys.readouterr()
        assert pools == expected, (n_max, jobs)


def test_csv_rejected_outside_survey():
    proc = subprocess.run(
        [sys.executable, "-m", "antidual.cli", "realize", "--n", "5",
         "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_capture(capsys, ["classify", "--n", "4", "--out", str(target)])
    assert code == 0
    assert target.read_text() == out


def test_text_format(capsys):
    code, out = run_capture(capsys, ["realize", "--n", "4", "--format", "text"])
    assert code == 0
    assert "h: 1.511" in out
    assert "valid: True" in out


def test_verify_presentations_reports_discrepancies(capsys):
    code, out = run_capture(capsys, ["verify-presentations",
                                     "--n-min", "8", "--n-max", "9"])
    payload = json.loads(out)
    assert payload["all_enumerations_completed"] is True
    assert code == 1  # the (9, k=1 mod 3) cells mismatch
    flagged = {(d["n"], d["k"]) for d in payload["discrepancies"]}
    assert flagged == {(9, 1), (9, 4), (9, 7)}


def test_verify_presentations_reports_the_certificate_verdict(capsys):
    # at n = 24 the k = 1 mod 3 presentations enumerate to |Aut| = 48 but
    # name the half-turn s, which is no automorphism there: the order
    # matches and the certificate fails; discrepancies and the exit code
    # still follow the order match alone
    code, out = run_capture(capsys, ["verify-presentations",
                                     "--n-min", "24", "--n-max", "24"])
    payload = json.loads(out)
    assert code == 0 and payload["discrepancies"] == []
    failed = {e["k"] for e in payload["entries"] if not e["certificate_verdict"]}
    assert failed == set(range(1, 24, 3))
    for e in payload["entries"]:
        assert e["match"] is True
        _, out = run_capture(capsys, ["isom-group", "--n", "24", "--k", str(e["k"])])
        assert e["certificate_verdict"] is json.loads(out)["certificate"]["verdict"]


def test_verify_presentations_clean_range(capsys):
    code, out = run_capture(capsys, ["verify-presentations",
                                     "--n-min", "4", "--n-max", "5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["discrepancies"] == []


@pytest.mark.parametrize("argv,golden", [
    (["survey", "--n-min", "4", "--n-max", "9"], "survey_4_9.json"),
    (["verify-presentations", "--n-min", "4", "--n-max", "9"],
     "verify_presentations_4_9.json"),
    (["survey", "--n-min", "4", "--n-max", "9", "--jobs", "2"], "survey_4_9.json"),
    (["decompose", "--n", "12", "--k", "5", "--full"], "decompose_12_5_full.json"),
    (["decompose", "--n", "9", "--k", "4"], "decompose_9_4.json"),
    (["isom-group", "--n", "6", "--k", "1", "--full"], "isom_group_6_1_full.json"),
    (["classify", "--n", "12"], "classify_12.json"),
    (["decompose", "--n", "40", "--k", "17"], "decompose_40_17.json"),
    (["decompose", "--n", "39", "--k", "19"], "decompose_39_19.json"),
    (["tilts", "--n", "7"], "tilts_7.json"),
    (["isom-group", "--n", "9", "--k", "1"], "isom_group_9_1.json"),
    (["decompose", "--n", "10", "--k", "3", "--full"], "decompose_10_3_full.json"),
    (["survey", "--n-min", "4", "--n-max", "9", "--format", "csv"], "survey_4_9.csv"),
    (["realize", "--n", "100"], "realize_100.json"),
    (["realize", "--n", "300"], "realize_300.json"),
    (["tilts", "--n", "300"], "tilts_300.json"),
    (["classify", "--n", "30"], "classify_30.json"),
    (["isom-group", "--n", "18", "--k", "4", "--full"], "isom_group_18_4_full.json"),
    (["classify", "--n", "60"], "classify_60.json"),
])
def test_output_matches_golden_bytes(capsys, argv, golden):
    # the golden files were written before survey cells came to share one
    # realization and one decomposition, the decompose ones before the
    # decomposition kernels moved to integer slot indices, and the isom-group
    # (whose 48 elements pin their order) and classify ones before the
    # isomorphism search did, the (30) classify one before the search's
    # prefilter read the complex's class sizes, and the two at the top of
    # the census range before the boundary vertices came from the edge-class
    # union-find, and the (10, 3) one, whose single polyhedron class has 6n
    # wedges, before the classes came from edge-link walks, and the csv one
    # before the header came from the survey row's keys, and the realize and
    # (300) tilts ones, which pin the geometry's floats, before the normals,
    # twist images and hull solves were stacked (the realize ones rewritten
    # when their residuals gained normal_agreement), and the (18, 4) one, a
    # cell with the half-turn s, before the search tried seeds as lifts, and
    # the (60) classify one, which pins every pairwise verdict to n = 60,
    # before a complex was held as its 8-slot quotient, and so checks the
    # canonical tables against the pairwise search;
    # verify-presentations exits 1 on its (9, k = 1 mod 3) discrepancies,
    # isom-group (9, 1) on its missing half-turn and (18, 4) on its printed
    # presentation of order 48, and realize (300) on its twist residual above
    # the tolerance
    code, out = run_capture(capsys, argv)
    assert out == (GOLDEN / golden).read_text()
    assert code == (1 if argv[0] == "verify-presentations" or golden in (
        "isom_group_9_1.json", "isom_group_18_4_full.json", "realize_300.json") else 0)


def test_tilts_report_evaluates_each_route_once(monkeypatch, capsys):
    calls = []
    for name in ("tilts_from_gram", "tilts_closed_form", "tilts_exact_form"):
        original = getattr(tilt, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(tilt, name, counted)
    assert run_cli(["tilts", "--n", "7"]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["tilts_closed_form", "tilts_exact_form", "tilts_from_gram"]


def test_survey_cell_builds_and_enumerates_once(monkeypatch, capsys):
    calls, presentations = [], []

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            if name == "coset_enumerate":
                presentations.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [(cli, "build_realization"),
                         (cli, "build_decomposition"), (cli, "coset_enumerate"),
                         (groups, "coset_enumerate")]:
        count(module, name)
    per_cell, per_group = {}, []
    survey_cell, survey_group = cli._survey_cell, cli._audit_presentation

    def counted_cell(*args):
        start = len(calls)
        row = survey_cell(*args)
        per_cell[(row["n"], row["k"])] = sorted(calls[start:])
        return row

    def counted_group(args):
        start = len(calls)
        rows = survey_group(args)
        per_group.append([c for c in calls[start:] if c != "antidual.cli.build_decomposition"])
        return rows

    monkeypatch.setattr(cli, "_survey_cell", counted_cell)
    monkeypatch.setattr(cli, "_audit_presentation", counted_group)
    assert run_cli(["survey", "--n-min", "4", "--n-max", "6"]) == 0
    capsys.readouterr()
    # one realization and one census complex per n, made outside the tasks,
    # one complex per cell, and one task per distinct presentation, which
    # enumerates it once and realizes nothing
    assert calls.count("antidual.cli.build_realization") == 3
    assert len(per_cell) == 4 + 5 + 6
    assert calls.count("antidual.cli.build_decomposition") == 3 + len(per_cell)
    assert calls.count("antidual.cli.coset_enumerate") == len(set(presentations)) == 6
    assert per_group == [["antidual.cli.coset_enumerate"]] * 6
    geometry = cli._survey_geometry(9)
    rows = cli._audit([(9, 1, geometry), (9, 4, geometry)], RunConfig(), cli._survey_cell)
    # (9, 1) has no mirror generator u, so verify_isomorphism raises
    # MissingGenerator; the cell still enumerates nothing
    assert (rows[0]["k"], rows[0]["isom_verdict"]) == (1, False)

    cells = [(n, k) for n in range(4, 7) for k in range(n)] + [(9, 1), (9, 4)]
    assert sorted(per_cell) == sorted(cells)
    for cell in cells:
        assert per_cell[cell] == ["antidual.cli.build_decomposition"], cell
    assert per_group[6:] == [["antidual.cli.coset_enumerate"]] * 2

    for argv, distinct in [(["verify-presentations", "--n-min", "4", "--n-max", "9"], 13),
                           (["isom-group", "--n", "9", "--k", "1"], 1)]:
        calls.clear()
        presentations.clear()
        assert run_cli(argv) == 1
        capsys.readouterr()
        assert calls.count("antidual.cli.coset_enumerate") == distinct, argv
        assert len(set(presentations)) == distinct, argv
        assert "antidual.groups.coset_enumerate" not in calls, argv


def test_each_command_builds_each_presentation_once(monkeypatch, capsys):
    # the report reads each cell's presentation from its enumeration
    calls = []
    original = cli.isometry_presentation

    def counted(n, k):
        calls.append((n, k))
        return original(n, k)

    monkeypatch.setattr(cli, "isometry_presentation", counted)
    for argv, expected in [(["survey", "--n-min", "4", "--n-max", "6"], 15),
                           (["verify-presentations", "--n-min", "4", "--n-max", "6"], 15),
                           (["isom-group", "--n", "6", "--k", "1"], 1)]:
        calls.clear()
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert len(calls) == len(set(calls)) == expected, argv


@pytest.mark.parametrize("argv", [
    ["survey", "--n-min", "4", "--n-max", "4", "--jobs", "0"],
    ["isom-group", "--n", "5", "--k", "2", "--coset-cap", "0"],
])
def test_invalid_config_is_usage_error(argv):
    proc = subprocess.run([sys.executable, "-m", "antidual.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["tilts", "--n", "4", "--jobs", "2"],
    ["realize", "--n", "4", "--coset-cap", "10"],
    ["decompose", "--n", "4", "--k", "0", "--tolerance", "1e-9"],
    ["classify", "--n", "4", "--jobs", "2"],
    ["isom-group", "--n", "4", "--k", "0", "--tolerance", "1e-9"],
    ["verify-presentations", "--jobs", "2"],
    # verdict tolerances are fixed per check, so no command reads one
    ["realize", "--n", "4", "--tolerance", "1e-9"],
    ["survey", "--tolerance", "1e-9"],
])
def test_option_a_command_does_not_read_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["realize", "--n", "100000"],
    ["tilts", "--n", "100000"],
])
def test_failed_computation_exits_one(argv):
    # plane_normal raises DegenerateSpan: a mathematical failure, not misuse
    proc = subprocess.run([sys.executable, "-m", "antidual.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "antidual: error: spanning vectors are numerically dependent\n")


@pytest.mark.parametrize("argv,message", [
    (["realize", "--n", "3"], "n must be >= 4, got 3"),
    (["decompose", "--n", "4", "--k", "9"], "k must lie in 0..3, got 9"),
    (["survey", "--n-min", "4", "--n-max", "3"], "--n-min 4 exceeds --n-max 3"),
    (["verify-presentations", "--n-min", "5", "--n-max", "4"],
     "--n-min 5 exceeds --n-max 4"),
])
def test_out_of_range_arguments_are_usage_errors(argv, message):
    proc = subprocess.run([sys.executable, "-m", "antidual.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.endswith(f"antidual: error: {message}\n")


def test_unwritable_out_is_usage_error(tmp_path):
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, "-m", "antidual.cli", "realize",
                           "--n", "4", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.endswith(
        f"antidual: error: cannot write --out {out}: No such file or directory\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("extra", [["--n-min", "4", "--n-max", "12"],
                                   ["--n-min", "12", "--n-max", "15", "--coset-cap", "10"]])
def test_survey_and_verify_presentations_agree_per_cell(capsys, extra):
    code, out = run_capture(capsys, ["survey", *extra])
    assert code == 0  # the survey's exit code does not read the group audit
    rows = [(r["n"], r["k"], r["aut_order"], r["presentation_order"], r["isom_verdict"])
            for r in json.loads(out)["rows"]]
    code, out = run_capture(capsys, ["verify-presentations", *extra])
    assert code == 1
    entries = [(e["n"], e["k"], e["aut_order"], e["presentation_order"],
                e["certificate_verdict"]) for e in json.loads(out)["entries"]]
    assert rows == entries
    if "--coset-cap" in extra:
        assert len(entries) == 54
        assert {order for _, _, _, order, _ in entries} == {"cap_exceeded"}


# -- negative controls: a broken input turns each verdict below false --------


@pytest.mark.parametrize("broken,field,value", [
    (lambda s: dataclasses.replace(s, genus=s.genus + 1), "genus", 7),
    (lambda s: dataclasses.replace(s, is_orientable=False), "orientable", False),
])
def test_decompose_fails_on_a_broken_boundary(monkeypatch, capsys, broken, field, value):
    surface = cli.boundary_surface
    monkeypatch.setattr(cli, "boundary_surface", lambda dec: broken(surface(dec)))
    code, out = run_capture(capsys, ["decompose", "--n", "7", "--k", "2"])
    assert code == 1
    payload = json.loads(out)
    boundary = {**payload["boundary"], field: value}
    # only the broken term is off: genus 6 = n - 1, connected, angle sums hold
    assert payload["boundary"] == boundary
    assert (boundary["genus_expected"], boundary["connected"]) == (6, True)
    assert payload["angle_sums"]["all_within"] is True


def test_decompose_fails_on_the_angles_of_another_n(monkeypatch, capsys):
    solve = cli.solve_parameters
    monkeypatch.setattr(cli, "solve_parameters", lambda n: solve(n + 1))
    code, out = run_capture(capsys, ["decompose", "--n", "7", "--k", "2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["angle_sums"]["all_within"] is False
    assert payload["angle_sums"]["max_residual"] > ANGLE_SUM_TOL
    assert payload["boundary"]["genus"] == payload["boundary"]["genus_expected"]


def test_classify_fails_on_merged_classes(monkeypatch, capsys):
    found = cli.classify

    def merged(n):
        first, second, *rest = found(n).classes
        return ClassificationResult(n, (tuple(sorted(first + second)), *rest))

    monkeypatch.setattr(cli, "classify", merged)
    code, out = run_capture(capsys, ["classify", "--n", "7"])
    assert code == 1
    assert json.loads(out)["matches_expected"] is False


def _invalid_survey_cells(capsys) -> list[tuple[int, int]]:
    code, out = run_capture(capsys, ["survey", "--n-min", "4", "--n-max", "6"])
    assert code == 1
    return [(r["n"], r["k"]) for r in json.loads(out)["rows"] if not r["valid"]]


def test_survey_row_fails_on_a_broken_cell(monkeypatch, capsys):
    # the survey reads one census per n, so a broken census of n = 5 fails
    # every row of n = 5; a defect at one k alone is left to
    # test_survey_census_matches_every_cell
    surface = cli.boundary_surface

    def broken(dec):
        s = surface(dec)
        return dataclasses.replace(s, genus=s.genus + 1) if dec.n == 5 else s

    monkeypatch.setattr(cli, "boundary_surface", broken)
    assert _invalid_survey_cells(capsys) == [(5, k) for k in range(5)]


def test_survey_rows_fail_on_an_invalid_realization(monkeypatch, capsys):
    validate = cli.validate_realization

    def forced(real):
        report = validate(real)
        return dataclasses.replace(report, verdict=False) if real.params.n == 5 else report

    monkeypatch.setattr(cli, "validate_realization", forced)
    assert _invalid_survey_cells(capsys) == [(5, k) for k in range(5)]


# At n = 100 the normal-agreement tolerance is 1e4 eps h^3 = 1.1e-7, so the
# near face normal may move by _MOVE and still agree with its closed form;
# each move below trips one condition of validate_realization and no other.
_MOVE = 1e-8


@pytest.mark.parametrize("move,tripped", [
    (lambda v: -v, "residual_normal_agreement"),
    (lambda v: v * (1 + _MOVE), "residual_unit_norm"),
    (lambda v: v + MinkVec(0.0, _MOVE, 0.0, 0.0), "residual_polar_orthogonality"),
])
def test_realize_fails_on_one_broken_condition(monkeypatch, capsys, move, tripped):
    real = cli.build_realization(cli.solve_parameters(100))
    base = validate_realization(real)
    assert base.verdict
    broken = dataclasses.replace(real, normal_near=move(real.normal_near))
    report = validate_realization(broken)
    assert not report.verdict
    assert getattr(report, tripped) > RESIDUAL_TOL
    for field in dataclasses.fields(ValidationReport):
        if field.name not in (tripped, "residual_normal_agreement", "verdict"):
            assert getattr(report, field.name) == getattr(base, field.name), field.name
    if tripped != "residual_normal_agreement":
        assert report.residual_normal_agreement < 2 * _MOVE
    monkeypatch.setattr(cli, "build_realization", lambda params: broken)
    code, out = run_capture(capsys, ["realize", "--n", "100"])
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_realize_fails_on_poles_that_are_not_ultraparallel(monkeypatch, capsys):
    # the upper face normal is a unit vector orthogonal to mid_upper, so as
    # mid_lower it makes |<mid_upper, mid_lower>| about 0, not above 1.  Unit
    # norm and polar orthogonality fix each pole up to sign by its three face
    # normals, so no move trips this condition alone: this one breaks the
    # twist, polar and edge-equality checks too
    real = cli.build_realization(cli.solve_parameters(100))
    broken = dataclasses.replace(real, mid_lower=real.normal_upper)
    report = validate_realization(broken)
    assert (report.ultraparallel, report.verdict) == (False, False)
    monkeypatch.setattr(cli, "build_realization", lambda params: broken)
    assert run_cli(["realize", "--n", "100"]) == 1
    # the report's equator length reads the same pair, so no report prints
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("antidual: error: |<u,w>| = ")
    assert captured.err.endswith(" <= 1 along equator\n")


def test_tilts_fail_on_positive_gram_tilts(monkeypatch, capsys):
    gram = tilt.tilts_from_gram
    monkeypatch.setattr(tilt, "tilts_from_gram",
                        lambda real: tilt.TiltVector(*map(abs, gram(real))))
    code, out = run_capture(capsys, ["tilts", "--n", "7"])
    assert code == 1
    payload = json.loads(out)
    assert payload["margin"] > 0
    assert payload["is_canonical"] is False
    assert payload["signs_agree"] is False
