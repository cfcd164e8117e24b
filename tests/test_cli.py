import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from choquet import lp
from choquet.cli import _GEN_ARGS, main
from choquet.convexify import CONVEX_TOL
from choquet.maxprinciple import ARGMAX_TOL
from conftest import count_lps


def run_cli(argv, stdin_text=None, capsys=None):
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = main(argv)
    finally:
        sys.stdin = old_stdin
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_boundary_pipe(capsys):
    code, out, _ = run_cli(["gen", "naturals", "4"], capsys=capsys)
    assert code == 0
    code, out, _ = run_cli(["boundary", "-"], stdin_text=out, capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["boundary"] == ["1", "4"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("naturals", ["naturals", "5"]),
        ("interval", ["interval", "7"]),
        ("cantor", ["cantor", "1", "--points-per-cell", "2"]),
        ("disk", ["disk", "--n-circle", "8", "--rings", "1", "--degree", "2"]),
        ("random", ["random", "6", "3", "--seed", "4"]),
    ],
)
def test_gen_output_matches_golden(name, argv, capsys):
    code, out, _ = run_cli(["gen", *argv], capsys=capsys)
    assert code == 0
    golden = Path(__file__).parent / "golden" / f"gen_{name}.json"
    assert out == golden.read_text(encoding="utf-8")


_GOLDEN_FIXTURES = {
    "naturals4": ["naturals", "4"],
    "interval101": ["interval", "101"],
    "cantor2": ["cantor", "2"],
    "disk64_2_8": ["disk", "--n-circle", "64", "--rings", "2", "--degree", "8"],
}
_EVERY_2ND_CIRCLE = ",".join(f"circ{k:03d}" for k in range(0, 64, 2))
_DATA = Path(__file__).parent / "data"
_HULL_REPORTS = {
    "hull_naturals4": ("naturals4", ["hull", "--points", "1,4"]),
    "hull_interval101": ("interval101", ["hull", "--points", "0.1,0.5,0.9"]),
    "hull_cantor2": ("cantor2", ["hull", "--points", "0,0.5,1"]),
    "hull_disk64_2_8": ("disk64_2_8", ["hull", "--points", _EVERY_2ND_CIRCLE]),
    **{f"extreme_{fx}": (fx, ["extreme", "--krein-milman"]) for fx in _GOLDEN_FIXTURES},
    # integer spec coefficients: every field value is exact; two maximizers
    # in bauer_naturals4, three (one off the boundary) in the cantor2 reports
    "bauer_naturals4": ("naturals4", ["bauer", "--spec", str(_DATA / "spec_naturals4.json")]),
    "bauer_cantor2": ("cantor2", ["bauer", "--spec", str(_DATA / "spec_cantor2_a.json")]),
    "multimax_cantor2": ("cantor2", ["multimax", "--spec", str(_DATA / "spec_cantor2_a.json"),
                                     "--spec", str(_DATA / "spec_cantor2_b.json")]),
    # boundary {1, 4} by the closed form, interior {2, 3} by two LPs each
    "keyinterval_naturals4": ("naturals4", ["keyinterval", "--field",
                                            str(_DATA / "field_naturals4.json")]),
    # integer fields, not Choquet convex: the biconjugate is 0 on
    # naturals(4) and lowers two cantor(2) values from 2 to 0.5
    "convexify_naturals4": ("naturals4", ["convexify", "--field",
                                          str(_DATA / "field_naturals4.json")]),
    "convexify_cantor2": ("cantor2", ["convexify", "--field",
                                      str(_DATA / "field_cantor2.json")]),
}


@pytest.mark.parametrize("name", _HULL_REPORTS)
def test_hull_reports_match_golden(name, tmp_path, capsys):
    fixture, argv = _HULL_REPORTS[name]
    inst = tmp_path / "inst.json"
    run_cli(["gen", *_GOLDEN_FIXTURES[fixture], "-o", str(inst)], capsys=capsys)
    code, out, _ = run_cli([argv[0], str(inst), *argv[1:]], capsys=capsys)
    assert code == 0
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    assert out == golden.read_text(encoding="utf-8")


def test_gen_writes_expected_block(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(["gen", "interval", "5", "-o", str(path)], capsys=capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["expected"]["boundary"] == ["0", "1"]
    assert len(doc["labels"]) == 5


def test_bauer_subcommand(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    spec = tmp_path / "spec.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    pieces = [
        {"a": [0.0, 2 * (s - 0.4)], "beta": 0.16 - s * s} for s in (1.0, 0.5, 1 / 3, 0.25)
    ]
    spec.write_text(json.dumps({"pieces": pieces}))
    code, out, _ = run_cli(["bauer", str(inst), "--spec", str(spec)], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["argmax"] == ["1"]
    assert doc["bauer_ok"] is True
    assert doc["max_value"] == pytest.approx(0.36)


def test_boundary_rejects_nan_basis(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "labels": ["a", "b"], "coords": None,
        "basis": [[1.0, 1.0], [None, 0.5]],
    }))
    code, _, err = run_cli(["boundary", str(bad)], capsys=capsys)
    assert code == 2
    assert "error" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(["boundary", str(bad)], capsys=capsys)
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "inst.json", "--threads", "2"])
    assert exc.value.code == 2


def test_hull_and_separate(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    code, out, _ = run_cli(["hull", str(inst), "--points", "1,4"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["hull"] == ["1", "2", "3", "4"]
    code, out, _ = run_cli(
        ["separate", str(inst), "--points", "2,3", "--target", "1"], capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["separable"] is True and doc["margin"] >= 1e-6
    code, _, err = run_cli(
        ["separate", str(inst), "--points", "2,3", "--target", "2"], capsys=capsys
    )
    assert code == 2  # target inside the set


def test_extreme_and_krein_milman(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    code, out, _ = run_cli(["extreme", str(inst), "--krein-milman"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["extreme"] == ["1", "4"]
    assert doc["krein_milman"]["ok"] is True


def test_kyfan_subcommand(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    code, out, _ = run_cli(["kyfan", str(inst), "--segment", "1,4"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["segment"]["members"] == ["1", "2", "3", "4"]
    code, out, _ = run_cli(["kyfan", str(inst)], capsys=capsys)
    assert json.loads(out)["extreme"]["members"] == ["1", "4"]


def test_keyinterval_and_field_io(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    field = tmp_path / "f.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    field.write_text("[0, 1, 1, 0]")
    code, out, _ = run_cli(["keyinterval", str(inst), "--field", str(field)], capsys=capsys)
    assert code == 0
    rows = json.loads(out)["intervals"]
    assert rows[1]["lo"] == pytest.approx(0.0, abs=1e-9)
    assert rows[1]["hi"] == pytest.approx(1.0, abs=1e-9)
    # CSV field input
    field_csv = tmp_path / "f.csv"
    field_csv.write_text("0\n1\n1\n0\n")
    code, out_csv, _ = run_cli(
        ["keyinterval", str(inst), "--field", str(field_csv), "--csv"], capsys=capsys
    )
    assert code == 0
    assert out_csv.splitlines()[0] == "label,lo,value,hi"


def test_convexify_and_check_convex(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    field = tmp_path / "f.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    field.write_text("[0, 1, 1, 0]")
    code, out, _ = run_cli(
        ["convexify", str(inst), "--field", str(field), "--alpha", "1.0"], capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["biconjugate"] == pytest.approx([0.0] * 4, abs=1e-9)
    assert doc["hat_signed"] == pytest.approx([-1.0] * 4, abs=1e-9)
    assert doc["is_choquet_convex"] is False
    assert doc["signed_vs_positive_gap"] == pytest.approx(1.0, abs=1e-8)

    code, out, _ = run_cli(["check-convex", str(inst), "--field", str(field)], capsys=capsys)
    assert code == 0
    assert json.loads(out)["is_choquet_convex"] is False


def test_expose_subcommand(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    code, out, _ = run_cli(["expose", str(inst), "--target", "4"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["margin"] >= 1e-6
    code, _, err = run_cli(["expose", str(inst), "--target", "2"], capsys=capsys)
    assert code == 2


def test_generic_subcommand_and_env_seed(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    trials = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        ["generic", str(inst), "--trials", "50", "--eps", "0.1", "--seed", "5",
         "--trial-csv", str(trials)],
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 5 and doc["trials"] == 50
    assert trials.read_text().splitlines()[0] == "trial,unique_max"


def test_deterministic_reports(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    outs = []
    for _ in range(2):
        run_cli(["gen", "random", "7", "3", "--seed", "9", "-o", str(inst)], capsys=capsys)
        _, out, _ = run_cli(["boundary", str(inst)], capsys=capsys)
        outs.append(out)
    assert outs[0] == outs[1]


def test_file_round_trip_equals_in_memory(tmp_path, capsys):
    from choquet import measures
    from choquet._util import dumps
    from choquet.generators import gen_naturals

    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "5", "-o", str(inst)], capsys=capsys)
    _, via_file, _ = run_cli(["boundary", str(inst)], capsys=capsys)
    system = gen_naturals(5).system
    in_memory = dumps(measures.choquet_boundary(system).to_dict(system))
    assert via_file == in_memory


def test_plot_subcommand(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    code, svg1, _ = run_cli(["plot", str(inst), "--boundary"], capsys=capsys)
    assert code == 0
    assert svg1.startswith("<svg") and svg1.count("<circle") == 4
    _, svg2, _ = run_cli(["plot", str(inst), "--boundary"], capsys=capsys)
    assert svg1 == svg2
    code, _, _ = run_cli(["plot", str(inst), "--axes", "0,1,2"], capsys=capsys)
    assert code == 2  # more than two projection axes


def test_plot_flag_on_boundary(tmp_path, capsys):
    inst = tmp_path / "disk.json"
    svg = tmp_path / "disk.svg"
    run_cli(["gen", "disk", "--n-circle", "12", "--rings", "1", "--degree", "2",
             "-o", str(inst)], capsys=capsys)
    code, _, _ = run_cli(["boundary", str(inst), "--plot", str(svg)], capsys=capsys)
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_basis_csv_input(tmp_path, capsys):
    csv_path = tmp_path / "B.csv"
    csv_path.write_text("1,1,1,1\n1,0.5,0.3333333333333333,0.25\n")
    code, out, _ = run_cli(["boundary", "--basis-csv", str(csv_path)], capsys=capsys)
    assert code == 0
    assert json.loads(out)["boundary"] == ["x0", "x3"]


def test_dump_lp_flag(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "nat.json"
    dump = tmp_path / "lps.jsonl"
    run_cli(["gen", "naturals", "3", "-o", str(inst)], capsys=capsys)
    calls = count_lps(monkeypatch)
    code, _, _ = run_cli(["boundary", str(inst), "--dump-lp", str(dump)], capsys=capsys)
    assert code == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == len(calls) >= 1  # one record per membership LP solved
    # every record replays: the rebuilt LP gives the same status and value
    for rec in map(json.loads, lines):
        out = lp.solve(lp.LinearProgram.from_dict(rec["lp"]))
        assert out.status == rec["status"]
        assert (out.value if out.status == lp.OPTIMAL else None) == rec.get("value")

    # Ky Fan segments are a closed form: the run solves no LP
    nat4 = tmp_path / "nat4.json"
    kyfan_dump = tmp_path / "kyfan.jsonl"
    run_cli(["gen", "naturals", "4", "-o", str(nat4)], capsys=capsys)
    code, out, _ = run_cli(
        ["kyfan", str(nat4), "--segment", "1,4", "--dump-lp", str(kyfan_dump)], capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["segment"]["members"] == ["1", "2", "3", "4"]
    assert not kyfan_dump.exists() or kyfan_dump.read_text() == ""

    # separation reads its witness from the one membership LP
    sep_dump = tmp_path / "separate.jsonl"
    code, out, _ = run_cli(
        ["separate", str(nat4), "--points", "2,3", "--target", "1", "--dump-lp", str(sep_dump)],
        capsys=capsys,
    )
    assert code == 0 and json.loads(out)["separable"] is True
    records = [json.loads(ln) for ln in sep_dump.read_text().splitlines()]
    assert [r["status"] for r in records] == ["infeasible"]


def test_iteration_limit_is_a_verification_failure(tmp_path, capsys, monkeypatch):
    from choquet import cli
    from choquet.errors import IterationLimitError

    def exhausted(system, *args, **kwargs):
        raise IterationLimitError("simplex iteration limit 100000 reached")

    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "3", "-o", str(inst)], capsys=capsys)
    monkeypatch.setattr(cli.measures, "choquet_boundary", exhausted)
    code, out, err = run_cli(["boundary", str(inst)], capsys=capsys)
    assert code == 1
    assert out == ""
    assert err == "verification failure: simplex iteration limit 100000 reached\n"


def test_strict_flag(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    field = tmp_path / "f.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    field.write_text("[0, 1, 1, 0]")
    argv = ["check-convex", str(inst), "--field", str(field), "--tol", "1e-12"]
    code, out, _ = run_cli(argv, capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["is_choquet_convex"] is False
    assert doc["tolerance"] == 1e-12
    code, _, _ = run_cli(argv + ["--tol", "0"], capsys=capsys)
    assert code == 2


def test_boundary_takes_no_tolerance():
    # boundary verdicts are certified 0/1 self masses: no tolerance to set
    for flag in (["--strict"], ["--tol", "1e-5"]):
        with pytest.raises(SystemExit) as exc:
            main(["boundary", "inst.json", *flag])
        assert exc.value.code == 2


def test_gen_random_80_6_seed_3_boundary_is_its_hull(capsys):
    # the self-mass LP of p55 used to end on a singular basis whose dual
    # failed the exposing check, so this command exited 1
    code, out, _ = run_cli(["gen", "random", "80", "6", "--seed", "3"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    B = np.array(doc["basis"])
    vertices = sorted(ConvexHull(B[1:].T).vertices)
    assert len(vertices) == 57
    assert doc["expected"]["boundary"] == [doc["labels"][j] for j in vertices]


def test_multimax_subcommand(tmp_path, capsys):
    inst = tmp_path / "nat.json"
    run_cli(["gen", "naturals", "4", "-o", str(inst)], capsys=capsys)
    s1 = tmp_path / "s1.json"
    s2 = tmp_path / "s2.json"
    s1.write_text(json.dumps({"pieces": [{"a": [0.0, 1.0], "beta": 0.0}]}))
    s2.write_text(json.dumps({"pieces": [{"a": [0.0, 0.5], "beta": 0.2}]}))
    code, out, _ = run_cli(
        ["multimax", str(inst), "--spec", str(s1), "--spec", str(s2)], capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["common_boundary_argmax"] == ["1"]


_FIELD = ["check-convex", "{inst}", "--field", "{field}"]
# each case: argv, and the files that differ from naturals(4), the field
# [0, 1, 1, 0] and a one-piece spec
_BAD_INPUT = {
    "field-object": (_FIELD, {"field": '{"a": 1}'}),
    "field-strings": (_FIELD, {"field": '["x", 1, 2, 3]'}),
    "field-string": (_FIELD, {"field": '"abc"'}),
    "plot-axes-not-int": (["plot", "{inst}", "--axes", "a"], {}),
    "convexify-tol-0": (["convexify", "{inst}", "--field", "{field}", "--tol", "0"], {}),
    "check-convex-tol-0": (_FIELD + ["--tol", "0"], {}),
    "bauer-tol-0": (["bauer", "{inst}", "--spec", "{spec}", "--tol", "0"], {}),
    "multimax-tol-0": (["multimax", "{inst}", "--spec", "{spec}", "--tol", "0"], {}),
    "alpha-0": (["convexify", "{inst}", "--field", "{field}", "--alpha", "0"], {}),
    "tie-tol-0": (["generic", "{inst}", "--tie-tol", "0"], {}),
    "trials-0": (["generic", "{inst}", "--trials", "0"], {}),
    "eps-0": (["generic", "{inst}", "--eps", "0"], {}),
    "tol-nan": (_FIELD + ["--tol", "nan"], {}),
    "tol-inf": (_FIELD + ["--tol", "inf"], {}),
    "alpha-inf": (["convexify", "{inst}", "--field", "{field}", "--alpha", "inf"], {}),
    "tie-tol-nan": (["generic", "{inst}", "--tie-tol", "nan"], {}),
    "eps-nan": (["generic", "{inst}", "--eps", "nan"], {}),
    "eps-huge": (["generic", "{inst}", "--trials", "3", "--eps", "1e308"], {}),
    # finite fields whose LPs overflow the float range
    **{f"{cmd}-overflow-{i}": ([cmd, "{inst}", "--field", "{field}"], {"field": text})
       for cmd in ("keyinterval", "check-convex", "convexify")
       for i, text in enumerate(("[1e308, -1e308, 0, 0]", "[0, 8e307, -8e307, 0]"))},
    "segment-one-label": (["kyfan", "{inst}", "--segment", "1"], {}),
    "unknown-label": (["hull", "{inst}", "--points", "1,nope"], {}),
    "expose-one-point": (["expose", "{inst}", "--target", "a"],
                         {"inst": '{"labels": ["a"], "basis": [[1.0]]}'}),
}


@pytest.mark.parametrize("case", _BAD_INPUT)
def test_bad_or_degenerate_input_never_raises(case, tmp_path, capsys):
    argv, texts = _BAD_INPUT[case]
    paths = {k: tmp_path / f"{k}.json" for k in ("inst", "field", "spec")}
    run_cli(["gen", "naturals", "4", "-o", str(paths["inst"])], capsys=capsys)
    paths["field"].write_text("[0, 1, 1, 0]")
    paths["spec"].write_text(json.dumps({"pieces": [{"a": [0.0, 1.0], "beta": 0.0}]}))
    for key, text in texts.items():
        paths[key].write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # overflow is an error, not a warning
        code, out, err = run_cli([a.format(**paths) for a in argv], capsys=capsys)
    if case == "expose-one-point":  # no other point to compare against
        assert code == 0 and json.loads(out)["margin"] is None
        return
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


_SUBCOMMANDS = ("gen", "boundary", "hull", "separate", "extreme", "kyfan", "convexify",
                "check-convex", "keyinterval", "bauer", "multimax", "expose", "generic", "plot")
_DEFAULT_TOL = {"convexify": CONVEX_TOL, "check-convex": CONVEX_TOL,
                "bauer": ARGMAX_TOL, "multimax": ARGMAX_TOL}


@pytest.mark.parametrize(
    "argv", [[name] for name in _SUBCOMMANDS] + [["gen", family] for family in _GEN_ARGS],
    ids=" ".join,
)
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: choquet " + " ".join(argv))
    if argv[0] in _DEFAULT_TOL:
        assert f"{_DEFAULT_TOL[argv[0]]:g}" in out
