"""CLI surface: commands, formats, exit codes, determinism."""

import json
import os

import pytest
from click.testing import CliRunner

from reeder.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


DSL = """\
vertices 4
edge 0 1
edge 1 2 mult=2 dir=1>2
pin 3
"""


# -- count -----------------------------------------------------------------


def test_count_family(runner):
    res = runner.invoke(main, ["count", "affE7:7"])
    assert res.exit_code == 0
    assert res.output.strip() == "6"


def test_count_formula_match(runner):
    res = runner.invoke(main, ["count", "A:4", "--formula"])
    assert res.exit_code == 0
    assert res.output.strip() == "3, formula=3, MATCH"
    res = runner.invoke(main, ["count", "flower:4", "--formula"])
    assert res.output.strip() == "9, formula=9, MATCH"


def test_count_formula_deferred(runner):
    res = runner.invoke(main, ["count", "E6:6", "--formula"])
    assert res.exit_code == 0
    assert res.output.strip() == "3, formula=deferred"


def test_count_formula_mismatch_exit_3(runner):
    # the one place engine and published count disagree (see README,
    # "Known discrepancy"): the affine F4 diagram has a fifth class
    res = runner.invoke(main, ["count", "affF4:4", "--formula"])
    assert res.exit_code == 3
    assert "5, formula=4, MISMATCH" in res.output


def test_count_dsl_file(runner, tmp_path):
    path = tmp_path / "pinned.dg"
    path.write_text(DSL)
    res = runner.invoke(main, ["count", str(path)])
    assert res.exit_code == 0
    assert res.output.strip().isdigit()


def test_count_parse_errors_exit_2(runner, tmp_path):
    assert runner.invoke(main, ["count", "no-such-file.dg"]).exit_code == 2
    assert runner.invoke(main, ["count", "A:0"]).exit_code == 2
    bad = tmp_path / "bad.dg"
    bad.write_text("vertices 2\nedge 0 1 mult=2\n")
    assert runner.invoke(main, ["count", str(bad)]).exit_code == 2


def test_count_cap_exit_4(runner):
    res = runner.invoke(main, ["--max-vertices", "3", "count", "A:10"])
    assert res.exit_code == 4
    res = runner.invoke(
        main, ["count", "A:10"], env={"REEDER_MAX_VERTICES": "3"}
    )
    assert res.exit_code == 4


def test_count_memory_short_exit_4(runner, monkeypatch):
    from reeder import moves

    monkeypatch.setattr(moves, "available_memory", lambda: 1 << 10)
    res = runner.invoke(main, ["count", "A:10"])
    assert res.exit_code == 4
    assert "memory" in res.output


# -- classes ---------------------------------------------------------------


def test_classes_text_full(runner):
    res = runner.invoke(main, ["classes", "G2:2", "--full"])
    assert res.exit_code == 0
    assert "classes=2" in res.output
    body = res.output.splitlines()
    assert any(line.strip() == "00" for line in body)
    assert sum(1 for line in body if line.startswith("  ")) == 4


def test_classes_reps_verified(runner):
    res = runner.invoke(main, ["classes", "A:3", "--reps"])
    assert res.exit_code == 0
    assert "representatives verified" in res.output
    assert res.output.count("rep xi:") == 3


def test_classes_reps_requires_family(runner, tmp_path):
    path = tmp_path / "d.dg"
    path.write_text("vertices 2\nedge 0 1\n")
    res = runner.invoke(main, ["classes", str(path), "--reps"])
    assert res.exit_code == 2


def test_classes_json(runner):
    res = runner.invoke(main, ["classes", "X:1", "--format", "json"])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["class_count"] == 4
    assert sorted(c["size"] for c in obj["classes"]) == [1, 1, 2, 4]


def test_classes_csv(runner):
    res = runner.invoke(main, ["classes", "A:3", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "class,size,min_representative,components,is_singleton_fixed"
    assert len(lines) == 4


def test_classes_affine_prints_leading_zero_vertex(runner):
    res = runner.invoke(main, ["classes", "affA:4"])
    assert res.exit_code == 0
    # affine labelings print as a0;a1..an
    assert "0;0000" in res.output


# -- census ----------------------------------------------------------------


def test_census_d_range(runner):
    res = runner.invoke(
        main, ["census", "--family", "D", "--range", "4..5"]
    )
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "family,param,vertices,formula,bruteforce,match,runtime_ms"
    row4 = lines[1].split(",")
    row5 = lines[2].split(",")
    assert row4[:6] == ["D", "4", "4", "5", "5", "yes"]
    assert row5[:6] == ["D", "5", "5", "4", "4", "yes"]


def test_census_empty_range(runner):
    res = runner.invoke(main, ["census", "--family", "A", "--range", "5..4"])
    assert res.exit_code == 0
    assert res.output.strip().splitlines() == [
        "family,param,vertices,formula,bruteforce,match,runtime_ms"
    ]


def test_census_deferred_family(runner):
    res = runner.invoke(main, ["census", "--family", "E6", "--range", "6..6"])
    assert res.exit_code == 0
    assert ",deferred,3,n/a," in res.output


def test_census_mismatch_exit_3(runner):
    res = runner.invoke(main, ["census", "--family", "affF4", "--range", "4..4"])
    assert res.exit_code == 3
    assert ",no," in res.output


def test_census_bad_range_exit_2(runner):
    res = runner.invoke(main, ["census", "--family", "A", "--range", "5-7"])
    assert res.exit_code == 2


def test_census_out_atomic(runner, tmp_path):
    out = tmp_path / "census.csv"
    res = runner.invoke(
        main,
        ["census", "--family", "A", "--range", "1..4", "--out", str(out)],
    )
    assert res.exit_code == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == 5
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


# -- verify / duality ------------------------------------------------------


def test_verify_affine_cycle(runner):
    res = runner.invoke(main, ["verify", "affA:5"])
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    assert "ok: class sizes sum to 2^free" in res.output
    assert "ok: singleton classes are exactly the fixed labelings" in res.output


def test_verify_simply_laced_runs_duality(runner):
    res = runner.invoke(main, ["verify", "D:4"])
    assert res.exit_code == 0
    assert "ok: sigma duality identities hold" in res.output


def test_verify_mismatching_diagram_exit_3(runner):
    res = runner.invoke(main, ["verify", "affF4:4"])
    assert res.exit_code == 3
    assert "FAIL: closed-form count matches brute force" in res.output


def test_duality_reports(runner):
    res = runner.invoke(main, ["duality", "A:2"])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["bijection_verified"] is True
    res = runner.invoke(main, ["duality", "A:3"])
    assert res.exit_code == 0
    assert json.loads(res.output)["bijection_verified"] is None


def test_duality_rejects_non_simply_laced(runner):
    assert runner.invoke(main, ["duality", "B:3"]).exit_code == 2


# -- determinism -----------------------------------------------------------


def test_output_determinism(runner):
    a = runner.invoke(main, ["classes", "D:5", "--format", "json"]).output
    b = runner.invoke(main, ["classes", "D:5", "--format", "json"]).output
    assert a == b
    c = runner.invoke(main, ["classes", "affB:5"]).output
    d = runner.invoke(main, ["classes", "affB:5"]).output
    assert c == d
