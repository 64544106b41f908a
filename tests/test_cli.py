"""CLI surface: commands, formats, exit codes, determinism."""

import dataclasses
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import reeder
from reeder import families, moves
from reeder.cli import main
from reeder.f2 import F2Matrix
from reeder.diagram import parse_dsl
from conftest import oracle_classes


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
    assert runner.invoke(main, ["--max-vertices", "-1", "count", "A:3"]).exit_code == 2
    res = runner.invoke(main, ["count", "A:3"], env={"REEDER_MAX_VERTICES": "-1"})
    assert res.exit_code == 2
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


def test_count_far_over_the_cap_exit_4(runner):
    """2^20000 has more digits than int() may write out: the refusal does
    not write it."""
    res = runner.invoke(main, ["count", "A:20000"], env={"REEDER_MAX_VERTICES": None})
    assert res.exit_code == 4, res.output
    assert "20000 free vertices exceed the cap of 26: would require 2^20000 states" in res.stderr


def test_one_part_count_never_imports_the_pool():
    """The kernel imports its thread pool only for a two-part call, so a
    fresh interpreter that runs `count A:4` never loads concurrent.futures,
    whose import costs about 5 ms and 0.4 MB."""
    code = ("import sys\nfrom reeder.cli import main\n"
            "try:\n    main(['count', 'A:4'])\nexcept SystemExit as exc:\n    assert exc.code == 0\n"
            "print('concurrent.futures' in sys.modules)\n")
    src = str(Path(reeder.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["3", "False"]


@pytest.mark.parametrize("args", [["count", "A:100000000"],
                                  ["census", "--family", "A", "--range", "100000000..100000000"]])
def test_over_cap_family_refused_before_it_is_built(runner, monkeypatch, args):
    """A family's parameter is gated before its diagram is built: A:10^8
    would build 10^8 edges."""
    record = families._FAMILIES["A"]

    def build(n):
        if n > 1000:
            raise AssertionError(f"A:{n} was built before the cap")
        return record.build(n)

    monkeypatch.setitem(families._FAMILIES, "A", dataclasses.replace(record, build=build))
    res = runner.invoke(main, args, env={"REEDER_MAX_VERTICES": None})
    assert res.exit_code == 4, res.output
    assert "100000000 free vertices exceed the cap of 26" in res.stderr


def test_fixed_size_family_gated_on_its_free_vertices(runner):
    """E6_2 has size 6 but 5 free vertices, so a cap of 5 admits it."""
    assert runner.invoke(main, ["--max-vertices", "5", "count", "E6_2"]).exit_code == 0
    assert runner.invoke(main, ["--max-vertices", "4", "count", "E6_2"]).exit_code == 4


@pytest.mark.parametrize("command", ["count", "classes", "verify", "duality"])
def test_over_cap_graph_refused_before_the_tables(runner, tmp_path, monkeypatch, command):
    """The cap is checked on the vertex count before anything that grows with
    the diagram: the move tables, det A, and ranks."""
    def grows(*args, **kwargs):
        raise AssertionError("work that grows with the diagram ran before the cap")

    monkeypatch.setattr(moves, "_move_tables", grows)
    monkeypatch.setattr(F2Matrix, "rank", grows)
    path = tmp_path / "big.dg"
    path.write_text("vertices 100000\nedge 0 1\nedge 1 2\nedge 2 0\n")
    res = runner.invoke(main, [command, str(path)], env={"REEDER_MAX_VERTICES": None})
    assert res.exit_code == 4, res.output
    assert "100000 free vertices exceed the cap of 26" in res.stderr
    assert res.stdout == ""


def test_classes_reps_list_built_after_the_gate(runner, monkeypatch):
    """flower:d's published list has 2^(d-1) + 1 entries, so past the cap
    it is never built."""
    def built(spec):
        raise AssertionError(f"the list of {spec} was built before the cap")

    monkeypatch.setattr(families, "canonical_representatives", built)
    res = runner.invoke(main, ["classes", "flower:40", "--reps"], env={"REEDER_MAX_VERTICES": None})
    assert res.exit_code == 4, res.output
    assert "41 free vertices exceed the cap of 26" in res.stderr


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
    assert "--reps requires a family target" in res.stderr
    assert res.stdout == ""  # rejected before the class table is enumerated


def test_classes_reps_rejects_deferred_family(runner):
    for family in families.DEFERRED:
        spec = families.FamilySpec(family)
        res = runner.invoke(main, ["classes", str(spec), "--reps"])
        assert res.exit_code == 2, family
        assert res.stderr == f"error: {spec}: no published representative list\n"
        assert res.stdout == ""  # rejected before the class table is enumerated
        # verify skips the check that has no list
        assert runner.invoke(main, ["verify", str(spec)]).exit_code == 0, family


@pytest.mark.parametrize("flag", ["--reps", "--full"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classes_text_only_flags_reject_formats(runner, flag, fmt):
    res = runner.invoke(main, ["classes", "A:3", flag, "--format", fmt])
    assert res.exit_code == 2
    assert f"print text only, not --format {fmt}" in res.stderr
    assert res.stdout == ""  # rejected before the class table is enumerated


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


# two independent cycles through vertex 2, a double and a triple edge, and a
# pinned vertex on the second cycle
PINNED_CYCLES_DSL = """\
vertices 7
edge 0 1
edge 1 2
edge 2 0
edge 2 3 mult=2 dir=2>3
edge 3 4
edge 4 5
edge 5 2
edge 5 6 mult=3
pin 4
"""

# DSL targets of the class-table test; the last two have no free vertex, all
# pinned or none at all
DSL_TARGETS = {
    "dsl": PINNED_CYCLES_DSL,
    "all-pinned": "vertices 3\nedge 0 1\nedge 1 2 mult=3\npin 0\npin 1\npin 2\n",
    "no-vertices": "vertices 0\n",
}


def oracle_table(d):
    """(size, vertex-0-first minimal representative, component histogram,
    vertex-0-first members in increasing integer order) per class, in class
    order, from the BFS oracle classes and the per-labeling walker."""
    rows = []
    for cls in oracle_classes(d):
        rep = min(cls, key=lambda bits: (bin(bits).count("1"), bits))
        hist = Counter(d.count_components(d.labeling(bits)) for bits in cls)
        rows.append((rep, len(cls), dict(sorted(hist.items())), sorted(cls)))
    rows.sort()
    n = d.n_vertices
    return [
        (size, bitstring(rep, n), hist, [bitstring(m, n) for m in members])
        for rep, size, hist, members in rows
    ]


def bitstring(bits, n):
    """A packed labeling of n vertices as its vertex-0-first string."""
    return "".join(str(bits >> i & 1) for i in range(n))


def hist_text(hist):
    return ";".join(f"{k}:{v}" for k, v in hist.items())


@pytest.mark.parametrize(
    "target", ["dsl", "all-pinned", "no-vertices", "affA:7", "affD:6", "Abox:6:ends=1"]
)
def test_class_table_matches_oracle(runner, tmp_path, monkeypatch, target):
    spec = None
    if target in DSL_TARGETS:
        path = tmp_path / "graph.dg"
        path.write_text(DSL_TARGETS[target])
        d = parse_dsl(DSL_TARGETS[target])
        target = str(path)
    else:
        spec = families.parse_family(target)
        d = families.construct(spec)
    rows = oracle_table(d)

    def shown(rep):
        # an affine labeling prints its last internal vertex first, as a0;a1..an
        return rep[-1] + ";" + rep[:-1] if target.startswith("aff") else rep

    header = [
        f"target={target} vertices={d.n_vertices} "
        f"free={d.n_vertices - len(d.pinned)} classes={len(rows)}",
        "class size min_rep components",
    ]
    table = [
        f"{c} {size} {shown(rep)} {hist_text(hist)}" + (" fixed" if size == 1 else "")
        for c, (size, rep, hist, _) in enumerate(rows)
    ]
    members = [[f"  {shown(m)}" for m in row[3]] for row in rows]
    if spec is not None:
        reps = families.canonical_representatives(spec)
        class_of = {m: c for c, row in enumerate(rows) for m in row[3]}
        listed = [bitstring(bits, d.n_vertices) for bits in reps.bits]
        rep_lines = [
            f"rep {tag} {shown(r)} -> class {class_of[r]}"
            for tag, r in zip(reps.provenance, listed)
        ] + ["representatives verified"]

    expected_obj = {
        "n_vertices": d.n_vertices,
        "free_vertices": [v for v in range(d.n_vertices) if v not in d.pinned],
        "class_count": len(rows),
        "classes": [
            {
                "size": size,
                "min_representative": rep,
                "components": {str(k): v for k, v in hist.items()},
                "is_singleton_fixed": size == 1,
            }
            for size, rep, hist, _ in rows
        ],
    }

    echoed = []
    echo = click.echo

    def recording_echo(message=None, *args, **kwargs):
        echoed.append(message)
        return echo(message, *args, **kwargs)

    monkeypatch.setattr(click, "echo", recording_echo)
    # the renderer's block size, then blocks of 3 states that split classes
    for block in (moves._RENDER_BLOCK, 3):
        monkeypatch.setattr(moves, "_RENDER_BLOCK", block)
        # the json module's own layout is the reference for the JSON bytes
        json_out = runner.invoke(main, ["classes", target, "--format", "json"]).stdout
        assert json_out == json.dumps(expected_obj, indent=2) + "\n"

        csv_out = runner.invoke(main, ["classes", target, "--format", "csv"]).stdout
        assert csv_out == "class,size,min_representative,components,is_singleton_fixed\n" + "".join(
            f"{c},{size},{rep},{hist_text(hist)},{int(size == 1)}\n"
            for c, (size, rep, hist, _) in enumerate(rows)
        )

        text = runner.invoke(main, ["classes", target]).stdout
        assert text.splitlines() == header + table

        echoed.clear()
        full = runner.invoke(main, ["classes", target, "--full"]).stdout
        assert full.splitlines() == header + [
            line for row, listed in zip(table, members) for line in [row] + listed
        ]
        # after the header, one echo per block of lines, which may end mid-class
        body = full.splitlines()[2:]
        assert echoed[2:] == ["".join(f"{line}\n" for line in body[i : i + block])
                              for i in range(0, len(body), block)]

        if spec is not None:
            res = runner.invoke(main, ["classes", target, "--reps"])
            assert res.exit_code == 0
            assert res.stdout.splitlines() == header + table + rep_lines


# a 14-vertex tree plus 3 chords (one of them doubly laced) and a pin
CHORDED_DSL = """\
vertices 14
edge 0 1
edge 1 2
edge 2 3
edge 3 4
edge 4 5
edge 5 6
edge 6 7
edge 2 8
edge 8 9
edge 9 10
edge 4 11
edge 11 12
edge 12 13
edge 0 3
edge 7 10
edge 9 12 mult=2 dir=9>12
pin 6
"""

# sha256 of the stdout of `classes TARGET [FLAGS]`, recorded when the counts
# still came from label propagation into int64; GRAPH is CHORDED_DSL's path
CLASSES_SHA256 = {
    "B:12": (
        "f8721590dbb5825ac3a2b078924aecebb6db9e13ce14f261045027836338cc7f",
        "b63932b4b5d5a0d22471d4b28e033a2030afce924e657de6a7ac36abda16b286",
        "9d458214f71b2be415b71be00053be923f6d9b0af81863817cbd8ad8511d217f",
        "eb8603a930617286c1f188a62e0191a7cf39d681ebba09de8bbdf50abe89a5e3",
    ),
    "affA:11": (
        "119b80ac2af10fd47066cc1ec4dcce3bb4515664f5e304f8e1f39d47bdaf229e",
        "d1e13d706aa0d059527907d7cf4dbf5198c7ca6385fdbcf75b944acecd5cb273",
        "0ba46b97b6b63db9861e42169425f632d415cfd5d8f4892e9cfe3b73e3a6ea26",
        "7dccaed2d06736dc2a57517a4024fee8bf6456934cfcf279d99cb5ea029dcfc0",
    ),
    "flower:10": (
        "f19c3e26c9f1fa428231285d755be530cf13743594b42a658d2725b0850a36e4",
        "21ae8fbc66c53b58edc89132c3c97ad8ba3434a6db9a3d9b832ea336bfc9f40a",
        "3eeaa8c7f54bc4dc927d25c3a3220fb127ee59642c1cf9747a3237a195b1db7e",
        "b6625d63627ff338dc005c3e30d2c3123dd044b74a034b7b57f6002b601121e2",
    ),
    "Y:9": (
        "f5596b0084dc89579e755f5af6b2e3124d86b47cc9491bd2ec376a5ab5b3fef5",
        "508c0124f7955d8d27ad056ad7ef1dbc4f35132e22ee0996d12f31619b320dbd",
        "4b36e68177f9caece714fbcbcf3caf4747b94253294717667611f18b8b76a3f5",
        "24a07b99992eb5c60023e9edefcda76d8356dc1ae448be870e5c28908dddca40",
    ),
    "Dbox_1:11": (  # pinned
        "ae921593a8653662269931ae3a849c44c3245931095ade60cd0eff6fe806e43d",
        "3bcb4a076e6e4706aebde0d9fa38f224272d1580b91595ba53b571e3650ffb78",
        "09b3f18080b1118c2102334e27d5fb482e020672e894b0ca0521ce3c4948da5f",
        "10de6783c61bae773615c44c101f9f1975182ebb04b7ad7c2d707d437ab5e617",
    ),
    "GRAPH": (
        "531475c56248598b04cccba360f2f12a4e2c0082b3c4b65a411cdc831b93b71a",
        "8818125fde2d131cfb1c48fc7b31086a3e86a3265b038612eb5656d2682d609b",
        "8a5778c16e229dfa2607c55290df5ce5dfaa19c4e0377f645639a7575aebd6ff",
        "811cfe592bc1d25606b85c30bccbad74bb0f4750fa2105be7adc502222ae1fc2",
    ),
}


@pytest.mark.parametrize("target", list(CLASSES_SHA256))
def test_classes_output_unchanged(runner, tmp_path, target):
    path = tmp_path / "graph.dg"
    path.write_text(CHORDED_DSL)
    argv_target = str(path) if target == "GRAPH" else target
    for flags, want in zip(([], ["--full"], ["--format", "json"], ["--format", "csv"]),
                           CLASSES_SHA256[target]):
        res = runner.invoke(main, ["classes", argv_target, *flags])
        assert res.exit_code == 0, res.output
        out = res.stdout.replace(argv_target, target)
        assert hashlib.sha256(out.encode()).hexdigest() == want, (target, flags)


@pytest.mark.parametrize("block", [moves._RENDER_BLOCK, 3])
@pytest.mark.parametrize("target", ["flower:10", "Dbox_1:11", "A:1"])
def test_classes_json_csv_streamed(runner, monkeypatch, target, block):
    """classes --format json|csv echoes the table's blocks as they come, and
    never joins it into one string through to_json or to_csv."""
    monkeypatch.setattr(moves, "_RENDER_BLOCK", block)
    part = moves.enumerate_classes(families.construct(families.parse_family(target)))
    want = {"json": part.to_json() + "\n", "csv": part.to_csv()}

    def joined(self):
        raise AssertionError("the whole table joined into one string")

    monkeypatch.setattr(moves.ClassPartition, "to_json", joined)
    monkeypatch.setattr(moves.ClassPartition, "to_csv", joined)
    for fmt, text in want.items():
        res = runner.invoke(main, ["classes", target, "--format", fmt])
        assert res.exit_code == 0, res.output
        assert res.stdout_bytes == text.encode(), (target, fmt)


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


def test_census_reversed_range_exit_2(runner):
    res = runner.invoke(main, ["census", "--family", "A", "--range", "12..5"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "bad range '12..5'" in res.stderr


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
    assert os.listdir(tmp_path) == ["census.csv"]


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_census_out_mode_as_plain_open(runner, tmp_path, umask_022):
    """A new file gets 0o666 under the umask; a file that is replaced keeps
    its mode."""
    out = tmp_path / "census.csv"
    args = ["census", "--family", "A", "--range", "1..2", "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644
    out.chmod(0o640)
    assert runner.invoke(main, args).exit_code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert os.listdir(tmp_path) == ["census.csv"]


def test_census_out_failed_write_keeps_target(runner, tmp_path, monkeypatch):
    fdopen = os.fdopen

    def full_disk(fd, *args, **kwargs):
        fh = fdopen(fd, *args, **kwargs)

        def write(text):
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.write = write
        return fh

    monkeypatch.setattr(os, "fdopen", full_disk)
    out = tmp_path / "census.csv"
    out.write_text("old\n")
    res = runner.invoke(
        main,
        ["census", "--family", "A", "--range", "1..2", "--out", str(out)],
    )
    assert res.exit_code == 2
    assert f"error: cannot write {out}: No space left on device" in res.stderr
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["census.csv"]


def test_census_out_missing_dir_exit_2(runner, tmp_path):
    out = tmp_path / "no-such-dir" / "census.csv"
    res = runner.invoke(
        main,
        ["census", "--family", "A", "--range", "1..2", "--out", str(out)],
    )
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ") and str(out) in res.stderr


def test_census_out_failed_rename_removes_temp(runner, tmp_path, monkeypatch):
    def no_replace(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", no_replace)
    out = tmp_path / "census.csv"
    res = runner.invoke(
        main,
        ["census", "--family", "A", "--range", "1..2", "--out", str(out)],
    )
    assert res.exit_code == 2
    assert f"error: cannot write {out}: Permission denied" in res.stderr
    assert os.listdir(tmp_path) == []


# -- verify / duality ------------------------------------------------------


def test_verify_affine_cycle(runner):
    res = runner.invoke(main, ["verify", "affA:5"])
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    assert "ok: class sizes sum to 2^free" in res.output
    assert "ok: singleton classes are exactly the fixed labelings" in res.output


def test_verify_nullity_beyond_twenty(runner, tmp_path):
    # 21 isolated vertices: all 2^21 labelings are fixed singletons
    path = tmp_path / "isolated.dg"
    path.write_text("vertices 21\n")
    res = runner.invoke(main, ["verify", str(path)])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == [
        "ok: class sizes sum to 2^free",
        "ok: singleton classes are exactly the fixed labelings",
        "ok: sigma duality identities hold",
    ]


@pytest.mark.parametrize(
    "attr,breaks,name",
    [
        # a zero matrix squares to zero, not the identity
        ("move_matrix", lambda real: lambda d, i: F2Matrix.zeros(d.n_vertices, d.n_vertices),
         "every move is an involution"),
        ("fixed_states", lambda real: lambda d, cap=None: real(d, cap)[1:],
         "singleton classes are exactly the fixed labelings"),
    ],
    ids=["involution", "singletons"],
)
def test_verify_reports_failed_check(runner, monkeypatch, attr, breaks, name):
    monkeypatch.setattr(moves, attr, breaks(getattr(moves, attr)))
    res = runner.invoke(main, ["verify", "B:4"])
    assert res.exit_code == 3
    assert f"FAIL: {name}" in res.stdout.splitlines()


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


# -- ranking and raw output ------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["count", "B:12"],
        ["census", "--family", "A", "--range", "1..8"],
        ["duality", "D:9"],  # det A = 0
        ["duality", "A:12"],  # det A = 1: the map is checked on the roots
    ],
    ids=["count", "census", "duality-det0", "duality-det1"],
)
def test_count_paths_never_rank(runner, monkeypatch, args):
    def drop_runtime(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    want = runner.invoke(main, args)

    def no_ranking(self):
        raise AssertionError("ranked although only the class count is read")

    monkeypatch.setattr(moves.ClassPartition, "_ranked", property(no_ranking))
    res = runner.invoke(main, args)
    assert res.exit_code == want.exit_code == 0, res.output
    assert drop_runtime(res.stdout) == drop_runtime(want.stdout)


@pytest.mark.parametrize(
    "args",
    [
        ["classes", "D:5", "--format", "csv"],
        ["classes", "D:5", "--format", "json"],
        ["census", "--family", "D", "--range", "4..6"],
        ["classes", "affD:7"],
        ["classes", "affD:7", "--full"],
        ["classes", "affD:7", "--reps"],
    ],
    ids=["csv", "json", "census", "text", "full", "reps"],
)
def test_output_lines_end_in_bare_newlines(runner, args):
    # Result.stdout turns \r\n into \n, so only the raw bytes show it
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert b"\r" not in res.stdout_bytes
    assert res.stdout_bytes.endswith(b"\n")


# -- determinism -----------------------------------------------------------


def test_output_determinism(runner):
    a = runner.invoke(main, ["classes", "D:5", "--format", "json"]).output
    b = runner.invoke(main, ["classes", "D:5", "--format", "json"]).output
    assert a == b
    c = runner.invoke(main, ["classes", "affB:5"]).output
    d = runner.invoke(main, ["classes", "affB:5"]).output
    assert c == d
