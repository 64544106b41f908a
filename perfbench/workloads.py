"""The three benchmark workloads: seeded inputs, fixed command lists, checks.

Every command is a pair of callables: ``run`` is what the client times and
``check`` inspects its result afterwards, untimed, and returns a list of
problems.  A command whose check reports a problem, or that exits with an
unexpected code, counts as failed.  Expected answers come from the closed
forms and structure stated in the source paper, from an independent oracle
(``oracle.py``), or, for the E6-tree classifier, from brute-force
enumeration, never from the program's own formula tables.

Inputs that depend on the seed (the random E6 trees and the cyclic DSL graph)
have fixed sizes, so a seed changes their shape but not the amount of work.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from click.testing import CliRunner

from reeder import cli, classifiers, families, moves
from reeder.diagram import Diagram, Edge

HERE = Path(__file__).resolve().parent

WORKLOADS = ("census", "export", "crosscheck")

E6_TREES = 24
E6_TREE_VERTICES = 16
DSL_VERTICES = 18
DSL_CYCLES = 3


@dataclass
class Command:
    label: str
    span: str  # name of the client-side span around ``run`` in traced passes
    run: Callable[[], object]
    check: Callable[[object], list]


# -- closed forms (restated from the paper, independent of reeder.families) --


def _ceil_half(x: int) -> int:
    return -(-x // 2)


CLOSED_FORM = {
    "A": lambda n: _ceil_half(n) + 1,
    "B": lambda n: 2 + _ceil_half(n - 1),
    "C": lambda n: n + 1,
    "D": lambda n: n // 2 + 3 if n % 2 == 0 else (n - 1) // 2 + 2,
    "X": lambda n: n + 3,
    "affA": lambda n: n // 2 + 2 if n % 2 == 0 else (n - 1) // 2 + 4,
    "affD": lambda n: n // 2 + 7 if n % 2 == 0 else (n - 1) // 2 + 4,
}

# vertices beyond the parameter n in each family's diagram
EXTRA_VERTICES = {"A": 0, "B": 0, "C": 0, "D": 0, "X": 2, "affA": 1, "affD": 1}


# -- seeded inputs ---------------------------------------------------------


def _pruefer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree on n vertices, as an edge list."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def _has_e6(n: int, edges) -> bool:
    """A branch vertex with two arms of length >= 2 (the E6 subgraph)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return any(
        len(adj[v]) >= 3 and sum(len(adj[u]) >= 2 for u in adj[v]) >= 2
        for v in range(n)
    )


def e6_trees(seed: int) -> list[list[tuple[int, int]]]:
    rng = random.Random(f"e6-trees:{seed}")
    out = []
    while len(out) < E6_TREES:
        edges = _pruefer_tree(rng, E6_TREE_VERTICES)
        if _has_e6(E6_TREE_VERTICES, edges):
            out.append(edges)
    return out


def cyclic_graph_dsl(seed: int) -> str:
    """Connected simply-laced graph: a random tree plus DSL_CYCLES chords."""
    rng = random.Random(f"dsl-graph:{seed}")
    n = DSL_VERTICES
    edges = set(_pruefer_tree(rng, n))
    while len(edges) < n - 1 + DSL_CYCLES:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    lines = [f"vertices {n}"] + [f"edge {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


# -- generic CLI command ----------------------------------------------------


def _cli(runner: CliRunner, args: list[str], check_stdout, label=None) -> Command:
    def run():
        return runner.invoke(cli.main, args)

    def check(result):
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            return [f"raised {result.exception!r}"]
        if result.exit_code != 0:
            tail = (result.stderr or result.stdout).strip().splitlines()[-1:]
            return [f"exit code {result.exit_code}: {' '.join(tail)}"]
        return check_stdout(result.stdout)

    return Command(label or " ".join(args), f"cli.{args[0]}", run, check)


# -- census -----------------------------------------------------------------

CENSUS_RANGES = (("B", 2, 20), ("C", 3, 20), ("X", 1, 17), ("A", 1, 20), ("affD", 5, 17))
CENSUS_HEADER = ["family", "param", "vertices", "formula", "bruteforce", "match", "runtime_ms"]


def _check_census(family: str, lo: int, hi: int):
    def check(stdout: str) -> list:
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or rows[0] != CENSUS_HEADER:
            return [f"bad census header {rows[:1]}"]
        if len(rows) - 1 != hi - lo + 1:
            return [f"{len(rows) - 1} census rows, expected {hi - lo + 1}"]
        problems = []
        for n, row in zip(range(lo, hi + 1), rows[1:]):
            cf = str(CLOSED_FORM[family](n))
            want = [family, str(n), str(n + EXTRA_VERTICES[family]), cf, cf, "yes"]
            if row[:6] != want or not row[6].isdigit():
                problems.append(f"census row {row}, expected {want} + runtime")
        return problems

    return check


def census_commands(runner: CliRunner) -> list[Command]:
    return [
        _cli(runner, ["census", "--family", fam, "--range", f"{lo}..{hi}"],
             _check_census(fam, lo, hi))
        for fam, lo, hi in CENSUS_RANGES
    ]


# -- export -----------------------------------------------------------------


def _bitstring(bits: int, n: int) -> str:
    return "".join(str(bits >> i & 1) for i in range(n))


class FlowerTable:
    """The flower(d) partition in closed form: the zero labeling and every
    even nonempty petal set (center unlit) are fixed singletons; everything
    else is one class of size 2^(d+1) - 2^(d-1), whose weight-minimal
    representative is the single petal 0."""

    def __init__(self, d: int):
        self.d = d
        self.n = d + 1
        self.count = 2 ** (d - 1) + 1
        odd_hist = {1: 2**d + d}
        for w in range(3, d + 1, 2):
            odd_hist[w] = math.comb(d, w)
        self.odd = (2 ** (d + 1) - 2 ** (d - 1), 1, odd_hist)

    def rows(self):
        """(class index, size, rep bits, component histogram) in class order."""
        yield 0, 1, 0, {0: 1}
        yield 1, *self.odd
        c = 2
        for petals in range(3, 1 << self.d):
            if petals.bit_count() % 2 == 0:
                yield c, 1, petals, {petals.bit_count(): 1}
                c += 1

    def key(self, bits: int) -> int:
        """Representative bits of the class holding ``bits``."""
        petals = bits & ((1 << self.d) - 1)
        if bits == 0:
            return 0
        if not bits >> self.d & 1 and petals.bit_count() % 2 == 0:
            return petals
        return 1

    def index(self) -> dict[int, int]:
        return {rep: c for c, _, rep, _ in self.rows()}


def _hist_text(hist: dict) -> str:
    return ";".join(f"{k}:{v}" for k, v in sorted(hist.items()))


def _class_obj(size, rep_str, hist) -> dict:
    return {
        "size": size,
        "min_representative": rep_str,
        "components": {str(k): v for k, v in sorted(hist.items())},
        "is_singleton_fixed": size == 1,
    }


def _check_classes_json(n_vertices: int, expected_rows) -> Callable[[str], list]:
    """Compare ``classes --format json`` with (size, rep string, hist) rows."""

    def check(stdout: str) -> list:
        try:
            obj = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        classes = obj.get("classes", [])
        problems = []
        if obj.get("n_vertices") != n_vertices:
            problems.append(f"n_vertices {obj.get('n_vertices')}")
        if obj.get("free_vertices") != list(range(n_vertices)):
            problems.append("free_vertices differ")
        if sum(c.get("size", 0) for c in classes) != 1 << n_vertices:
            problems.append("class sizes do not sum to 2^f")
        want = list(expected_rows())
        if obj.get("class_count") != len(want) or len(classes) != len(want):
            problems.append(f"class_count {obj.get('class_count')}, expected {len(want)}")
        for c, (got, (size, rep, hist)) in enumerate(zip(classes, want)):
            if got != _class_obj(size, rep, hist):
                problems.append(f"class {c}: {got}, expected size {size} rep {rep} {hist}")
                break
        return problems

    return check


def _flower_rows(table: FlowerTable):
    return lambda: ((s, _bitstring(r, table.n), h) for _, s, r, h in table.rows())


def _check_flower_csv(table: FlowerTable):
    def check(stdout: str) -> list:
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or rows[0] != ["class", "size", "min_representative",
                                   "components", "is_singleton_fixed"]:
            return [f"bad csv header {rows[:1]}"]
        body = rows[1:]
        if len(body) != table.count:
            return [f"{len(body)} csv classes, expected {table.count}"]
        if sum(int(r[1]) for r in body) != 1 << table.n:
            return ["class sizes do not sum to 2^f"]
        for row, (c, size, rep, hist) in zip(body, table.rows()):
            want = [str(c), str(size), _bitstring(rep, table.n), _hist_text(hist),
                    str(int(size == 1))]
            if row != want:
                return [f"csv row {row}, expected {want}"]
        return []

    return check


def _table_lines(table: FlowerTable, target: str) -> list[str]:
    return [
        f"target={target} vertices={table.n} free={table.n} classes={table.count}",
        "class size min_rep components",
    ]


def _class_line(c, size, rep, hist, n) -> str:
    tag = " fixed" if size == 1 else ""
    return f"{c} {size} {_bitstring(rep, n)} {_hist_text(hist)}{tag}"


def _check_flower_text(table: FlowerTable, target: str, reps: bool):
    index = table.index()

    def check(stdout: str) -> list:
        lines = stdout.splitlines()
        head = _table_lines(table, target)
        if lines[:2] != head:
            return [f"header {lines[:2]}, expected {head}"]
        body = lines[2:2 + table.count]
        for line, (c, size, rep, hist) in zip(body, table.rows()):
            want = _class_line(c, size, rep, hist, table.n)
            if line != want:
                return [f"class line {line!r}, expected {want!r}"]
        if len(body) != table.count:
            return [f"{len(body)} class lines, expected {table.count}"]
        rest = lines[2 + table.count:]
        if not reps:
            return [f"unexpected trailing output {rest[:1]}"] if rest else []
        if rest[-1:] != ["representatives verified"]:
            return ["missing 'representatives verified'"]
        seen = set()
        for line in rest[:-1]:
            parts = line.split()
            if len(parts) != 6 or parts[0] != "rep" or parts[3:5] != ["->", "class"]:
                return [f"bad representative line {line!r}"]
            bits = int(parts[2][::-1], 2)
            if int(parts[5]) != index[table.key(bits)]:
                return [f"representative {parts[2]} reported in class {parts[5]}"]
            seen.add(int(parts[5]))
        if len(seen) != table.count or len(rest) - 1 != table.count:
            return [f"{len(rest) - 1} representatives over {len(seen)} classes"]
        return []

    return check


def _check_flower_full(table: FlowerTable, target: str):
    index = table.index()

    def check(stdout: str) -> list:
        lines = stdout.splitlines()
        head = _table_lines(table, target)
        if lines[:2] != head:
            return [f"header {lines[:2]}, expected {head}"]
        pos = 2
        members = set()
        for c, size, rep, hist in table.rows():
            want = _class_line(c, size, rep, hist, table.n)
            if pos >= len(lines) or lines[pos] != want:
                return [f"class line {lines[pos:pos + 1]}, expected {want!r}"]
            block = lines[pos + 1:pos + 1 + size]
            for m in block:
                bits = int(m.strip()[::-1], 2)
                if not m.startswith("  ") or index[table.key(bits)] != c:
                    return [f"member {m!r} listed under class {c}"]
                members.add(bits)
            pos += 1 + size
        if pos != len(lines) or len(members) != 1 << table.n:
            return [f"{len(members)} distinct members, {len(lines) - pos} extra lines"]
        return []

    return check


def _oracle_rows(dsl_path: Path) -> list:
    """Independent partition of the DSL graph, computed in a child process so
    that its memory does not count towards the workload's peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), str(dsl_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return [(c["size"], c["min_representative"], {int(k): v for k, v in c["components"].items()})
            for c in json.loads(proc.stdout)]


def export_commands(runner: CliRunner, seed: int, work_dir: Path) -> list[Command]:
    f17, f15, f12 = FlowerTable(17), FlowerTable(15), FlowerTable(12)
    dsl_path = work_dir / f"graph-seed{seed}.dg"
    dsl_path.write_text(cyclic_graph_dsl(seed))
    oracle = _oracle_rows(dsl_path)
    return [
        _cli(runner, ["classes", "flower:17", "--format", "json"],
             _check_classes_json(f17.n, _flower_rows(f17))),
        _cli(runner, ["classes", "flower:17", "--format", "csv"], _check_flower_csv(f17)),
        _cli(runner, ["classes", "flower:15"], _check_flower_text(f15, "flower:15", False)),
        _cli(runner, ["classes", "flower:15", "--reps"],
             _check_flower_text(f15, "flower:15", True)),
        _cli(runner, ["classes", "flower:12", "--full"], _check_flower_full(f12, "flower:12")),
        _cli(runner, ["classes", str(dsl_path), "--format", "json"],
             _check_classes_json(DSL_VERTICES, lambda: oracle),
             label=f"classes <dsl graph seed {seed}> --format json"),
    ]


# -- crosscheck -------------------------------------------------------------


def _f2_det(rows: list[int], n: int) -> int:
    rows = list(rows)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i] >> c & 1), None)
        if p is None:
            return 0
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(c + 1, n):
            if rows[i] >> c & 1:
                rows[i] ^= rows[c]
    return 1


def _check_duality(family: str, n: int, det: int):
    def check(stdout: str) -> list:
        try:
            rep = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        want = {
            "reeder_classes": CLOSED_FORM[family](n),
            "sigma_orbits": rep.get("sigma_orbits") if not det else CLOSED_FORM[family](n),
            "det_A": det,
            "bijection_verified": True if det else None,
        }
        return [] if rep == want else [f"duality report {rep}, expected {want}"]

    return check


def _check_verify(expected: list[str]):
    def check(stdout: str) -> list:
        lines = stdout.splitlines()
        want = [f"ok: {name}" for name in expected]
        if any(line.startswith("FAIL") for line in lines) or lines != want:
            return [f"verify printed {lines}, expected {want}"]
        return []

    return check


def _verify_expected(family: str, f: int) -> list[str]:
    out = ["class sizes sum to 2^free", "singleton classes are exactly the fixed labelings"]
    if f <= 12:
        out.append("every move is an involution")
    if family in CLOSED_FORM:
        out += ["closed-form count matches brute force", "published representatives are valid"]
    return out + ["sigma duality identities hold"]


def _classifier_command(k: int, diagram: Diagram) -> Command:
    def run():
        pred = classifiers.e6_tree_classify(diagram)
        return pred, moves.enumerate_classes(diagram).class_count

    def check(result) -> list:
        pred, brute = result
        return [] if pred.class_count == brute else [
            f"classifier predicts {pred.class_count}, brute force {brute}"]

    return Command(f"e6_tree_classify tree {k}", "client.e6_tree_check", run, check)


DUALITY_TARGETS = (("A", 18), ("D", 17), ("affD", 15))
VERIFY_TARGETS = (("D", 12), ("affA", 11), ("E8", 8), ("affD", 16))


def crosscheck_commands(runner: CliRunner, seed: int) -> list[Command]:
    cmds = []
    for fam, n in DUALITY_TARGETS:
        d = families.construct(families.parse_family(f"{fam}:{n}"))
        det = _f2_det(list(d.adjacency_matrix().rows), d.n_vertices)
        cmds.append(_cli(runner, ["duality", f"{fam}:{n}"], _check_duality(fam, n, det)))
    for fam, n in VERIFY_TARGETS:
        d = families.construct(families.parse_family(f"{fam}:{n}"))
        cmds.append(_cli(runner, ["verify", f"{fam}:{n}"],
                         _check_verify(_verify_expected(fam, len(d.free_vertices)))))
    for k, edges in enumerate(e6_trees(seed)):
        d = Diagram(E6_TREE_VERTICES, tuple(Edge(u, v) for u, v in edges))
        cmds.append(_classifier_command(k, d))
    return cmds


def build(name: str, seed: int, work_dir: Path) -> list[Command]:
    runner = CliRunner()
    if name == "census":
        return census_commands(runner)
    if name == "export":
        return export_commands(runner, seed, work_dir)
    if name == "crosscheck":
        return crosscheck_commands(runner, seed)
    raise ValueError(f"unknown workload {name!r}")


def warm_up() -> None:
    """One tiny enumeration through the CLI, so lazy set-up (and a numba JIT
    cache load) happens before timing."""
    result = CliRunner().invoke(cli.main, ["count", "A:4"])
    if result.exit_code != 0 or result.stdout != "3\n":
        raise RuntimeError(f"warm-up failed: {result.stdout!r} {result.exception!r}")
