"""Command-line surface: count, classes, census, verify, duality.

Exit codes: 0 ok, 2 parse/usage error, 3 verification mismatch, 4 resource
cap exceeded.
"""

from __future__ import annotations

import contextlib
import os
import stat
import sys
import time
import uuid
from functools import wraps
from pathlib import Path

import click
import numpy as np

from . import families, moves, sigma
from .diagram import Diagram, DiagramError, ResourceError, parse_dsl
from .f2 import F2Matrix

EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_RESOURCE = 4


def _exit_codes(f):
    @wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ResourceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_RESOURCE)
        except DiagramError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARSE)

    return wrapper


def _construct(spec: families.FamilySpec, cap: int | None) -> Diagram:
    """The family's diagram, refused on the free-vertex cap before it is built."""
    moves.require_cap(families.free_count(spec), cap)
    return families.construct(spec)


def _load_target(target: str, cap: int | None) -> tuple[Diagram, families.FamilySpec | None]:
    """A family string like A:5 or a DSL file path."""
    if target.split(":", 1)[0] in families.FAMILY_HEADS:
        spec = families.parse_family(target)
        return _construct(spec, cap), spec
    path = Path(target)
    if not path.is_file():
        raise DiagramError(f"{target!r} is neither a family string nor a file")
    return parse_dsl(path.read_text()), None


@click.group()
@click.option(
    "--max-vertices",
    type=int,
    default=None,
    help="Free-vertex cap for enumeration (default: REEDER_MAX_VERTICES or 26).",
)
@click.pass_context
def main(ctx, max_vertices):
    """Reeder's puzzle: enumerate and verify labeling equivalence classes."""
    ctx.obj = {"cap": max_vertices}


@main.command()
@click.argument("target")
@click.option("--formula", is_flag=True, help="Compare against the closed form.")
@click.pass_context
@_exit_codes
def count(ctx, target, formula):
    """Brute-force class count of a family instance or DSL diagram."""
    diagram, spec = _load_target(target, ctx.obj["cap"])
    part = moves.enumerate_classes(diagram, ctx.obj["cap"])
    if not formula:
        click.echo(str(part.class_count))
        return
    cf = families.closed_form_count(spec) if spec is not None else None
    if cf is None:
        click.echo(f"{part.class_count}, formula=deferred")
        return
    verdict = "MATCH" if cf == part.class_count else "MISMATCH"
    click.echo(f"{part.class_count}, formula={cf}, {verdict}")
    if verdict == "MISMATCH":
        sys.exit(EXIT_MISMATCH)


def _echo_blocks(blocks) -> None:
    """Echo rendered blocks of lines as they come, one click.echo per block,
    so the whole table is never one string."""
    for block in blocks:
        click.echo(block, nl=False)


@main.command()
@click.argument("target")
@click.option("--reps", is_flag=True, help="Check the published representatives.")
@click.option("--full", is_flag=True, help="List every member of every class.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
)
@click.pass_context
@_exit_codes
def classes(ctx, target, reps, full, fmt):
    """Class table with sizes, minimal representatives, and components."""
    if fmt != "text" and (reps or full):
        raise DiagramError(f"--reps and --full print text only, not --format {fmt}")
    diagram, spec = _load_target(target, ctx.obj["cap"])
    if reps:
        if spec is None:
            raise DiagramError("--reps requires a family target")
        if spec.family in families.DEFERRED:
            raise DiagramError(f"{spec}: no published representative list")
    part = moves.enumerate_classes(diagram, ctx.obj["cap"])
    if fmt != "text":
        _echo_blocks(part.json_blocks() if fmt == "json" else part.csv_blocks())
        if fmt == "json":
            click.echo()
    else:
        order, leads = families.display_layout(spec, diagram) if spec else (None, False)
        click.echo(f"target={target} vertices={diagram.n_vertices} "
                   f"free={len(diagram.free_vertices)} classes={part.class_count}")
        click.echo("class size min_rep components")
        _echo_blocks(part.text_blocks(order, leads, full))
    if reps:
        # built once the enumeration has passed the gate: flower:d's list
        # has 2^(d-1) + 1 entries
        rep_set = families.canonical_representatives(spec)
        states = moves.encode_states(diagram, rep_set.bits)
        _echo_blocks(part.rep_blocks(rep_set.provenance, states, order, leads))
        problems = families.check_representatives(spec, rep_set, part)
        for p in problems:
            click.echo(f"FAIL: {p}")
        if problems:
            sys.exit(EXIT_MISMATCH)
        click.echo("representatives verified")


@main.command()
@click.option("--family", "family_name", required=True)
@click.option("--range", "range_str", required=True, help="Inclusive, e.g. 5..12.")
@click.option("--format", "fmt", type=click.Choice(["csv"]), default="csv")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the CSV atomically to this path instead of stdout.")
@click.pass_context
@_exit_codes
def census(ctx, family_name, range_str, fmt, out):
    """Closed-form versus brute-force counts over a parameter range."""
    try:
        lo_s, hi_s = range_str.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise DiagramError(f"bad range {range_str!r}; expected a..b")
    if lo > hi:
        raise DiagramError(f"bad range {range_str!r}; expected a..b with a <= b")
    # no field holds a comma, a quote or a newline
    text = "family,param,vertices,formula,bruteforce,match,runtime_ms\n"
    any_mismatch = False
    for n in range(lo, hi + 1):
        spec = families.parse_family(f"{family_name}:{n}")
        diagram = _construct(spec, ctx.obj["cap"])
        t0 = time.perf_counter()
        part = moves.enumerate_classes(diagram, ctx.obj["cap"])
        ms = int((time.perf_counter() - t0) * 1000)
        cf = families.closed_form_count(spec)
        if cf is None:
            match = "n/a"
            formula_cell = "deferred"
        else:
            match = "yes" if cf == part.class_count else "no"
            formula_cell = str(cf)
            any_mismatch |= match == "no"
        text += (f"{spec.family},{n},{diagram.n_vertices},{formula_cell},"
                 f"{part.class_count},{match},{ms}\n")
    if out is None:
        click.echo(text, nl=False)
    else:
        tmp = f"{out}.{uuid.uuid4().hex}.tmp"
        try:
            # created as a plain open() creates a file, under the umask, and
            # given the mode of the file it replaces
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                with os.fdopen(fd, "w") as fh:
                    with contextlib.suppress(FileNotFoundError):
                        os.chmod(tmp, stat.S_IMODE(os.stat(out).st_mode))
                    fh.write(text)
                os.replace(tmp, out)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            click.echo(f"error: cannot write {out}: {exc.strerror or exc}", err=True)
            sys.exit(EXIT_PARSE)
    if any_mismatch:
        sys.exit(EXIT_MISMATCH)


@main.command()
@click.argument("target")
@click.pass_context
@_exit_codes
def verify(ctx, target):
    """Run every invariant check that applies to the target diagram."""
    cap = ctx.obj["cap"]
    diagram, spec = _load_target(target, cap)
    failures = []

    def check(name, ok):
        click.echo(f"{'ok' if ok else 'FAIL'}: {name}")
        if not ok:
            failures.append(name)

    part = moves.enumerate_classes(diagram, cap)
    f = len(diagram.free_vertices)
    check("class sizes sum to 2^free", int(part.sizes.sum()) == 1 << f)

    singletons = part.rep_states[part.sizes == 1]  # sorted, as the classes are
    check(
        "singleton classes are exactly the fixed labelings",
        np.array_equal(singletons, moves.fixed_states(diagram, cap)),
    )

    # Printed for f <= 12 only, as it always has been: perfbench's crosscheck
    # workload compares verify's output line for line.
    if f <= 12:
        identity = F2Matrix.identity(diagram.n_vertices)
        matrices = [moves.move_matrix(diagram, i) for i in diagram.free_vertices]
        check("every move is an involution", all(t @ t == identity for t in matrices))

    if spec is not None:
        cf = families.closed_form_count(spec)
        if cf is not None:
            check("closed-form count matches brute force", cf == part.class_count)
        rep_set = families.canonical_representatives(spec)
        if rep_set is not None:
            problems = families.check_representatives(spec, rep_set, part)
            for p in problems:
                click.echo(f"  {p}")
            check("published representatives are valid", not problems)

    if diagram.is_simply_laced and not diagram.pinned:
        check("sigma duality identities hold", sigma.duality_check(diagram))

    if failures:
        sys.exit(EXIT_MISMATCH)


@main.command()
@click.argument("target")
@click.pass_context
@_exit_codes
def duality(ctx, target):
    """Sigma-game duality report (JSON) for a simply-laced diagram."""
    diagram, _ = _load_target(target, ctx.obj["cap"])
    report = sigma.orbit_bijection_check(diagram, ctx.obj["cap"])
    click.echo(report.to_json())
    if report.bijection_verified is False:
        sys.exit(EXIT_MISMATCH)


if __name__ == "__main__":
    main()
