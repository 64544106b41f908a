"""Benchmark of the reeder engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|export|crosscheck \\
        --seed N --seconds S --trace 0|1

One closed-loop client, in one process and one thread, drives the CLI in
process through click's CliRunner (and calls the E6-tree classifier as a
library): it sends the next command only when the previous one has returned.
The program is imported from ``src/`` of the checkout, never from an
installed copy.  A pass runs the workload's fixed command list once and
checks every output; passes repeat until the next one would overrun
``--seconds``.

``--trace 0`` reports the end-to-end metrics:
  setup_s      time for a fresh interpreter to import reeder.cli and run one
               tiny enumeration (``count A:4``), each paired with a fresh
               reference interpreter; see ``measure_setup``;
  pass_s       median over passes of the wall time of one pass, summed over
               the commands and excluding the client's output checks;
  peak_rss_mb  ru_maxrss of this process after its first pass (later passes
               only add memory that click's CliRunner keeps from earlier
               invocations, so the end-of-run value depends on the pass count).
               A peak set outside the program's commands in that pass (by
               the client's checks or the probe) is reported as a problem.
``pass_s`` is scaled to the nominal speed of ``SpeedProbe``; the raw pass
times are kept in the record.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of ``tracing.py`` (medians over traced passes) plus
``trace.overhead_ms``, the traced minus the untraced median (scaled) pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the environment record.  A full record, and in traced runs the spans,
are written under ``perfbench/out/``.  Metric names and units are read from
BENCHMARK.json, and the run fails if the metrics it measures differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 9
SETUP_CODE = "from reeder.cli import main; main(['count', 'A:4'])"
# benchmark code only: what every start-up of the program pays anyway
SETUP_REF_CODE = "import numpy, click"
SETUP_REF_NOMINAL_S = 0.18


# How far a workload's time follows the probe's: the log-log slope of pass
# time on probe time.  census spends its time in the kernel's gathers over
# tables of up to 160 MB, which a faster spell of the host speeds up less than
# the probe: its slope was 0.59 over 51 passes, and 0.5 to 0.6 minimised the
# spread of ten runs.  export and crosscheck are Python-bound and follow the
# probe fully.
SPEED_EXPONENT = {"census": 0.6, "export": 1.0, "crosscheck": 1.0}


class SpeedProbe:
    """Fixed reference work whose run time tracks the machine's current speed.

    On a shared host the CPU speed drifts, by up to 40% over minutes as other
    tenants come and go, so raw wall times from separate runs are not
    comparable.  The probe mixes what the program spends its time on: numpy
    gathers and minimums over 2^19 int64 labels, Python integer loops and
    string building.  Between the timed calls of a window the client runs
    probe chunks until they have taken SHARE of the timed time, so the
    samples spread over the window in proportion to it; a time t from the
    window is reported as t * (NOMINAL_S / median chunk time) ** exponent:
    seconds at the probe's nominal speed, with the workload's exponent from
    SPEED_EXPONENT.  The probe is benchmark code, so no change to the program
    moves it.
    """

    NOMINAL_S = 0.010
    SHARE = 0.08

    def __init__(self, exponent: float):
        self.exponent = exponent
        self.perm = np.random.default_rng(0).permutation(1 << 19)
        self.base = np.arange(1 << 19, dtype=np.int64)
        self.windows: list[float] = []  # median chunk time of every window
        for _ in range(5):  # fault the arrays in before the first sample
            self._chunk()
        self.start()

    def _chunk(self) -> float:
        t0 = time.perf_counter()
        x = self.base[self.perm]
        np.minimum(x, self.base[self.perm[::-1]], out=x)
        acc = int(np.bitwise_count(x & 0x5555).sum())
        for i in range(8000):
            acc ^= (i * 2654435761 >> 3) & (acc | 1)
        ",".join([str(i) for i in range(4000)])
        return time.perf_counter() - t0

    def start(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0

    def keep_up(self, timed_s: float) -> None:
        """Sample until the window's probe time reaches SHARE of timed_s."""
        while not self._samples or self._spent < self.SHARE * timed_s:
            self._samples.append(self._chunk())
            self._spent += self._samples[-1]

    def scale(self, seconds: float) -> float:
        """Scale a time from the current window, and close the window."""
        speed = statistics.median(self._samples)
        self.windows.append(speed)
        self.start()
        return seconds * (self.NOMINAL_S / speed) ** self.exponent


def import_program():
    """Import reeder from the checkout's src/ (the PYTHONPATH=src layout)."""
    sys.path.insert(0, str(SRC))
    try:
        import reeder
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import reeder from {SRC}: {exc}")
    if not Path(reeder.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: reeder was imported from {reeder.__file__}, not {SRC}")


import_program()
import tracing  # noqa: E402  (both import reeder, so they follow import_program)
import workloads  # noqa: E402


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> dict:
    from reeder import _kernel

    digest = hashlib.sha256()
    for path in sorted((SRC / "reeder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        # numba and numpy kernels are different programs: compare only
        # results whose backend matches
        "backend": "numba" if _kernel.HAVE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure_setup() -> tuple[float, list[float], list[float]]:
    """Set-up time at the reference's nominal speed, and the raw times.

    Start-up of a child interpreter drifts with the host (file cache, page
    faults): its median over one run went from 0.17 s to 0.33 s across runs
    while the probe's speed did not move.  So every set-up child is paired
    with a reference child, started right before it, that imports only
    numpy and click; the set-up time is reported as
    median(setup_i / ref_i) * SETUP_REF_NOMINAL_S.  The reference is
    benchmark code, so a change to the program moves only the numerator.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def child(code: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {code!r}: {proc.stderr[-500:]}")
        return elapsed, proc.stdout

    times, refs = [], []
    for _ in range(SETUP_REPS):
        refs.append(child(SETUP_REF_CODE)[0])
        elapsed, stdout = child(SETUP_CODE)
        if stdout != "3\n":
            raise RuntimeError(f"set-up run printed {stdout!r}, expected 3")
        times.append(elapsed)
    ratio = statistics.median(t / r for t, r in zip(times, refs))
    return ratio * SETUP_REF_NOMINAL_S, times, refs


class RssWatch:
    """Checks that the program's commands, not the client, set the peak RSS.

    ru_maxrss only rises.  The pass's peak is the program's if the last rise
    happened inside a command; a rise afterwards (a check, the probe), or
    none inside any command (the peak dates from before the pass), is
    reported as a problem, because then ``peak_rss_mb`` would not follow a
    change in the program's memory.
    """

    def __init__(self):
        self.before_mb = tracing.maxrss_mb()
        self.program_mb = 0.0  # the peak as last raised by a command

    def enter(self) -> None:
        self._entry_mb = tracing.maxrss_mb()

    def leave(self) -> None:
        now = tracing.maxrss_mb()
        if now > self._entry_mb:
            self.program_mb = now

    def problems(self) -> list[str]:
        peak = tracing.maxrss_mb()
        if peak > self.program_mb:
            return [f"peak RSS {peak:.1f} MB was set outside the program's commands, "
                    f"which raised it to {self.program_mb:.1f} MB"]
        return []


def run_pass(commands, probe: SpeedProbe, tracer=None,
             rss: RssWatch | None = None) -> tuple[float, int, list[str]]:
    """Run every command once; returns (timed seconds, failed, problems)."""
    gc.collect()
    elapsed, failed, problems = 0.0, 0, []
    for cmd in commands:
        probe.keep_up(elapsed)
        if rss is not None:
            rss.enter()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = cmd.run()
            else:
                result, _ = tracer.span(cmd.span, cmd.run)
        except Exception as exc:  # a crash is a failed command, not a crashed benchmark
            elapsed += time.perf_counter() - t0
            failed += 1
            problems.append(f"{cmd.label}: raised {exc!r}")
            continue
        finally:
            if rss is not None:
                rss.leave()
        elapsed += time.perf_counter() - t0
        try:
            bad = cmd.check(result)
        except Exception as exc:
            bad = [f"check raised {exc!r}"]
        del result
        if bad:
            failed += 1
            problems.append(f"{cmd.label}: {bad[0]}")
    probe.keep_up(elapsed)
    return elapsed, failed, problems


def measure(commands, seconds: float, probe: SpeedProbe, tracer=None) -> dict:
    """Repeat passes until the next one would overrun ``seconds``.

    With a tracer, a traced pass alternates with an untraced one; their
    scaled times give the tracing overhead, while the per-layer times stay
    raw: they attribute one pass, not compare runs.
    """
    out = {"passes": [], "raw": [], "plain": [], "layers": [], "attempted": 0,
           "failed": 0, "problems": [], "trace_problems": [], "first_pass_rss_mb": None}

    def one_pass(traced: bool) -> tuple[float, float]:
        rss = RssWatch() if out["first_pass_rss_mb"] is None else None
        if traced:
            first = len(tracer.spans)
            tracer.install()
            try:
                dt, failed, problems = run_pass(commands, probe, tracer, rss)
            finally:
                tracer.uninstall()
            out["trace_problems"] += tracer.nesting_problems(first)
            out["layers"].append(tracer.layer_metrics(first))
        else:
            dt, failed, problems = run_pass(commands, probe, rss=rss)
        if rss is not None:
            out["first_pass_rss_mb"] = tracing.maxrss_mb()
            out["rss_before_first_pass_mb"] = rss.before_mb
            out["rss_problems"] = rss.problems()
        out["attempted"] += len(commands)
        out["failed"] += failed
        out["problems"] += problems
        return dt, probe.scale(dt)

    start = time.perf_counter()
    while True:
        if tracer is not None:
            out["passes"].append(one_pass(True)[1])
            out["plain"].append(one_pass(False)[1])
        else:
            raw, scaled = one_pass(False)
            out["raw"].append(raw)
            out["passes"].append(scaled)
        spent = time.perf_counter() - start
        if spent + spent / len(out["passes"]) > seconds:
            break
    if tracer is not None:
        out["missing"] = tracer.missing
        out["spans"] = tracer.dump()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    end_to_end, per_layer = declared_metrics()
    env = environment()
    OUT.mkdir(exist_ok=True)

    setup_s, setup_times, setup_refs = (None, [], []) if args.trace else measure_setup()
    probe = SpeedProbe(SPEED_EXPONENT[args.workload])
    commands = workloads.build(args.workload, args.seed, OUT)
    workloads.warm_up()
    run = measure(commands, args.seconds, probe, tracing.Tracer() if args.trace else None)

    if args.trace:
        values = {
            name: statistics.median(m[name] for m in run["layers"])
            for name in run["layers"][0]
        }
        values["trace.overhead_ms"] = 1000 * (
            statistics.median(run["passes"]) - statistics.median(run["plain"])
        )
        units = per_layer
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": statistics.median(run["passes"]),
            "peak_rss_mb": run["first_pass_rss_mb"],
        }
        units = end_to_end
    if set(values) != set(units):
        sys.exit(f"perfbench: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": run["failed"] == 0 and not run["trace_problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, **result,
        "error_rate": run["failed"] / run["attempted"],
        "setup_times_s": setup_times, "setup_ref_times_s": setup_refs,
        "pass_times_s": run["passes"], "raw_pass_times_s": run["raw"],
        "untraced_pass_times_s": run["plain"], "probe_medians_s": probe.windows,
        "peak_rss_end_mb": tracing.maxrss_mb(),
        "rss_before_first_pass_mb": run["rss_before_first_pass_mb"],
        "commands": [c.label for c in commands],
        "problems": (run["trace_problems"] + run["rss_problems"] + run["problems"])[:20],
        "missing_entry_points": run.get("missing", []),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(run["spans"]) + "\n")

    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"workload={args.workload} seed={args.seed} passes={len(run['passes'])} "
          f"error_rate={record['error_rate']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
