"""Record one trajectory point: every workload, several seeds, one command.

Usage, from the root of a checkout:

    python3 perfbench/record.py LABEL [--out perfbench/trajectory.json]

Runs ``run.py --trace 0`` once per seed in SEEDS for every workload, round
robin so that a slow spell of the machine is shared between workloads, then
one ``--trace 1`` run per workload on the first seed.  Prints every
end-to-end metric by name and unit with its median, quartiles and spread
(quartile distance over median) against the bound in BENCHMARK.json, and the change from the first point of
the trajectory when both were recorded with the same kernel backend; numba
and numpy results are never compared.  Appends the point to ``--out``,
replacing an earlier point with the same label.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr[-2000:]}")
    env = json.loads(lines[-2].removeprefix("env "))
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--out", type=Path, default=HERE / "trajectory.json")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {w: [] for w in names}
    env = None
    for seed in SEEDS:
        for w in names:
            env, result = run_once(w, seed, seconds, 0)
            raw[w].append(result)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    point = {"label": args.label,
             "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "env": env, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for w in names:
        _, traced = run_once(w, SEEDS[0], seconds, 1)
        results = raw[w]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        point["workloads"][w] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
            "end_to_end": {
                k: {"unit": m["unit"], **summarize([r["metrics"][k]["value"] for r in results])}
                for k, m in results[0]["metrics"].items()
            },
            "traced_seed": SEEDS[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }

    points = json.loads(args.out.read_text()) if args.out.exists() else []
    base = points[0] if points else None
    print(f"\nbackend={env['backend']} run_seconds={seconds} seeds={SEEDS[0]}..{SEEDS[-1]}")
    print(f"{'workload':11} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  vs {base['label'] if base else '-'}")
    for w, data in point["workloads"].items():
        print(f"{w:11} {'error_rate':12} {data['error_rate']:10.4g}   "
              f"({data['failed']} failed of {data['attempted']})")
        for k, s in data["end_to_end"].items():
            if base is None or w not in base["workloads"]:
                delta = "-"
            elif base["env"]["backend"] != env["backend"]:
                delta = f"not comparable ({base['env']['backend']} vs {env['backend']})"
            else:
                b = base["workloads"][w]["end_to_end"][k]["median"]
                delta = f"{(s['median'] - b) / b:+.3f}"
            print(f"{w:11} {k:12} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
                  f"{s['spread']:7.3f} {bounds[k]:6.2f}  {delta} {s['unit']}")

    points = [p for p in points if p["label"] != args.label] + [point]
    args.out.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
