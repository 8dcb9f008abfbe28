"""Benchmark of the parahoric engine: four closed-loop workloads, one client.

    python3 perfbench/run.py --workload {series,family,lift,bgg} --seed N \
        --seconds S --trace {0,1}

Run from a checkout that holds ``src/parahoric``. Every sample is a fresh
interpreter (child.py), so the engine's unbounded caches start cold, as for
every CLI call. The requests of a workload run back to back in that child.

--trace 0 alternates import-only children with workload children, starting
another workload child while it should end within S seconds (at least one),
and reports the end-to-end metrics of BENCHMARK.json as low medians over them.
--trace 1 runs one plain and one traced child and reports the per-layer
metrics of the traced one, plus the tracing overhead. Each output is checked
against an oracle that does not use the overconvergent engine (see
workloads.py). The last stdout line is one JSON object; the full record, with
per-request digests and the host, is written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXPECTED_CALLS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("series", "family", "lift", "bgg")
PROBES_PER_CHILD = 3       # import-only children before and after each workload child
RUN_DEADLINE_S = 170.0     # a run must end within 180 s
HOST_LOOP = 2_000_000      # iterations of the pure-Python host-speed probe


class ChildFailed(RuntimeError):
    pass


def launch(spec: dict, timeout: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["PERFBENCH_LAUNCH"] = repr(time.time())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_record() -> dict:
    t0 = time.perf_counter()
    acc = 0
    for i in range(HOST_LOOP):
        acc = (acc + i * i) % 1_000_003
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg_1m": os.getloadavg()[0],
        "int_loop_s": time.perf_counter() - t0,
    }


def judge(children: list[dict], expected: dict) -> dict:
    """Count failed requests; only failures recorded as known defects keep the
    run correct. A changed digest is reported, not counted."""
    attempted = failed = 0
    unexpected, known, changed = [], set(), set()
    for child in children:
        for rec in child["requests"]:
            attempted += 1
            ref = expected["digests"].get(rec["id"])
            if rec["digest"] is not None and rec["digest"] != ref:
                changed.add(rec["id"])
            if rec["failure"] is None:
                continue
            failed += 1
            defect = expected["known_defects"].get(rec["id"])
            if defect is not None and defect["failure"] == rec["failure"]:
                known.add(rec["id"])
            else:
                unexpected.append(f"{rec['id']}: {rec['failure']}")
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected,
            "known_defects": sorted(known), "changed_digests": sorted(changed)}


def end_to_end(children: list[dict], probes: list[dict], verdict: dict) -> dict:
    """Low medians over the run's fresh interpreters: of two children, the
    faster one, so one child slowed by a burst of host load does not set it."""
    setups = [c["setup_s"] for c in probes + children]
    return {
        "wall_s": statistics.median_low(c["wall_s"] for c in children),
        "setup_s": statistics.median_low(setups),
        "peak_rss_mb": statistics.median_low(c["peak_rss_mb"] for c in children),
        "ops_ok_frac": 1 - verdict["failed"] / verdict["attempted"],
    }


def per_layer(plain: dict, traced: dict, names: list[str]) -> tuple[dict, list[str]]:
    stages = traced["trace"]["stages"]
    values, absent = {}, []
    for name in names:
        if name == "trace.overhead_frac":
            values[name] = traced["wall_s"] / plain["wall_s"] - 1
            continue
        stage, stat = name.rsplit(".", 1)
        entry = stages.get(stage)
        if entry is None:
            absent.append(name)
        values[name] = (entry or {}).get(stat, 0)
    return values, absent


def self_check(workload: str, traced: dict) -> list[str]:
    """Stages that recorded no call on a workload that must reach them."""
    stages = traced["trace"]["stages"]
    return [f"{stage} recorded no calls on {workload}"
            for stage, wls in EXPECTED_CALLS.items()
            if workload in wls and stages.get(stage) is not None
            and stages[stage]["calls"] == 0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "parahoric" / "__init__.py").is_file():
        print(f"error: no src/parahoric under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    spec = {"workload": args.workload, "seed": args.seed, "trace": 0, "mode": "run",
            "src": str(ROOT / "src"), "expected": str(HERE / "expected.json")}
    probe = dict(spec, mode="import")

    try:
        launch(probe, deadline - time.perf_counter())   # warm-up: writes bytecode
        host = host_record()
        probes: list[dict] = []
        if args.trace:
            children = [launch(spec, deadline - time.perf_counter()),
                        launch(dict(spec, trace=1), deadline - time.perf_counter())]
        else:
            # import probes go around every child, so a burst of host load
            # during one part of the run does not set the setup_s median; a
            # further child starts only if it should end within --seconds
            children, spans = [], []
            t0 = time.perf_counter()
            while True:
                probes += [launch(probe, deadline - time.perf_counter())
                           for _ in range(PROBES_PER_CHILD)]
                now = time.perf_counter()
                if spans and now - t0 + statistics.median(spans) > args.seconds:
                    break
                children.append(launch(spec, deadline - now))
                spans.append(time.perf_counter() - now)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    verdict = judge(children, expected)
    problems = list(verdict["unexpected"])
    absent: list[str] = []
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, absent = per_layer(children[0], children[1], names)
        problems += self_check(args.workload, children[1])
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = end_to_end(children, probes, verdict)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "verdict": verdict, "metrics": values,
              "absent": absent, "probes": probes, "children": children}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(children)} cold runs, "
          f"host nproc={host['nproc']} load1={host['loadavg_1m']:.2f} "
          f"int_loop={host['int_loop_s']:.3f}s")
    for name, value in values.items():
        print(f"  {name} = {'absent' if name in absent else f'{value:.6g}'} {units[name]}")
    print(f"  ops_failed_frac = {verdict['failed'] / verdict['attempted']:.6g} ratio "
          f"({verdict['failed']} of {verdict['attempted']} requests)")
    for rid in verdict["known_defects"]:
        print(f"  known defect still present: {rid}")
    for rid in verdict["changed_digests"]:
        print(f"  output digest changed: {rid}")
    if args.trace:
        stages = children[1]["trace"]["stages"]
        top = max((s for s in stages if stages[s]), key=lambda s: stages[s]["self_s"])
        share = stages[top]["self_s"] / children[1]["wall_s"]
        print(f"  largest self time: {top} ({share:.0%} of traced wall)")
        for entry in children[1]["trace"]["absent"]:
            print(f"  absent entry point: {entry}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
