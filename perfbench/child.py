"""One cold run of a workload, in a fresh interpreter.

Started by run.py as ``python3 perfbench/child.py '<spec json>'`` with
PERFBENCH_LAUNCH set to the wall-clock time just before the launch, so that
setup time covers interpreter start and ``import parahoric``. Prints one JSON
object on its last stdout line.
"""
import os
import sys
import time

_LAUNCH = float(os.environ["PERFBENCH_LAUNCH"])
import parahoric  # noqa: E402  (timed: this is the set-up every CLI call pays)

SETUP_S = time.time() - _LAUNCH

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def run(spec: dict) -> dict:
    import workloads
    from tracer import Tracer

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    requests = workloads.build(spec["workload"], spec["seed"])
    outputs = []
    start = time.perf_counter()
    for req in requests:
        t0 = time.perf_counter()
        try:
            out, error = req.call(), None
        except Exception as exc:  # a raising request is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        outputs.append((out, error, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = json.loads(Path(spec["expected"]).read_text())
    records = []
    for req, (out, error, seconds) in zip(requests, outputs):
        rec = {"id": req.id, "seconds": seconds, "digest": None, "failure": error}
        if error is None:
            rec["digest"] = workloads.canonical_digest(req.canonical(out))
            try:
                rec["failure"] = req.check(out, expected)
            except Exception as exc:
                rec["failure"] = f"oracle raised {type(exc).__name__}: {exc}"
        records.append(rec)
    return {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "requests": records,
        "trace": tracer.report() if tracer else None,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    if Path(parahoric.__file__).resolve().parent.parent != src:
        print(f"parahoric imported from {parahoric.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": SETUP_S} if spec["mode"] == "import" else run(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
