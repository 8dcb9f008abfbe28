"""Regenerate expected.json: oracle values, known defects and reference digests.

    python3 perfbench/make_expected.py

Takes a few minutes: the classical U_5 charpoly at (11, 5, 2) alone is slow.
The classical counts use only the classical modular-symbol engine; the theta
kernel dimensions use oracles.py. Reference digests are the canonical JSON of
each request at the commit that ran this script.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from parahoric import linalg, ocsymbols  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

# Requests that fail their oracle because of an open defect. They stay in the
# workloads so the defect shows; the run still counts them as failed, and a
# failure with any other text makes the run incorrect.
KNOWN_DEFECTS = {
    "charpoly_up(11,5,2,M=8,xdeg=10)":
        "the slope < k+1 part at k > 0 disagrees with the classical spectrum",
    "bgg_kernel(n=2,i=0,lam=(16,0),d=16)":
        "levi_module_basis cannot reach the Weyl dimension for k >= 16",
}


def main() -> None:
    expected: dict = {"classical_unit_roots": {}, "theta_kernel_dims": {}}
    for N, p, k in ((11, 3, 0), (11, 5, 2)):
        up = ocsymbols.classical_space(N, p, k).up_matrix()
        count = oracles.unit_root_count(linalg.charpoly_berkowitz(up), p)
        expected["classical_unit_roots"][f"{N},{p},{k}"] = count
    for n, i, lam, d in workloads.BGG_GRID:
        dim = oracles.theta_kernel_dim(n, i, lam, d)
        expected["theta_kernel_dims"][workloads.bgg_id(n, i, lam, d)] = dim

    digests, defects = {}, {}
    for name in WORKLOADS:
        for req in workloads.build(name, 0):
            try:
                out = req.call()
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
            else:
                digests[req.id] = workloads.canonical_digest(req.canonical(out))
                failure = req.check(out, expected)
            if failure is None:
                continue
            if req.id not in KNOWN_DEFECTS:
                raise SystemExit(f"{req.id} fails its oracle: {failure}")
            defects[req.id] = {"failure": failure, "note": KNOWN_DEFECTS[req.id]}
            print(f"known defect {req.id}: {failure}")
    expected["known_defects"] = defects
    expected["digests"] = digests
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
