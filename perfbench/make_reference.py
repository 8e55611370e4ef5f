"""Regenerate perfbench/reference.json from the library as it stands.

    python3 perfbench/make_reference.py

The stored file was made once, at the commit that added the benchmark, and
is what later commits are checked against; rerun this only to extend the
reference, never to make a failing check pass.  Takes a few minutes on one
core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402


def main() -> None:
    workloads, _ = run.import_library()
    from subincompat import coexist, incompat, steering

    w = workloads
    ref: dict = {"env": run.environment(seed=0)}

    ref["corpus"] = {"eta": {k: incompat.depolarising_robustness(a).eta for k, a in w.corpus_targets()}}
    print("corpus done", file=sys.stderr)

    ref["ladder"] = {"eta": [incompat.depolarising_robustness(w.ladder_pair(j)).eta for j in range(w.LADDER_POOL)]}
    print("ladder done", file=sys.stderr)

    vals = np.arange(0.0, 1.0, w.PERES_STEP)
    scan = [p for p in steering.peres_scan(w.PERES_STEP) if p.admissible]
    mubs = steering.peres_mubs()
    points, pg_eta = [], {}
    for p in scan:
        rho, _ = steering.peres_state(p.m1, p.m2)
        sa = steering.assemblage_from_state(rho, mubs)
        points.append([p.m1, p.m2, steering.lhs_slack(sa), bool(p.steerable)])
        if p.steerable:
            pg_eta[w.point_key(p.m1, p.m2)] = incompat.depolarising_robustness(steering.pretty_good(sa)).eta
    ref["peres-chain"] = {"grid": [float(vals[0]), w.PERES_STEP, len(vals)], "points": points,
                          "pretty_good_eta": pg_eta}
    print(f"peres done: {len(points)} admissible, {len(pg_eta)} steerable", file=sys.stderr)

    seeds = 40
    hits = coexist.seesaw(*w.SEESAW_SHAPE, seeds)
    ref["seesaw"] = {"seeds": seeds, "hits": [[h.seed, h.witness_value] for h in hits]}
    print(f"seesaw done: {[h.seed for h in hits]}", file=sys.stderr)

    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=0)
        f.write("\n")


if __name__ == "__main__":
    main()
