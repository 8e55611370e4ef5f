"""Count the interior-point iterations of the perfbench workloads: set-up
plus one round of each, with ``sdp.solve`` wrapped from outside.

For each workload it prints the solves and their iterations, in all and in
the round alone, the round's failed operations (the workload's own check),
the solves by status (Optimal, or Decided for a verdict-only feasibility
solve that stopped at its first certificate: the Peres scan's LHS solves)
and the Newton systems solved by least squares, a
histogram of iterations per solve (iterations:solves) and the solves and
iterations per program shape: block dimension d, blocks nb, kept rows m and
free variables nf.  Every round is deterministic given the seed, so two runs
print the same lines.  It exits 1 when any solve ends NumericalFailure or any
operation fails, so a solver failure that a workload's check passes over
still shows.

usage: python iters.py [TREE] [--seed N] [--workload NAME ...]
"""
import argparse
import collections
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count(workloads, sdp, name: str, seed: int):
    """The iterations, the (d, nb, m, nf) shape, the status and the
    least-squares fallbacks of every solve over the set-up and one round of
    a workload, the solves of the set-up, and the round's operations and
    failed operations."""
    iters, shapes, statuses, fallbacks = [], [], [], []
    orig = sdp.solve

    def solving(p, *args, **kwargs):
        c = p.structure
        sol = orig(p, *args, **kwargs)
        iters.append(sol.iterations)
        shapes.append((c.d, c.nb, c.m, c.nf))
        statuses.append(sol.status)
        fallbacks.append(sol.lstsq_fallbacks)
        return sol

    w = workloads.WORKLOADS[name]()
    sdp.solve = solving
    try:
        w.setup(seed, workloads.load_reference())
        n_setup = len(iters)
        out = w.round(workloads.Recorder())
    finally:
        sdp.solve = orig
    fails = workloads.Fails()
    ops = w.check(out, fails)
    return iters, shapes, statuses, fallbacks, n_setup, ops, len(fails.ops)


def report(name: str, iters: list, shapes: list, statuses: list, fallbacks: list,
           n_setup: int, ops: int, failed: int) -> list[str]:
    hist = collections.Counter(iters)
    by_status = collections.Counter(statuses)
    per = collections.defaultdict(lambda: [0, 0])
    for k, shape in zip(iters, shapes):
        per[shape][0] += 1
        per[shape][1] += k
    rnd = iters[n_setup:]
    lines = [f"{name}: {len(iters)} solves, {sum(iters)} iterations; round {len(rnd)} solves, "
             f"{sum(rnd)} iterations, {failed} of {ops} ops failed",
             "  status " + " ".join(f"{k}:{by_status[k]}" for k in sorted(by_status))
             + f", {sum(fallbacks)} lstsq fallbacks",
             "  histogram " + " ".join(f"{k}:{hist[k]}" for k in sorted(hist))]
    lines += [f"  d={d} nb={nb} m={m} nf={nf}: {n} solves, {t} iterations"
              for (d, nb, m, nf), (n, t) in sorted(per.items())]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", default=ROOT, help="source tree (default: this one)")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", action="append", help="one workload (repeatable; default: all)")
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [p for p in (os.path.join(tree, "src"), tree) if p not in sys.path]

    from perfbench import workloads
    from subincompat import sdp

    total = [0, 0]
    bad = False
    for name in args.workload or list(workloads.WORKLOADS):
        iters, shapes, statuses, fallbacks, n_setup, ops, failed = count(workloads, sdp, name, args.seed)
        print(*report(name, iters, shapes, statuses, fallbacks, n_setup, ops, failed), sep="\n")
        total[0] += len(iters)
        total[1] += sum(iters)
        bad |= failed > 0 or sdp.STATUS_NUMERICAL_FAILURE in statuses
    print(f"total: {total[0]} solves, {total[1]} iterations")
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
