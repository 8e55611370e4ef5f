"""Print every checked result of a source tree, one `key value` line each,
floats as float.hex, so two trees can be diffed for bitwise equality.

usage: python bitwise.py TREE > out.txt
"""
import contextlib
import hashlib
import io
import sys

tree = sys.argv[1]
sys.path[:0] = [tree + "/src", tree]

import numpy as np  # noqa: E402

from perfbench import workloads as w  # noqa: E402
from subincompat import cli, coexist, corpus, incompat, steering, subspace  # noqa: E402


def h(x):
    return float(x).hex()


def arr(m):
    return hashlib.sha256(np.ascontiguousarray(m, dtype=complex).tobytes()).hexdigest()[:16]


targets = w.corpus_targets()
for k, a in targets:
    r = incompat.depolarising_robustness(a)
    print("eta", k, h(r.eta))
    print("eta-parent-hash", k, arr(np.array(r.parent.elements)))
    j = incompat.jm_parent(a)
    print("jm", k, j.feasible, h(j.slack))
for j in range(w.LADDER_POOL):
    print("ladder", j, h(incompat.depolarising_robustness(w.ladder_pair(j)).eta))

mubs = steering.peres_mubs()
vals = np.arange(0.0, 1.0, w.PERES_STEP)
n = 0
for u in vals:
    for v in vals:
        try:
            rho, _ = steering.peres_state(float(u), float(v))
        except ValueError:
            continue
        sa = steering.assemblage_from_state(rho, mubs)
        print("lhs", w.point_key(u, v), h(steering.lhs_slack(sa)))
        print("scan", w.point_key(u, v), steering.lhs_feasible(sa)[0])
        n += 1
print("lhs-points", n)

for k in corpus.builtin_keys():
    if corpus.kind_of(k) != "assemblage":
        continue
    a = corpus.build(k)
    if a.n_settings != 2:
        continue
    print("witness", k, h(incompat.witness(*a.measurements).value))
    c = coexist.coexistent_parent(*a.measurements)
    print("coex", k, c.method, c.coexistent, h(c.slack))
    if c.parent is not None:
        print("coex-parent-hash", k, arr(np.array(c.parent.elements)))

at, bt, _, _ = coexist.qubit_counterexample()
qutrit = corpus.build("qutrit-pair").measurements
for name, (a, b, c) in (("qubit-counterexample/B~", (at, bt, bt)),
                        ("qutrit-pair/B", (*qutrit, qutrit[1])),
                        ("qutrit-pair/A", (*qutrit, qutrit[0]))):
    r = coexist.coexistent_parent(a, b, candidate=c)
    print("cand", name, r.coexistent, h(r.slack))
    for key, kernel in (r.kernels or {}).items():
        print("cand-kernel-hash", name, *key, arr(kernel))

for hit in coexist.seesaw(3, 2, 3, 24):
    print("seesaw", hit.seed, hit.iterations, h(hit.witness_value),
          h(hit.coexistence_slack), h(hit.jm_slack),
          arr(np.array(hit.a1.elements + hit.a2.elements)))

for k in ("fully-compressible", "qutrit-pair"):
    rep = subspace.classify(corpus.build(k), 2, 20, seed=5, jobs=1)
    print("classify", k, rep.verdict, h(rep.full_eta))
    for i, rec in enumerate(rep.records):
        print("classify-eta", k, i, h(rec["eta"]))

# the reports of the CLI, through cli.main alone: one line per command with
# its exit code and the SHA-256 of its stdout
CLI_RUNS = (
    ("robustness", "--builtin", "qutrit-pair"),
    ("jm", "--builtin", "sigma-xz-noisy"),
    ("witness", "--builtin", "sigma-xz-sharp"),
    ("coexistence", "--builtin", "sigma-xz-sharp"),
    ("coexistence", "--builtin", "qubit-counterexample"),
    ("truncate", "--builtin", "qutrit-pair", "--coords", "0,1"),
    ("classify", "--builtin", "qutrit-pair", "--n", "2", "--samples", "5", "--seed", "0"),
    ("steering", "lhs", "--builtin", "peres-steerable"),
    ("steering", "pretty-good", "--builtin", "peres-steerable"),
    ("steering", "choi", "--builtin", "peres-steerable-state", "--alice-builtin", "peres-mubs"),
    ("peres", "construct", "--m1", "0.18", "--m2", "0.46"),
    ("mub-check",),
    ("integrals", "--samples", "1000", "--seed", "0"),
    ("corpus", "--list"),
)
for argv in CLI_RUNS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    print("cli", " ".join(argv), code, hashlib.sha256(out.getvalue().encode()).hexdigest())
