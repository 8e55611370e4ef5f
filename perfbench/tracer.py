"""Span tracer for the traced benchmark run.

Wraps the public functions of each layer of ``subincompat`` from outside
the package: nothing in ``src/`` is changed.  A function that another module
imported with ``from ... import`` is rebound there as well, because patching
only the defining module would miss those calls; ``Povm.__post_init__`` and
the ``Builder`` methods are patched on their classes.

Each span records name, start, end, parent span and the id of the benchmark
operation it ran in.  Spans stay in memory until ``write`` at the end of the
run.  Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from subincompat import coexist, incompat, linalg, povm, sdp, steering, subspace

# (owner, attribute, span name); the owner is a module or a class
LAYERS = [
    (sdp, "solve", "sdp.solve"),
    (sdp, "feasibility", "sdp.feasibility"),
    (sdp.Builder, "eq_matrix", "sdp.Builder.eq_matrix"),
    (sdp.Builder, "eq_scalar", "sdp.Builder.eq_scalar"),
    (sdp.Builder, "objective", "sdp.Builder.objective"),
    (sdp.Builder, "extract", "sdp.Builder.extract"),
    (linalg, "eig_hermitian", "linalg.eig_hermitian"),
    (linalg, "haar_subspace", "linalg.haar_subspace"),
    (povm.Povm, "__post_init__", "povm.Povm"),
    (povm, "truncate", "povm.truncate"),
    (incompat, "depolarising_robustness", "incompat.depolarising_robustness"),
    (incompat, "jm_parent", "incompat.jm_parent"),
    (incompat, "witness", "incompat.witness"),
    (coexist, "coexistent_parent", "coexist.coexistent_parent"),
    (coexist, "seesaw", "coexist.seesaw"),
    (steering, "lhs_feasible", "steering.lhs_feasible"),
    (steering, "assemblage_from_state", "steering.assemblage_from_state"),
    (steering, "peres_state", "steering.peres_state"),
    (steering, "pretty_good", "steering.pretty_good"),
    (subspace, "classify", "subspace.classify"),
]
BUILDER_SPANS = [name for _, _, name in LAYERS if name.startswith("sdp.Builder.")]

# (metric name, unit, better): every metric that ``per_layer`` returns
METRICS = [
    ("sdp.solve.calls", "count", "lower"),
    ("sdp.solve.busy_s", "s", "lower"),
    ("sdp.solve.iters", "count", "lower"),
    ("sdp.solve.s_per_iter", "s", "lower"),
    ("sdp.solve.non_optimal", "count", "lower"),
    ("sdp.rows.mean", "count", "lower"),
    ("sdp.block_dim.max", "count", "lower"),
    ("sdp.schur_madds", "count", "lower"),
    ("sdp.feasibility.calls", "count", "lower"),
    ("sdp.feasibility.self_s", "s", "lower"),
    ("sdp.Builder.busy_s", "s", "lower"),
    ("sdp.Builder.rows", "count", "lower"),
    ("linalg.eig_hermitian.calls", "count", "lower"),
    ("linalg.eig_hermitian.busy_s", "s", "lower"),
    ("povm.Povm.calls", "count", "lower"),
    ("povm.Povm.self_s", "s", "lower"),
    ("incompat.depolarising_robustness.calls", "count", "lower"),
    ("incompat.depolarising_robustness.self_s", "s", "lower"),
    ("incompat.jm_parent.calls", "count", "lower"),
    ("incompat.jm_parent.self_s", "s", "lower"),
    ("incompat.witness.calls", "count", "lower"),
    ("incompat.witness.self_s", "s", "lower"),
    ("coexist.coexistent_parent.calls", "count", "lower"),
    ("coexist.coexistent_parent.busy_s", "s", "lower"),
    ("coexist.seesaw.self_s", "s", "lower"),
    ("coexist.seesaw.solves_per_seed", "count", "lower"),
    ("coexist.seesaw.hits_per_seed", "ratio", "higher"),
    ("steering.lhs_feasible.busy_s", "s", "lower"),
    ("steering.assemblage_from_state.busy_s", "s", "lower"),
    ("steering.peres_state.busy_s", "s", "lower"),
    ("steering.pretty_good.busy_s", "s", "lower"),
    ("subspace.classify.self_s", "s", "lower"),
    ("linalg.haar_subspace.busy_s", "s", "lower"),
    ("povm.truncate.busy_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.ops_per_s.untraced", "1/s", "higher"),
    ("trace.ops_per_s.traced", "1/s", "higher"),
]


def schur_madds(rows: int, blocks: list[int], iterations: int) -> int:
    """Multiply-adds of the dense Schur assembly, computed (not measured):
    per iteration and block of size n, two (m, n, n) x (n, n) products and
    the (m, n, n) x (m, n, n) contraction, with m the problem's row count
    before presolve."""
    return iterations * sum(2 * rows * n**3 + rows * rows * n * n for n in blocks)


class Tracer:
    def __init__(self, rec):
        self.rec = rec
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.solves: list[tuple[int, list[int], int, str]] = []  # rows, blocks, iterations, status
        self.builder_rows = 0
        self.seesaw_seeds = 0
        self.seesaw_hits = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "subincompat"]
        for owner, attr, name in LAYERS:
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for m in modules:  # the defining module and every from-import
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack, rec = self.spans, self._stack, self.rec
        after = {
            "sdp.solve": self._after_solve,
            "coexist.seesaw": self._after_seesaw,
        }.get(name)
        counts_rows = name in ("sdp.Builder.eq_matrix", "sdp.Builder.eq_scalar")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.op]
            spans.append(span)
            stack.append(sid)
            rows0 = len(args[0].prob.constraints) if counts_rows else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts_rows:
                self.builder_rows += len(args[0].prob.constraints) - rows0
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_solve(self, args, kwargs, sol) -> None:
        p = args[0] if args else kwargs["p"]
        self.solves.append((len(p.constraints), list(p.blocks), sol.iterations, sol.status))

    def _after_seesaw(self, args, kwargs, hits) -> None:
        self.seesaw_seeds += args[3] if len(args) > 3 else kwargs["seeds"]
        self.seesaw_hits += len(hits)

    # -- summaries -----------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Every metric in METRICS but the two that compare with the plain
        run (trace.ops_per_s.*)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)  # outermost spans of a name only
        self_s: dict[str, float] = defaultdict(float)
        seesaw_solves = 0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            p, outermost, in_seesaw = parent, True, False
            while p >= 0:
                outermost = outermost and spans[p][0] != name
                in_seesaw = in_seesaw or spans[p][0] == "coexist.seesaw"
                p = spans[p][3]
            if outermost:
                busy[name] += t1 - t0
            if name == "sdp.solve" and in_seesaw:
                seesaw_solves += 1
        iters = sum(s[2] for s in self.solves)
        seeds = self.seesaw_seeds
        out = {
            "sdp.solve.calls": calls["sdp.solve"],
            "sdp.solve.busy_s": busy["sdp.solve"],
            "sdp.solve.iters": iters,
            "sdp.solve.s_per_iter": busy["sdp.solve"] / iters if iters else 0.0,
            "sdp.solve.non_optimal": sum(s[3] != sdp.STATUS_OPTIMAL for s in self.solves),
            "sdp.rows.mean": sum(s[0] for s in self.solves) / len(self.solves) if self.solves else 0.0,
            "sdp.block_dim.max": max((max(s[1], default=0) for s in self.solves), default=0),
            "sdp.schur_madds": sum(schur_madds(*s[:3]) for s in self.solves),
            "sdp.feasibility.calls": calls["sdp.feasibility"],
            "sdp.feasibility.self_s": self_s["sdp.feasibility"],
            "sdp.Builder.busy_s": sum(busy[n] for n in BUILDER_SPANS),
            "sdp.Builder.rows": self.builder_rows,
            "coexist.seesaw.solves_per_seed": seesaw_solves / seeds if seeds else 0.0,
            "coexist.seesaw.hits_per_seed": self.seesaw_hits / seeds if seeds else 0.0,
            "trace.spans": len(spans),
        }
        for metric, _, _ in METRICS:
            if metric in out or metric.startswith("trace."):
                continue
            name, kind = metric.rsplit(".", 1)
            out[metric] = {"calls": calls, "busy_s": busy, "self_s": self_s}[kind][name]
        return out

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span:
        [name, start, end, parent, op id].  parent is the index of the
        parent span (0 for the first span line, -1 for none); times are in
        seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent, op]) + "\n")
