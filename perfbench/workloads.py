"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client in one process.  ``setup``
builds the inputs from the workload seed and makes one warm-up call per
distinct problem shape; ``round`` runs one unit of work through the library
API and opens one operation per grid point, subspace, pair or seesaw seed on
the ``Recorder``; ``check`` compares a round's outputs with the closed forms
and with ``reference.json``, marks failed operations on a ``Fails`` and
returns the number of operations the round attempted.

Every round is deterministic given the seed, so a traced run of a fixed
number of rounds repeats its solver counts exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from subincompat import coexist, corpus, incompat, linalg, povm, steering, subspace
from subincompat.povm import Assemblage

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Tolerances, fixed before any measurement.  The solver's own gap and
# residual tolerances are 1e-8, so a correct solve sits far inside these.
ETA_TOL = 1e-6  # |eta - reference|
PARENT_TOL = 1e-7  # max |parent marginal - depolarised element|
PT_TOL = 1e-10  # partial-transpose residual of a Peres state (criterion 07)
HIT_MARGIN = 1e-6  # a seesaw hit needs witness > 1 + HIT_MARGIN (criterion 11)
PG_ETA_LO = 5.0 / 8.0 - 1e-3  # criterion 07's window for the pretty-good eta
PG_ETA_HI = 1.0 - 1e-3
# Slacks at or below the library's feasibility tolerance (sdp.FEAS_SLACK_TOL
# when the reference was made) are solver noise around a true slack of 0.
NOISE_SLACK = 1e-7
MARGIN_FACTOR = 100.0
START_MARGIN = 1e-3  # a chain's start point has its reference eta this far inside the window

PG_KEY = "peres-steerable/pretty-good"
LADDER_DIM = 5
LADDER_POOL = 32
LADDER_POOL_SEED = 20100404
PERES_STEP = 0.02
PERES_POINTS = 60  # grid points scanned per chain
CLASSIFY_N = 2
CLASSIFY_SAMPLES = 20  # Haar samples per classify call, on top of the probes
SEESAW_SHAPE = (3, 2, 3)  # dim, outcomes of A, outcomes of B (criterion 11)
SEESAW_SEEDS = 24  # seeds per seesaw call; the library always starts at seed 0
PROBE_EVERY_S = 0.25  # in-round speed probes, at most this often


class Recorder:
    """Operation clock: one latency per operation, and the current
    operation's id, which the tracer stamps on every span.

    Given a speed probe (speed.probe), ``sample`` runs it and keeps one
    (operations done so far, probe seconds, start, end) entry per probe.
    With ``in_round`` it also probes at an operation boundary whenever
    PROBE_EVERY_S has passed since the last probe, outside every operation.
    The traced run leaves that off: a probe inside a library call would
    count as the self time of the enclosing span."""

    def __init__(self, probe=None, in_round: bool = False):
        self.latencies: list[float] = []
        self.op = 0
        self.probes: list[tuple[int, float, float, float]] = []
        self._probe = probe
        self._in_round = in_round
        self._t0: float | None = None

    def sample(self, passes: int = 1) -> None:
        t0 = time.perf_counter()
        k = self._probe(passes)
        self.probes.append((len(self.latencies), k, t0, time.perf_counter()))

    def begin(self) -> None:
        now = time.perf_counter()
        if self._t0 is not None:
            self.latencies.append(now - self._t0)
        if self._in_round and self.probes and now - self.probes[-1][3] >= PROBE_EVERY_S:
            self.sample()
            now = time.perf_counter()
        self._t0 = now
        self.op += 1

    def end(self) -> None:
        if self._t0 is not None:
            self.latencies.append(time.perf_counter() - self._t0)
            self._t0 = None


class Batch:
    """Operations inside one library call.  Set ``expected`` once known;
    ``error`` is set when the call ends if its operations could not be
    timed one by one, and the workload's check then fails all of them."""

    expected: int | None = None
    error: str | None = None


@contextlib.contextmanager
def operations(rec: Recorder, mark: tuple, solver: tuple, every: int = 1, one_solve: bool = True):
    """Time the operations inside one library call that handles many.

    ``mark`` and ``solver`` are (module, attribute) pairs.  The call enters
    ``mark`` once (or ``every`` times) per operation, so each entry opens
    the next operation, and the operation's own solve must run before the
    next entry: every operation must enter ``solver`` exactly once (at
    least once if not ``one_solve``).  Solver calls before the first entry
    belong to no operation.  If the entries do not number
    ``batch.expected``, or an operation's solves are off (as in a version
    that builds every problem first and then solves them together), the
    latencies are not per operation and ``batch.error`` names the mismatch.
    """
    (mark_mod, mark_attr), (solver_mod, solver_attr) = mark, solver
    orig_mark, orig_solver = getattr(mark_mod, mark_attr), getattr(solver_mod, solver_attr)
    solves: list[int] = []  # solver calls of each operation opened so far
    entries = 0

    def marked(*args, **kwargs):
        nonlocal entries
        if entries % every == 0:
            rec.begin()
            solves.append(0)
        entries += 1
        return orig_mark(*args, **kwargs)

    def solving(*args, **kwargs):
        if solves:
            solves[-1] += 1
        return orig_solver(*args, **kwargs)

    batch = Batch()
    setattr(mark_mod, mark_attr, marked)
    setattr(solver_mod, solver_attr, solving)
    try:
        yield batch
    finally:
        setattr(solver_mod, solver_attr, orig_solver)
        setattr(mark_mod, mark_attr, orig_mark)
        rec.end()
        bad = [i for i, k in enumerate(solves) if (k != 1 if one_solve else k < 1)]
        if batch.expected is not None and len(solves) != batch.expected:
            batch.error = f"{len(solves)} operations entered {mark_attr}, expected {batch.expected}"
        elif bad:
            batch.error = (f"operation {bad[0]} of {len(solves)} called {solver_attr} {solves[bad[0]]} times, "
                           f"so latencies are not per operation")


def attempt(fn, *args, **kwargs):
    """Call fn; an exception is a failed operation, reported and returned."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the loop must go on; the op counts as failed
        traceback.print_exc(file=sys.stderr)
        return exc


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def parent_residual(a: Assemblage, eta: float, parent) -> float:
    """Largest entry of parent marginal minus the depolarised element
    eta*E + (1-eta)*tr(E)/d."""
    d = a.dim
    worst = 0.0
    for x, m in enumerate(a.measurements):
        for out, e in enumerate(m.elements):
            target = eta * e + (1.0 - eta) * (np.trace(e).real / d) * np.eye(d)
            got = np.zeros((d, d), dtype=complex)
            for lab, g in zip(parent.outcome_labels, parent.elements):
                if lab[x] == out:
                    got += g
            worst = max(worst, float(np.abs(got - target).max()))
    return worst


def haar_basis(d: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Columns of a Haar-random unitary (QR of a Ginibre matrix, phases fixed)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return [q[:, k] for k in range(d)]


def ladder_pair(j: int) -> Assemblage:
    """Pool entry j: the identity basis against a Haar basis, d outcomes each."""
    d = LADDER_DIM
    basis = haar_basis(d, np.random.default_rng([LADDER_POOL_SEED, j]))
    return Assemblage(d, [povm.from_basis(np.eye(d, dtype=complex)), povm.from_basis(basis)])


def corpus_targets() -> list[tuple[str, Assemblage]]:
    """Criterion 12's targets: every corpus assemblage plus the pretty-good
    assemblage of the steerable Peres point."""
    out = [(k, corpus.build(k)) for k in corpus.builtin_keys() if corpus.kind_of(k) == "assemblage"]
    out.append((PG_KEY, steering.pretty_good(corpus.build("peres-steerable"))))
    return out


def point_key(m1: float, m2: float) -> str:
    return f"{m1:.2f},{m2:.2f}"


class Fails:
    """Failed operations of one round, by index within the round; an
    operation fails once however many of its checks fail."""

    def __init__(self):
        self.ops: set[int] = set()
        self.messages: list[str] = []

    def add(self, op: int, message: str) -> None:
        if op not in self.ops:
            self.ops.add(op)
            self.messages.append(message)

    def check(self, op: int, ok: bool, message: str) -> None:
        if not ok:
            self.add(op, message)


class Corpus:
    """Robustness cycled over criterion 12's eight targets; the seed picks
    the cycle order.  One operation is one robustness call."""

    name = "corpus"
    trace_rounds = 4
    seed_note = "seed orders the cycle"

    def setup(self, seed: int, ref: dict) -> None:
        targets = corpus_targets()
        order = np.random.default_rng(seed).permutation(len(targets))
        self.targets = [targets[i] for i in order]
        self.ref = ref["corpus"]["eta"]
        self.first = {k: incompat.depolarising_robustness(a).eta for k, a in self.targets}

    def round(self, rec: Recorder) -> list:
        out = []
        for key, a in self.targets:
            rec.begin()
            out.append((key, a, attempt(incompat.depolarising_robustness, a)))
            rec.end()
        return out

    def check(self, outputs: list, fails: Fails) -> int:
        for op, (key, a, r) in enumerate(outputs):
            if isinstance(r, Exception):
                fails.add(op, f"{key}: raised {r!r}")
                continue
            expect = 1.0 / math.sqrt(2.0) if key == "sigma-xz-sharp" else self.ref[key]
            fails.check(op, abs(r.eta - expect) <= ETA_TOL, f"{key}: eta {r.eta!r} != {expect!r}")
            fails.check(op, r.eta == self.first[key], f"{key}: eta {r.eta!r} differs from warm-up")
            res = parent_residual(a, r.eta, r.parent)
            fails.check(op, res <= PARENT_TOL, f"{key}: parent residual {res:.2e}")
        return len(outputs)


class Ladder:
    """Robustness of two rank-one bases at d = 5; the seed draws which pool
    entries run and in which order.  One operation is one robustness call."""

    name = "ladder"
    trace_rounds = 2
    seed_note = "seed draws the pool entries"

    def setup(self, seed: int, ref: dict) -> None:
        self.order = [int(j) for j in np.random.default_rng(seed).permutation(LADDER_POOL)]
        self.pairs = {j: ladder_pair(j) for j in self.order}
        self.ref = ref["ladder"]["eta"]
        self.pos = 0
        j0 = self.order[0]
        self.first = {j0: incompat.depolarising_robustness(self.pairs[j0]).eta}

    def round(self, rec: Recorder) -> list:
        j = self.order[self.pos % LADDER_POOL]
        self.pos += 1
        rec.begin()
        r = attempt(incompat.depolarising_robustness, self.pairs[j])
        rec.end()
        return [(j, r)]

    def check(self, outputs: list, fails: Fails) -> int:
        for op, (j, r) in enumerate(outputs):
            if isinstance(r, Exception):
                fails.add(op, f"pool {j}: raised {r!r}")
                continue
            fails.check(op, abs(r.eta - self.ref[j]) <= ETA_TOL, f"pool {j}: eta {r.eta!r} != {self.ref[j]!r}")
            first = self.first.setdefault(j, r.eta)
            fails.check(op, r.eta == first, f"pool {j}: eta {r.eta!r} differs from an earlier run {first!r}")
            res = parent_residual(self.pairs[j], r.eta, r.parent)
            fails.check(op, res <= PARENT_TOL, f"pool {j}: parent residual {res:.2e}")
        return len(outputs)


class PeresChain:
    """Criterion 07's chain at reduced size: scan a seed-chosen subset of the
    admissible 0.02-grid points, take the first steerable one, build its
    pretty-good assemblage, compute its robustness and classify it on 2-dim
    subspaces.  One operation is one grid point or one classified subspace.

    The subset starts with a seed-chosen point whose reference pretty-good
    eta lies inside criterion 07's window, so the chain always reaches the
    classify step on a clearly steerable point."""

    name = "peres-chain"
    trace_rounds = 1
    seed_note = "seed draws the grid subset, the start point and the classify seed"

    def setup(self, seed: int, ref: dict) -> None:
        pref = ref["peres-chain"]
        self.points = {point_key(m1, m2): (m1, m2, slack, steerable) for m1, m2, slack, steerable in pref["points"]}
        self.pg_ref = pref["pretty_good_eta"]
        noise = [abs(s) for _, _, s, _ in self.points.values() if abs(s) <= NOISE_SLACK]
        self.margin = MARGIN_FACTOR * max(noise)
        lo, hi = PG_ETA_LO + START_MARGIN, PG_ETA_HI - START_MARGIN
        self.starts = sorted(k for k, eta in self.pg_ref.items() if lo <= eta <= hi)
        self.keys = sorted(self.points)
        self.rng = np.random.default_rng(seed)
        self.unchecked = 0
        # warm-up: one LHS solve, one pretty-good robustness, one 2-dim robustness
        m1, m2 = self.points[self.starts[0]][:2]
        steering.peres_scan([(m1, m2)])
        pg = steering.pretty_good(steering.assemblage_from_state(steering.peres_state(m1, m2)[0], steering.peres_mubs()))
        incompat.depolarising_robustness(pg)
        incompat.depolarising_robustness(povm.truncate(pg, linalg.haar_subspace(pg.dim, CLASSIFY_N, 0)))

    def round(self, rec: Recorder) -> dict:
        start = self.starts[int(self.rng.integers(len(self.starts)))]
        rest = [k for k in self.keys if k != start]
        picked = [start] + [rest[i] for i in self.rng.choice(len(rest), PERES_POINTS - 1, replace=False)]
        grid = [self.points[k][:2] for k in picked]
        classify_seed = int(self.rng.integers(2**31))
        out: dict = {"grid": grid}
        with operations(rec, (steering, "peres_state"), (steering, "lhs_feasible")) as batch:
            batch.expected = len(grid)
            out["scan"] = attempt(steering.peres_scan, grid)
        out["scan_error"] = batch.error
        if isinstance(out["scan"], Exception):
            return out
        first = next((p for p in out["scan"] if p.steerable), None)
        if first is None:
            out["stopped"] = "no steerable point in the scanned subset"
            return out
        out["point"] = point_key(first.m1, first.m2)

        def pretty_good_of(m1, m2):
            rho, _ = steering.peres_state(m1, m2)
            return steering.pretty_good(steering.assemblage_from_state(rho, steering.peres_mubs()))

        pg = attempt(pretty_good_of, first.m1, first.m2)
        if isinstance(pg, Exception):
            out["stopped"] = f"pretty-good assemblage raised {pg!r}"
            return out
        out["pg"] = pg
        out["robustness"] = attempt(incompat.depolarising_robustness, pg)
        with operations(rec, (subspace, "truncate"), (incompat, "depolarising_robustness")) as batch:
            rep = attempt(subspace.classify, pg, CLASSIFY_N, CLASSIFY_SAMPLES, seed=classify_seed)
            if not isinstance(rep, Exception):
                batch.expected = len(rep.records)
        out["classify"] = rep
        out["classify_error"] = batch.error
        return out

    def check(self, out: dict, fails: Fails) -> int:
        """Returns the operations the round attempted; unchecked verdicts
        (reference slack inside the margin) are counted on self.unchecked."""
        grid, scan = out["grid"], out.get("scan")
        n_grid = len(grid)
        if isinstance(scan, Exception):  # the unreached classify step counts as one op
            for op in range(n_grid + 1):
                fails.add(op, f"peres_scan raised {scan!r}")
            return n_grid + 1
        if out["scan_error"]:
            for op in range(n_grid):
                fails.add(op, f"peres_scan: {out['scan_error']}")
        for op, (p, (m1, m2)) in enumerate(zip(scan, grid)):
            key = point_key(m1, m2)
            _, _, slack, steerable = self.points[key]
            fails.check(op, p.admissible, f"{key}: reported inadmissible")
            rho, _ = steering.peres_state(m1, m2)
            pt = linalg.partial_transpose(rho.matrix, (rho.dA, rho.dB), side="A")
            res = float(np.abs(pt - rho.matrix).max())
            fails.check(op, res < PT_TOL, f"{key}: PT residual {res:.2e}")
            if abs(slack) > self.margin:
                fails.check(op, p.steerable == steerable, f"{key}: steerable={p.steerable}, reference {steerable}")
            else:
                self.unchecked += 1
        op0 = n_grid  # chain-level checks are charged to the first subspace
        if "stopped" in out:
            fails.add(op0, f"chain stopped before classify: {out['stopped']}")
            return n_grid + 1
        key, pg, r, rep = out["point"], out["pg"], out["robustness"], out["classify"]
        if isinstance(r, Exception) or isinstance(rep, Exception):  # the classify step counts as one op
            fails.add(op0, f"{key}: robustness/classify raised {r!r} {rep!r}")
            return n_grid + 1
        n_sub = len(rep.records)
        if out["classify_error"]:
            for op in range(op0, op0 + n_sub):
                fails.add(op, f"classify: {out['classify_error']}")
        fails.check(op0, PG_ETA_LO <= r.eta <= PG_ETA_HI, f"{key}: pretty-good eta {r.eta!r} outside window")
        if key in self.pg_ref:
            fails.check(op0, abs(r.eta - self.pg_ref[key]) <= ETA_TOL, f"{key}: pretty-good eta {r.eta!r} != {self.pg_ref[key]!r}")
        else:
            fails.add(op0, f"{key}: first steerable point is not steerable in the reference")
        res = parent_residual(pg, r.eta, r.parent)
        fails.check(op0, res <= PARENT_TOL, f"{key}: parent residual {res:.2e}")
        fails.check(op0, rep.verdict == subspace.VERDICT_INCOMPRESSIBLE, f"{key}: classify verdict {rep.verdict}")
        fails.check(op0, rep.full_eta == r.eta, f"{key}: classify eta {rep.full_eta!r} != robustness eta {r.eta!r}")
        for op, rec in enumerate(rep.records, start=op0):
            fails.check(op, rec["verdict"] == incompat.VERDICT_COMPATIBLE, f"{key}: subspace {rec} not compatible")
        return n_grid + max(n_sub, 1)


class Seesaw:
    """coexist.seesaw(3, 2, 3, SEESAW_SEEDS): alternating witness and parent
    SDPs per seed.  One operation is one seed.  The library has no seed
    offset, so the workload seed does not change this workload."""

    name = "seesaw"
    trace_rounds = 1
    seed_note = "seed has no effect: seesaw always runs seeds 0..SEESAW_SEEDS-1"

    def setup(self, seed: int, ref: dict) -> None:
        self.ref_hits = {s for s, _ in ref["seesaw"]["hits"] if s < SEESAW_SEEDS}
        self.first: dict[int, float] = {}
        dim, m_a, m_b = SEESAW_SHAPE
        coexist.seesaw(dim, m_a, m_b, 1)  # witness and parent SDP shapes
        rng = np.random.default_rng(seed)
        a, b = povm.random_povm(dim, m_a, rng), povm.random_povm(dim, m_b, rng)
        coexist.coexistent_parent(a, b)  # the post-check shapes of a hit
        incompat.jm_parent(Assemblage(dim, [a, b]))

    def round(self, rec: Recorder) -> dict:
        with operations(rec, (coexist, "random_povm"), (incompat, "witness"), every=2, one_solve=False) as batch:
            batch.expected = SEESAW_SEEDS
            hits = attempt(coexist.seesaw, *SEESAW_SHAPE, SEESAW_SEEDS)
        return {"hits": hits, "error": batch.error}

    def check(self, out: dict, fails: Fails) -> int:
        hits = out["hits"]
        if isinstance(hits, Exception):
            for op in range(SEESAW_SEEDS):
                fails.add(op, f"seesaw raised {hits!r}")
            return SEESAW_SEEDS
        found = {h.seed: h for h in hits}
        for seed in range(SEESAW_SEEDS):
            if out["error"]:
                fails.add(seed, f"seesaw: {out['error']}")
            fails.check(seed, (seed in found) == (seed in self.ref_hits), f"seed {seed}: hit={seed in found}, reference {seed in self.ref_hits}")
            h = found.get(seed)
            if h is None:
                continue
            fails.check(seed, h.witness_value > 1.0 + HIT_MARGIN, f"seed {seed}: witness {h.witness_value!r}")
            first = self.first.setdefault(seed, h.witness_value)
            fails.check(seed, h.witness_value == first, f"seed {seed}: witness {h.witness_value!r} differs from {first!r}")
        return SEESAW_SEEDS


WORKLOADS = {w.name: w for w in (Corpus, Ladder, PeresChain, Seesaw)}
