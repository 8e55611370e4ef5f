"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Two traced rounds with the same seed must repeat the solver counts exactly
and return bitwise-identical results; operations that a library call does
not work through one by one must be flagged; the result line must follow
BENCHMARK.json; and outside a checkout the benchmark must fail without a
result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads, tracer = run.import_library()
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = ("sdp.solve.calls", "sdp.solve.iters", "sdp.rows.mean", "sdp.schur_madds")


def traced_round(name: str, seed: int):
    w = workloads.WORKLOADS[name]()
    w.setup(seed, workloads.load_reference())
    rec = workloads.Recorder()
    tr = tracer.Tracer(rec)
    tr.install()
    try:
        out = w.round(rec)
    finally:
        tr.uninstall()
    return w, out, tr.per_layer()


def results(name: str, out) -> list:
    """The numbers a round returns, for bitwise comparison."""
    if name == "corpus":
        return [(key, r.eta) for key, _, r in out]
    if name == "ladder":
        return [(j, r.eta) for j, r in out]
    if name == "peres-chain":
        return ([p.steerable for p in out["scan"]] + [out["robustness"].eta]
                + [rec["eta"] for rec in out["classify"].records])
    return [(h.seed, h.witness_value) for h in out["hits"]]


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_rounds_repeat_exactly(name):
    w, first, counts = traced_round(name, 3)
    _, again, counts_again = traced_round(name, 3)
    assert counts["sdp.solve.calls"] > 0
    assert {k: counts[k] for k in EXACT} == {k: counts_again[k] for k in EXACT}
    assert results(name, first) == results(name, again)
    fails = workloads.Fails()
    w.check(first, fails)
    assert fails.messages == []


def test_operations_flags_work_not_timed_per_operation():
    """A call that enters the mark of every operation before solving any
    (a batched solver) must get an error, not near-zero latencies."""
    lib = types.SimpleNamespace(mark=lambda: None, solve=lambda: None)

    def interleaved(n):
        for _ in range(n):
            lib.mark()
            lib.solve()

    def batched(n):
        for _ in range(n):
            lib.mark()
        for _ in range(n):
            lib.solve()

    for call, n, ok in ((interleaved, 4, True), (interleaved, 3, False), (batched, 4, False)):
        rec = workloads.Recorder()
        with workloads.operations(rec, (lib, "mark"), (lib, "solve")) as batch:
            batch.expected = 4
            call(n)
        assert (batch.error is None) == ok, (call.__name__, n, batch.error)


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_follows_benchmark_json(trace, key):
    proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
