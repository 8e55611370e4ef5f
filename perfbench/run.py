"""subincompat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (corpus, ladder, peres-chain, seesaw) through the library
API in this process, checks every output, and prints one metric per line
followed by a JSON result line.  ``--workload all`` runs the four workloads
one after another, each in its own process so that each reports its own
peak memory.  With ``--trace 1`` it runs a fixed amount of work twice,
round by round alternating a plain copy and a copy with every layer wrapped
in spans, and reports per-layer numbers and the tracing overhead; the spans
go to
``.perfbench/spans-<workload>-seed<seed>.jsonl`` under the checkout.
``setup_s`` is the median of several set-ups, each in a fresh process
(``--setup-only`` runs one).  Times are reported at nominal machine speed
(see speed.py), with the raw seconds printed alongside.

BLAS threads are pinned to 1 before NumPy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
NAMES = ("corpus", "ladder", "peres-chain", "seesaw")
# setup_s is the median over fresh processes: at least SETUP_MIN of them, and
# more (up to SETUP_MAX) while their total stays under SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 2.0
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


def import_library():
    """Import the benchmark modules against the checkout's own sources;
    raise SystemExit(2) when the checkout has none."""
    init = SRC / "subincompat" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: {init.relative_to(ROOT)} not found; run from a checkout of the repository",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import subincompat

    if Path(subincompat.__file__).resolve() != init.resolve():
        print(f"perfbench: imported {subincompat.__file__}, not the checkout's sources", file=sys.stderr)
        raise SystemExit(2)
    import tracer
    import workloads

    return workloads, tracer


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


def tail(latencies: list[float]):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    above it, or None when fewer than 2 * TAIL_BEYOND samples exist."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


class Tally:
    """Rounds run; their busy seconds and operation latencies, raw and at
    nominal machine speed (see speed.py); and the operations they attempted
    and failed."""

    def __init__(self, nominal_s: float):
        self.nominal_s = nominal_s
        self.rounds = self.attempted = self.failed = 0
        self.busy = self.busy_raw = 0.0
        self.latencies: list[float] = []
        self.factors: list[float] = []
        self.messages: list[str] = []


def run_round(w, rec, workloads, tally: Tally, tr=None) -> None:
    """Run one round (traced when `tr` is given) between two speed probes,
    then check its outputs outside the timed region and drop them, so memory
    does not grow with the number of rounds.

    Between consecutive probes (an untraced recorder adds some inside long
    rounds), time and latencies are scaled to nominal speed by NOMINAL_S
    over the mean of the two probe times; the probes' own time is not
    counted."""
    first = len(rec.probes)
    rec.sample(3)
    if tr is not None:
        tr.install()
    try:
        out = w.round(rec)
    finally:
        if tr is not None:
            tr.uninstall()
    rec.sample(3)
    probes = rec.probes[first:]
    for (i, ka, _, a_end), (j, kb, b_start, _) in zip(probes, probes[1:]):
        f = tally.nominal_s / ((ka + kb) / 2)
        tally.busy_raw += b_start - a_end
        tally.busy += (b_start - a_end) * f
        tally.latencies += [x * f for x in rec.latencies[i:j]]
        tally.factors.append(f)
    fails = workloads.Fails()
    tally.attempted += w.check(out, fails)
    tally.failed += len(fails.ops)
    tally.messages += fails.messages
    tally.rounds += 1


def timed_setup(w, seed: int, ref: dict, speed) -> tuple[float, float]:
    """(seconds from process start to ready-to-measure, mean of the speed
    probes taken before and after the set-up).  The probes are not counted
    in the seconds."""
    before = time.perf_counter() - T_START  # imports and the reference
    k0 = speed.probe()
    t0 = time.perf_counter()
    w.setup(seed, ref)
    t = before + time.perf_counter() - t0
    return t, (k0 + speed.probe()) / 2


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    """timed_setup of a fresh process that does only the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    t, probe = proc.stdout.split()[-2:]
    return float(t), float(probe)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads, tracer = import_library()
    import speed

    ref = workloads.load_reference()
    w = workloads.WORKLOADS[name]()
    result: dict = {"workload": name, "seed_note": w.seed_note}

    if not trace:
        setups = [timed_setup(w, seed, ref, speed)]
        while len(setups) < SETUP_MIN or (sum(t for t, _ in setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
            setups.append(setup_in_child(name, seed))
        rec, tally = workloads.Recorder(speed.probe, in_round=True), Tally(speed.NOMINAL_S)
        while tally.busy_raw < seconds:  # whole rounds, so every run has the same mix
            run_round(w, rec, workloads, tally)
        lat, raw = tally.latencies, rec.latencies
        metrics = {
            "setup_s": (statistics.median(t * speed.NOMINAL_S / k for t, k in setups), "s"),
            "op_s.p50": (statistics.median(lat), "s"),
            "ops_per_s": (len(lat) / tally.busy, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result["raw"] = {
            "setup_s": statistics.median(t for t, _ in setups),
            "op_s.p50": statistics.median(raw),
            "ops_per_s": len(raw) / tally.busy_raw,
        }
        result["machine_speed"] = statistics.median(tally.factors)
        result["samples"] = {"ops": len(lat), "rounds": tally.rounds, "setups": len(setups)}
        result["setup_samples"] = setups
        t = tail(lat)
        result["op_s.tail"] = {"percentile": round(t[0], 2), "value": t[1]} if t else None
        tallies = [tally]
    else:
        # two identically set-up copies run the same rounds, alternating
        # plain and traced, so slow phases of the machine hit both alike
        copies = [w, workloads.WORKLOADS[name]()]  # plain, traced
        for c in copies:
            c.setup(seed, ref)
        recs = [workloads.Recorder(speed.probe), workloads.Recorder(speed.probe)]
        tallies = [Tally(speed.NOMINAL_S), Tally(speed.NOMINAL_S)]
        tr = tracer.Tracer(recs[1])
        for _ in range(w.trace_rounds):
            run_round(copies[0], recs[0], workloads, tallies[0])
            run_round(copies[1], recs[1], workloads, tallies[1], tr)
        plain, traced = (len(t.latencies) / t.busy for t in tallies)
        layer = tr.per_layer()
        layer["trace.ops_per_s.untraced"] = plain
        layer["trace.ops_per_s.traced"] = traced
        metrics = {n: (layer[n], unit) for n, unit, _ in tracer.METRICS}
        # signed: within the machine's noise it can come out either way
        result["trace_overhead_frac"] = 1.0 - traced / plain
        result["machine_speed"] = statistics.median(tallies[1].factors)
        result["samples"] = {"ops": len(recs[1].latencies), "rounds": w.trace_rounds}
        w = copies[1]

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    messages = [m for t in tallies for m in t.messages]
    if name == "peres-chain":
        result["unchecked_verdicts"] = w.unchecked
    result["fail_frac"] = failed / attempted
    result["env"] = environment(seed)
    for msg in messages[:20]:
        print(f"perfbench: {name}: FAILED {msg}", file=sys.stderr)
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tr.write(path, {**result, "metrics": {n: v for n, (v, _) in metrics.items()}})
        result["spans_file"] = str(path.relative_to(ROOT))
    result["summary"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    s = result["summary"]
    raw = result.get("raw", {})
    for metric, m in s["metrics"].items():
        note = f"  (raw {raw[metric]:.6g})" if metric in raw else ""
        print(f"{name:12s} {metric:42s} {m['value']:.6g} {m['unit']}{note}")
    if "op_s.tail" in result:  # untraced runs only
        t, n = result["op_s.tail"], result["samples"]["ops"]
        if t is None:
            print(f"{name:12s} {'op_s.tail':42s} omitted: {n} samples < {2 * TAIL_BEYOND}")
        else:
            print(f"{name:12s} {'op_s.tail':42s} {t['value']:.6g} s  (p{t['percentile']}, n={n})")
    print(f"{name:12s} {'fail_frac':42s} {result['fail_frac']:.6g}  ({s['failed']}/{s['attempted']})")
    extra = {k: v for k, v in result.items() if k not in ("summary", "workload")}
    print(f"{name:12s} info {json.dumps(extra, sort_keys=True)}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summaries = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        summaries[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": summaries}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do only the set-up and print its seconds since start (one setup_s sample)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        workloads, _ = import_library()
        import speed

        ref = workloads.load_reference()
        print(*timed_setup(workloads.WORKLOADS[args.workload](), args.seed, ref, speed))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
