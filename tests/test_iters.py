import importlib.util
import os
import re
from dataclasses import replace

from subincompat import sdp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("iters", os.path.join(ROOT, "tools", "iters.py"))
iters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(iters)


def test_iters_histogram_sums_to_the_totals_and_reruns_print_the_same(capsys):
    assert iters.main([ROOT, "--workload", "corpus"]) == 0
    out = capsys.readouterr().out
    assert iters.main([ROOT, "--workload", "corpus"]) == 0
    assert capsys.readouterr().out == out
    head, status, hist, *shapes, total = out.splitlines()
    solves, its = map(int, re.match(r"corpus: (\d+) solves, (\d+) iterations; round", head).groups())
    assert total == f"total: {solves} solves, {its} iterations"
    assert head.endswith(", 0 of 8 ops failed")
    assert status == f"  status Optimal:{solves}, 0 lstsq fallbacks"
    pairs = [tuple(map(int, kv.split(":"))) for kv in hist.split()[1:]]
    assert sum(n for _, n in pairs) == solves and sum(k * n for k, n in pairs) == its
    per = [tuple(map(int, re.search(r": (\d+) solves, (\d+) iterations$", s).groups())) for s in shapes]
    assert sum(n for n, _ in per) == solves and sum(t for _, t in per) == its


def test_iters_exits_1_on_a_numerical_failure(monkeypatch, capsys):
    # the round's last solve ends NumericalFailure: it is counted by status
    # and main returns 1
    assert iters.main([ROOT, "--workload", "corpus"]) == 0
    solves = int(re.match(r"corpus: (\d+) solves", capsys.readouterr().out).group(1))
    orig, calls = sdp.solve, []

    def solve(*args, **kwargs):
        calls.append(1)
        sol = orig(*args, **kwargs)
        return replace(sol, status=sdp.STATUS_NUMERICAL_FAILURE) if len(calls) == solves else sol

    monkeypatch.setattr(sdp, "solve", solve)
    assert iters.main([ROOT, "--workload", "corpus"]) == 1
    assert f"  status NumericalFailure:1 Optimal:{solves - 1}, 0 lstsq fallbacks" in capsys.readouterr().out
