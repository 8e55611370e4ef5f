import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("iters", os.path.join(ROOT, "tools", "iters.py"))
iters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(iters)


def test_iters_histogram_sums_to_the_totals_and_reruns_print_the_same(capsys):
    assert iters.main([ROOT, "--workload", "corpus"]) == 0
    out = capsys.readouterr().out
    assert iters.main([ROOT, "--workload", "corpus"]) == 0
    assert capsys.readouterr().out == out
    head, hist, *shapes, total = out.splitlines()
    solves, its = map(int, re.match(r"corpus: (\d+) solves, (\d+) iterations; round", head).groups())
    assert total == f"total: {solves} solves, {its} iterations"
    assert head.endswith(", 0 of 8 ops failed")
    pairs = [tuple(map(int, kv.split(":"))) for kv in hist.split()[1:]]
    assert sum(n for _, n in pairs) == solves and sum(k * n for k, n in pairs) == its
    per = [tuple(map(int, re.search(r": (\d+) solves, (\d+) iterations$", s).groups())) for s in shapes]
    assert sum(n for n, _ in per) == solves and sum(t for _, t in per) == its
