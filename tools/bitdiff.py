"""Compare two outputs of bitwise.py: per key kind (the first field of a
line), how many lines there are, how many differ, how many of those differ
in a field that is neither a float.hex value nor a hash (the verdict and
hit flips: booleans, methods, counts, labels; a line without a partner
counts too), and the largest |difference| over every float.hex field of
the paired lines.  Lines of one kind are paired in order.

usage: python bitdiff.py A.txt B.txt

Exits 0 when the files agree line for line and 1 when they do not.
"""
import re
import sys

HEX = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf)|nan")
HASH = re.compile(r"[0-9a-f]{16}")  # bitwise.arr: a digest of an array's bytes


def by_kind(path):
    kinds = {}
    with open(path) as f:
        for line in f:
            fields = line.split()
            if fields:
                kinds.setdefault(fields[0], []).append(fields)
    return kinds


def compare(x, y):
    """The |differences| of the float.hex fields of two paired lines, and
    whether any other field that is not a hash differs."""
    deltas, flip = [], len(x) != len(y)
    for u, v in zip(x, y):
        if HEX.fullmatch(u) and HEX.fullmatch(v):
            deltas.append(0.0 if u == v else abs(float.fromhex(u) - float.fromhex(v)))
        elif u != v and not (HASH.fullmatch(u) and HASH.fullmatch(v)):
            flip = True
    return deltas, flip


def main(a_path, b_path):
    a, b = by_kind(a_path), by_kind(b_path)
    print(f"{'kind':<18}{'lines':>7}{'differ':>8}{'flips':>7}  max|delta|")
    same = True
    for kind in list(a) + [k for k in b if k not in a]:
        la, lb = a.get(kind, []), b.get(kind, [])
        unpaired = abs(len(la) - len(lb))
        differ = sum(x != y for x, y in zip(la, lb)) + unpaired
        deltas, flips = [], unpaired
        for x, y in zip(la, lb):
            d, flip = compare(x, y)
            deltas += d
            flips += flip
        lines = str(len(la)) if len(la) == len(lb) else f"{len(la)}/{len(lb)}"
        delta = f"{max(deltas):.3g}" if deltas else "-"
        print(f"{kind:<18}{lines:>7}{differ:>8}{flips:>7}  {delta}")
        same = same and differ == 0
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    sys.exit(main(*sys.argv[1:]))
