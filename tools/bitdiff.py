"""Compare two outputs of bitwise.py: per key kind (the first field of a
line), how many lines there are and how many differ, and, where the
differing lines end in a float.hex value, the largest |difference| of that
value.  Lines of one kind are paired in order.

usage: python bitdiff.py A.txt B.txt

Exits 0 when the files agree line for line and 1 when they do not.
"""
import re
import sys

HEX = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf)|nan")


def by_kind(path):
    kinds = {}
    with open(path) as f:
        for line in f:
            fields = line.split()
            if fields:
                kinds.setdefault(fields[0], []).append(fields)
    return kinds


def main(a_path, b_path):
    a, b = by_kind(a_path), by_kind(b_path)
    print(f"{'kind':<18}{'lines':>7}{'differ':>8}  max|delta|")
    same = True
    for kind in list(a) + [k for k in b if k not in a]:
        la, lb = a.get(kind, []), b.get(kind, [])
        differ = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
        deltas = [abs(float.fromhex(x[-1]) - float.fromhex(y[-1]))
                  for x, y in zip(la, lb)
                  if x != y and HEX.fullmatch(x[-1]) and HEX.fullmatch(y[-1])]
        lines = str(len(la)) if len(la) == len(lb) else f"{len(la)}/{len(lb)}"
        delta = f"{max(deltas):.3g}" if deltas else "-"
        print(f"{kind:<18}{lines:>7}{differ:>8}  {delta}")
        same = same and differ == 0
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    sys.exit(main(*sys.argv[1:]))
