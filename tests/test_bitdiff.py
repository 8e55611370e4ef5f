import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bitdiff", os.path.join(ROOT, "tools", "bitdiff.py"))
bitdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitdiff)


def _table(capsys, tmp_path, a, b):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text("".join(line + "\n" for line in a))
    pb.write_text("".join(line + "\n" for line in b))
    code = bitdiff.main(str(pa), str(pb))
    rows = capsys.readouterr().out.splitlines()[1:]
    return code, {r.split()[0]: r.split()[1:] for r in rows}


def test_bitdiff_compares_every_float_field_and_counts_flips(capsys, tmp_path):
    one, two = (1.0).hex(), (1.0 + 2**-40).hex()
    a = [f"eta k {one}", f"eta-parent-hash k {'0123456789abcdef'}",
         f"seesaw 3 7 {one} {one} {one} 0123456789abcdef",
         f"seesaw 5 7 {one} {one} {one} 0123456789abcdef",
         f"jm k True {one}", "lhs-points 2"]
    b = [f"eta k {one}", f"eta-parent-hash k {'fedcba9876543210'}",
         f"seesaw 3 7 {one} {two} {one} fedcba9876543210",  # a float in the middle
         f"seesaw 5 8 {one} {one} {one} 0123456789abcdef",  # a count: a flip
         f"jm k False {one}", "lhs-points 2", "cand extra True"]
    code, t = _table(capsys, tmp_path, a, b)
    assert code == 1
    assert t["eta"] == ["1", "0", "0", "0"]
    assert t["eta-parent-hash"] == ["1", "1", "0", "-"]  # a hash alone is no flip
    assert t["seesaw"][:3] == ["2", "2", "1"] and t["seesaw"][3] == f"{2**-40:.3g}"
    assert t["jm"] == ["1", "1", "1", "0"]
    assert t["lhs-points"] == ["1", "0", "0", "-"]
    assert t["cand"] == ["0/1", "1", "1", "-"]
    code, t = _table(capsys, tmp_path, a, a)
    assert code == 0 and all(row[1:3] == ["0", "0"] for row in t.values())
