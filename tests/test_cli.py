import json
import os
import time

import numpy as np
import pytest

from subincompat import cli, coexist, corpus, incompat, jsonio, sdp, steering

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(ROOT, "corpus")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    report = json.loads(out) if out.strip() else None
    return code, report, err


def test_robustness_builtin(capsys):
    code, rep, err = run(capsys, "robustness", "--builtin", "sigma-xz-sharp")
    assert code == 0
    assert rep["schema_version"] == 1
    assert rep["command"] == "robustness"
    assert rep["seed"] is None
    assert list(rep["inputs"]) == ["builtin:sigma-xz-sharp"]
    assert abs(rep["results"]["eta"] - 0.70710678) < 1e-6
    assert rep["results"]["verdict"] == "Incompatible"
    assert "0.7071" in err


def test_robustness_file_input_hashes(capsys):
    path = os.path.join(CORPUS_DIR, "sigma-xz-sharp.json")
    code, rep, _ = run(capsys, "robustness", "--input", path)
    assert code == 0
    assert rep["inputs"][path] == jsonio.sha256_file(path)
    assert abs(rep["results"]["eta"] - 0.70710678) < 1e-6


def test_jm_and_witness(capsys):
    code, rep, _ = run(capsys, "jm", "--builtin", "sigma-xz-noisy")
    assert code == 0 and rep["results"]["feasible"] is True
    code, rep, _ = run(capsys, "witness", "--builtin", "sigma-xz-sharp")
    assert code == 0
    assert abs(rep["results"]["value"] - 1.17157287) < 1e-6
    assert rep["results"]["incompatible"] is True


def test_coexistence_counterexample_report(capsys):
    code, rep, err = run(capsys, "coexistence", "--builtin", "qubit-counterexample")
    assert code == 0
    res = rep["results"]
    assert res["coexistent"]["coexistent"] is True
    assert res["jm"]["feasible"] is False
    assert abs(res["coarse"]["eta"] - 0.9830) < 1e-3
    assert res["lindep_residual"] < 1e-10
    assert "coexistent = True" in err


def test_coexistence_generic_pair(capsys):
    code, rep, _ = run(capsys, "coexistence", "--builtin", "sigma-xz-noisy")
    assert code == 0
    assert rep["results"]["coexistent"] is True
    assert rep["results"]["method"] == "enumeration"
    assert rep["results"]["jm"]["feasible"] is True


def test_truncate_coords(capsys):
    code, rep, _ = run(capsys, "truncate", "--builtin", "qutrit-pair", "--coords", "0,1")
    assert code == 0
    assert rep["results"]["projector"]["rank"] == 2
    assert rep["results"]["robustness"]["eta"] >= 1 - 1e-6
    assert rep["results"]["truncated"]["dim"] == 2


def test_truncate_coords_must_be_distinct(capsys):
    # a repeated index would span a smaller subspace than asked for
    code, rep, err = run(capsys, "truncate", "--builtin", "qutrit-pair", "--coords", "0,0")
    assert code == 2 and rep is None
    assert err == "error: --coords indices must be distinct, got '0,0'\n"
    code, rep, _ = run(capsys, "truncate", "--builtin", "qutrit-pair", "--coords", "1,0")
    assert code == 0 and rep["results"]["projector"]["rank"] == 2


def test_truncate_basis_file(tmp_path, capsys):
    basis = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    code, rep, _ = run(capsys, "truncate", "--builtin", "qutrit-pair", "--basis", str(path))
    assert code == 0
    assert rep["results"]["robustness"]["eta"] >= 1 - 1e-6
    assert str(path) in rep["inputs"]


@pytest.mark.parametrize("basis, message", [
    ([[[1, 0], [0, 0], [0, 0]], [[1, 0], [1, 0], [0, 0]]],
     "basis vectors are not orthonormal (deviation 1.000e+00 > 1.0e-10)"),
    ([[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]],
      [[1, 0], [0, 0], [0, 0]]],  # four vectors in C^3
     "basis vectors are not orthonormal (deviation 1.000e+00 > 1.0e-10)"),
    ([[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0]]], "basis vectors have unequal lengths [2, 3]"),
], ids=["non-orthonormal", "four-in-C3", "unequal-lengths"])
def test_truncate_bad_basis_file_names_the_basis_vectors(tmp_path, capsys, basis, message):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    code, rep, err = run(capsys, "truncate", "--builtin", "qutrit-pair", "--basis", str(path))
    assert code == 2 and rep is None
    assert err == f"error: {message}\n"  # one line, about the vectors the user gave


def test_classify_fully_compressible(capsys):
    code, rep, err = run(capsys, "classify", "--builtin", "fully-compressible",
                         "--n", "2", "--samples", "3", "--seed", "3")
    assert code == 0
    assert rep["seed"] == 3
    assert rep["results"]["verdict"] == "FullyCompressible"
    assert "FullyCompressible" in err


def test_classify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("INCOMPAT_SEED", "7")
    code, rep, _ = run(capsys, "classify", "--builtin", "fully-compressible",
                       "--n", "2", "--samples", "2")
    assert code == 0 and rep["seed"] == 7
    monkeypatch.setenv("INCOMPAT_SEED", "not-an-int")
    code, rep, _ = run(capsys, "classify", "--builtin", "fully-compressible",
                       "--n", "2", "--samples", "2")
    assert code == 2
    monkeypatch.setenv("INCOMPAT_SEED", "-2")
    code, rep, err = run(capsys, "classify", "--builtin", "qutrit-pair", "--n", "2")
    assert code == 2 and rep is None
    assert err == "error: INCOMPAT_SEED must be at least 0, got -2\n"


def test_steering_lhs_and_pretty_good(capsys):
    code, rep, err = run(capsys, "steering", "lhs", "--builtin", "peres-steerable")
    assert code == 0
    assert rep["results"]["unsteerable"] is False
    assert rep["results"]["slack"] < -1e-5
    assert "steerable" in err
    code, rep, _ = run(capsys, "steering", "pretty-good", "--builtin", "peres-steerable")
    assert code == 0
    assert abs(rep["results"]["robustness"]["eta"] - 0.98585814) < 1e-6
    assert rep["results"]["robustness"]["verdict"] == "Incompatible"


def test_steering_choi(capsys):
    code, rep, _ = run(capsys, "steering", "choi", "--builtin", "peres-steerable-state",
                       "--alice-builtin", "peres-mubs")
    assert code == 0
    out = jsonio.assemblage_from_json(rep["results"]["assemblage"])
    assert out.dim == 3 and out.n_settings == 2


def test_peres_construct_and_errors(capsys):
    code, rep, _ = run(capsys, "peres", "construct", "--m1", "0.18", "--m2", "0.46")
    assert code == 0
    assert rep["results"]["pt_residual"] < 1e-12
    assert abs(rep["results"]["params"]["l1"] - 0.374541) < 1e-6
    code, _, err = run(capsys, "peres", "construct", "--m1", "0.9", "--m2", "0.9")
    assert code == 2 and "m3" in err
    for m1, m2 in (("nan", "0.1"), ("0.1", "inf")):  # one line naming both, no warning
        code, rep, err = run(capsys, "peres", "construct", "--m1", m1, "--m2", m2)
        assert code == 2 and rep is None
        assert err == f"error: m1 and m2 must be finite, got ({float(m1)}, {float(m2)})\n"


def test_peres_scan_explicit_small(capsys):
    # the full-step scan is exercised by the acceptance suite; here use a
    # coarse grid so the CLI path stays fast
    code, rep, _ = run(capsys, "peres", "scan", "--step", "0.3")
    assert code == 0
    assert rep["results"]["n_points"] == 16
    assert rep["results"]["n_admissible"] >= 1


def test_peres_scan_refuses_a_grid_beyond_its_guard_before_building_it(capsys, monkeypatch):
    # 1e9 points per axis would take 8 GB for np.arange alone; the count is
    # refused first, so the command exits 2 at once
    start = time.perf_counter()
    code, rep, err = run(capsys, "peres", "scan", "--step", "1e-9")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and rep is None
    assert err == (f"error: grid point count {10**18} exceeds guard {steering.PERES_SCAN_GUARD}; "
                   "the count grows as 1/step^2\n")
    # the count is np.arange's: 16 points at the guard run, a finer step's 25 do not
    monkeypatch.setattr(steering, "PERES_SCAN_GUARD", 16)
    code, rep, err = run(capsys, "peres", "scan", "--step", "0.25")
    assert code == 0 and rep["results"]["n_points"] == 16
    code, rep, err = run(capsys, "peres", "scan", "--step", "0.2499")
    assert code == 2 and rep is None and err.startswith("error: grid point count 25 exceeds guard 16;")


def test_integrals(capsys):
    code, rep, _ = run(capsys, "integrals", "--d", "3", "--n", "1",
                       "--samples", "2000", "--seed", "0")
    assert code == 0
    assert rep["seed"] == 0
    assert rep["results"]["all_within_3_sigma"] is True


def test_mub_check(capsys):
    code, rep, _ = run(capsys, "mub-check")
    assert code == 0
    assert rep["results"]["same_povm"] is True


def test_seesaw_tiny(capsys):
    code, rep, _ = run(capsys, "seesaw", "--dim", "2", "--outcomes", "2", "2",
                       "--seeds", "1")
    assert code == 0
    assert rep["results"]["hits"] == []


def test_seesaw_beyond_the_label_guard_exits_2(capsys):
    code, rep, err = run(capsys, "seesaw", "--dim", "2", "--outcomes", "5", "5")
    assert code == 2 and rep is None
    assert err.startswith("error: joint outcome count 1073741824 exceeds guard 4096")
    assert err.count("\n") == 1  # one line, no traceback


def test_seesaw_report_reuses_the_hit_witnesses(capsys, monkeypatch):
    # the report emits each hit's witness as the seesaw computed it
    calls = []
    real = incompat.witness

    def witness(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(incompat, "witness", witness)
    hits = coexist.seesaw(3, 2, 3, 12)
    library = len(calls)
    calls.clear()
    code, rep, _ = run(capsys, "seesaw", "--dim", "3", "--outcomes", "2", "3", "--seeds", "12")
    assert code == 0
    assert [h["seed"] for h in rep["results"]["hits"]] == [h.seed for h in hits] == [10]
    assert len(calls) == library


def test_corpus_list_and_write(tmp_path, capsys):
    code, rep, err = run(capsys, "corpus", "--list")
    assert code == 0
    assert set(rep["results"]["builtins"]) == set(corpus.builtin_keys())
    out = tmp_path / "c"
    code, rep, _ = run(capsys, "corpus", "--out", str(out))
    assert code == 0
    assert len(list(out.glob("*.json"))) == len(corpus.builtin_keys())


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert run(capsys, "robustness", "--builtin", "nope")[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"broken')
    code, _, err = run(capsys, "robustness", "--input", str(bad))
    assert code == 2 and "line 1" in err  # malformed JSON reports a location
    assert run(capsys, "robustness", "--input", str(tmp_path / "missing.json"))[0] == 2
    assert run(capsys, "witness", "--builtin", "peres-steerable")[0] == 2  # wrong kind
    assert run(capsys, "robustness")[0] == 2  # neither input nor builtin
    path = os.path.join(CORPUS_DIR, "sigma-xz-sharp.json")
    assert run(capsys, "robustness", "--builtin", "sigma-xz-sharp",
               "--input", path)[0] == 2  # both
    with monkeypatch.context() as m:  # a solver pushed into failure exits 3
        m.setattr(sdp, "MAX_ITERS", 1)
        assert run(capsys, "robustness", "--builtin", "sigma-xz-sharp")[0] == 3
    empty = tmp_path / "empty.json"
    empty.write_text('{"dim": 2, "measurements": []}')
    code, _, err = run(capsys, "robustness", "--input", str(empty))
    assert code == 2
    assert err == "error: an assemblage needs at least one setting, got none\n"
    no_settings = tmp_path / "no_settings.json"
    no_settings.write_text('{"dB": 2, "sigmas": [], '
                           '"reduced": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
    code, _, err = run(capsys, "steering", "lhs", "--input", str(no_settings))
    assert code == 2
    assert err == "error: an assemblage needs at least one setting, got none\n"


def test_reduced_state_of_another_dimension_exits_2(tmp_path, capsys):
    # a 2 x 2 sigma with a 3 x 3 reduced state: the one check names both
    # dimensions (it used to fail inside NumPy broadcasting)
    half = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    third = [[[1 / 3, 0] if i == j else [0, 0] for j in range(3)] for i in range(3)]
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps({"dB": 2, "sigmas": [[half, half]], "reduced": third}))
    code, rep, err = run(capsys, "steering", "lhs", "--input", str(path))
    assert code == 2 and rep is None
    assert err == "error: setting 0: total has dimension 3 != 2\n"


COUNT_FLAG_CASES = [
    (("classify", "--n", "2", "--jobs", "0"), "--jobs must be at least 1, got 0"),
    (("classify", "--n", "2", "--samples", "-1"), "--samples must be at least 0, got -1"),
    (("classify", "--n", "2", "--samples", "-3"), "--samples must be at least 0, got -3"),
    (("classify", "--n", "2", "--jobs", "-2"), "--jobs must be at least 1, got -2"),
    (("seesaw", "--dim", "3", "--outcomes", "2", "3", "--seeds", "-1"),
     "--seeds must be at least 0, got -1"),
    (("seesaw", "--dim", "0", "--outcomes", "2", "3"), "--dim must be at least 1, got 0"),
    (("seesaw", "--dim", "3", "--outcomes", "0", "3"), "--outcomes must be at least 1, got 0"),
    (("seesaw", "--dim", "3", "--outcomes", "2", "-1"), "--outcomes must be at least 1, got -1"),
    (("classify", "--n", "2", "--seed", "-1"), "--seed must be at least 0, got -1"),
    (("integrals", "--seed", "-5", "--samples", "1000"), "--seed must be at least 0, got -5"),
    (("integrals", "--samples", "500"), "--samples must be at least 1000, got 500"),
]


# each case is named by its flag and value (e.g. "jobs=0"), not by its position
@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=f"{message.split()[0][2:]}={message.split()[-1]}")
    for argv, message in COUNT_FLAG_CASES
])
def test_count_flags_out_of_range_exit_2(capsys, argv, message):
    builtin = {"robustness": ("--builtin", "sigma-xz-sharp"),
               "classify": ("--builtin", "fully-compressible")}.get(argv[0], ())
    code, rep, err = run(capsys, *argv, *builtin)
    assert code == 2 and rep is None
    assert err == f"error: {message}\n"  # one line naming the flag, no traceback


SOLVING_COMMANDS = (
    ("robustness", "--builtin", "qutrit-pair"),
    ("jm", "--builtin", "sigma-xz-sharp"),
    ("witness", "--builtin", "sigma-xz-sharp"),
    ("truncate", "--builtin", "qutrit-pair", "--coords", "0,1"),
    ("coexistence", "--builtin", "sigma-xz-sharp"),
    ("coexistence", "--builtin", "qubit-counterexample"),
    ("classify", "--builtin", "qutrit-pair", "--n", "2", "--jobs", "1"),
    ("steering", "lhs", "--builtin", "peres-steerable"),
    ("steering", "pretty-good", "--builtin", "peres-steerable"),
    ("peres", "scan", "--step", "0.3"),
    ("mub-check",),
)


def test_a_capped_solve_exits_3_in_every_command_that_solves_sdps(capsys, monkeypatch, caplog):
    # a solve that stops at the iteration cap decides nothing: every command
    # reports one solver-failure line; seesaw skips the seed and says so
    monkeypatch.setattr(sdp, "MAX_ITERS", 3)
    for argv in SOLVING_COMMANDS:
        code, rep, err = run(capsys, *argv)
        assert code == 3 and rep is None, argv
        assert err.startswith("solver failure: ") and err.count("\n") == 1, argv
    with caplog.at_level("WARNING", logger="subincompat.coexist"):
        code, rep, _ = run(capsys, "seesaw", "--dim", "2", "--outcomes", "2", "2", "--seeds", "2")
    assert code == 0 and rep["results"]["hits"] == []
    skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert [m.split(":")[0] for m in skipped] == ["seesaw seed 0 skipped", "seesaw seed 1 skipped"]


def test_no_command_takes_an_iteration_cap_flag(capsys):
    for argv in (*SOLVING_COMMANDS, ("seesaw", "--dim", "2", "--outcomes", "2", "2"),
                 ("integrals",), ("corpus", "--list"),
                 ("peres", "construct", "--m1", "0.2", "--m2", "0.4"),
                 ("steering", "choi", "--builtin", "peres-steerable-state")):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--sdp-iters", "3"])
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:  # the seesaw's step cap is a constant too
        cli.main(["seesaw", "--dim", "2", "--outcomes", "2", "2", "--max-iters", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_reports_byte_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = cli.main(["robustness", "--builtin", "sigma-xz-sharp",
                         "--output", str(f)])
        assert code == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_wrong_kind_for_alice(capsys):
    code, _, err = run(capsys, "steering", "choi", "--builtin", "peres-steerable-state",
                       "--alice-builtin", "peres-steerable-state")
    assert code == 2


def test_choi_without_alice_names_the_alice_flags(capsys):
    code, rep, err = run(capsys, "steering", "choi", "--builtin", "peres-steerable-state")
    assert code == 2 and rep is None
    assert err == "error: exactly one of --alice-input and --alice-builtin is required\n"


@pytest.mark.parametrize("argv, data, field", [
    (("robustness",), {"dim": 2, "measurements": [5]}, "measurement 0"),
    (("robustness",), {"dim": None, "measurements": []}, "'dim'"),
    (("robustness",), {"dim": 2, "measurements": [{"elements": 3}]}, "'elements'"),
    (("steering", "choi", "--alice-builtin", "peres-mubs"),
     {"dA": 3, "dB": [1], "matrix": [[[1.0, 0.0]]]}, "'dB'"),
])
def test_json_fields_of_the_wrong_type_exit_2(tmp_path, capsys, argv, data, field):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, rep, err = run(capsys, *argv, "--input", str(path))
    assert code == 2 and rep is None
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
    assert field in err
