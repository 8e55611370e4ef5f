import glob
import json
import os

import numpy as np
import pytest

from subincompat import corpus, jsonio

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_matrix_round_trip_complex():
    rng = np.random.default_rng(50)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    j = jsonio.matrix_to_json(m)
    back = jsonio.matrix_from_json(j)
    assert np.array_equal(m, back)
    # entries are [re, im] pairs
    assert j[0][0] == [m[0, 0].real, m[0, 0].imag]


def test_matrix_from_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        jsonio.matrix_from_json([[[1.0]]])  # entry is not an [re, im] pair
    with pytest.raises(ValueError):
        jsonio.matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])  # ragged


def test_assemblage_round_trip():
    a = corpus.build("qutrit-pair")
    back = jsonio.assemblage_from_json(jsonio.assemblage_to_json(a))
    assert back.dim == a.dim and back.n_settings == a.n_settings
    for m1, m2 in zip(a.measurements, back.measurements):
        assert all(np.array_equal(x, y) for x, y in zip(m1.elements, m2.elements))


def test_state_and_state_assemblage_round_trip():
    s = corpus.build("peres-steerable-state")
    back = jsonio.state_from_json(jsonio.state_to_json(s))
    assert np.array_equal(s.matrix, back.matrix)
    sa = corpus.build("peres-steerable")
    back = jsonio.state_assemblage_from_json(jsonio.state_assemblage_to_json(sa))
    assert np.array_equal(sa.reduced, back.reduced)
    for r1, r2 in zip(sa.sigmas, back.sigmas):
        assert all(np.array_equal(x, y) for x, y in zip(r1, r2))


def test_corpus_files_exist_and_validate_on_load():
    files = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.json")))
    keys = {os.path.splitext(os.path.basename(f))[0] for f in files}
    assert keys == set(corpus.builtin_keys())
    for path in files:
        data = jsonio.load_json(path)
        kind = data["kind"]
        if kind == "assemblage":
            jsonio.assemblage_from_json(data)  # Povm's constructor enforces invariants
        elif kind == "state":
            jsonio.state_from_json(data)  # constructor enforces invariants
        elif kind == "state_assemblage":
            jsonio.state_assemblage_from_json(data)
        else:
            assert kind == "parent"
        assert "description" in data


def test_corpus_files_match_builtins():
    # committed files are exactly the builtin constructions
    for key in corpus.builtin_keys():
        path = os.path.join(ROOT, "corpus", f"{key}.json")
        on_disk = jsonio.load_json(path)
        assert on_disk == corpus.to_json(key)


def test_steerable_corpus_entry_carries_certificate():
    data = jsonio.load_json(os.path.join(ROOT, "corpus", "peres-steerable-state.json"))
    cert = data["scan_certificate"]
    assert cert["m1"] == 0.18 and cert["m2"] == 0.46
    assert cert["grid_step"] == 0.02


def test_report_skeleton_fields():
    rep = jsonio.report_skeleton("robustness", 7, {"x.json": "ab" * 32})
    assert rep["schema_version"] == jsonio.SCHEMA_VERSION
    assert rep["command"] == "robustness"
    assert rep["seed"] == 7
    assert rep["inputs"] == {"x.json": "ab" * 32}
    assert isinstance(rep["version"], str) and rep["version"]


def test_sha256_file_stable(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"subspace")
    h1 = jsonio.sha256_file(str(p))
    assert h1 == jsonio.sha256_file(str(p))
    assert len(h1) == 64


def test_schema_files_published_and_current():
    for name, schema in jsonio.SCHEMAS.items():
        path = os.path.join(ROOT, "docs", "schema", name)
        assert os.path.exists(path), name
        with open(path, "r", encoding="utf-8") as f:
            assert json.load(f) == schema
    report = jsonio.SCHEMAS["report.schema.json"]
    for field in ("schema_version", "version", "command", "seed", "inputs"):
        assert field in report["properties"]
