import glob
import json
import os

import numpy as np
import pytest

from subincompat import corpus, jsonio

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_DIR = os.path.join(ROOT, "docs", "schema")


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
    assert np.array_equal(sa.total, back.total)
    for r1, r2 in zip(sa.settings(), back.settings()):
        assert all(np.array_equal(x, y) for x, y in zip(r1, r2))


def test_corpus_files_exist_and_validate_on_load():
    files = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.json")))
    keys = {os.path.splitext(os.path.basename(f))[0] for f in files}
    assert keys == set(corpus.builtin_keys())
    for path in files:
        data = jsonio.load_json(path)
        kind = data["kind"]
        if kind in jsonio.READERS:
            jsonio.READERS[kind](data)  # the constructors enforce invariants
        else:
            assert kind == "parent" and kind in jsonio.WRITERS  # written, never read
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


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, f"{name}.schema.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def test_schema_files_published_and_current():
    # one schema file per kind the CLI reads, plus the report's
    names = sorted(os.listdir(SCHEMA_DIR))
    assert names == sorted([f"{k}.schema.json" for k in jsonio.READERS] + ["report.schema.json"])
    for name in names:
        assert _schema(name.split(".")[0])["$id"] == name
    report = _schema("report")
    skeleton = jsonio.report_skeleton("robustness", 0, {"x.json": "ab" * 32})
    assert sorted(report["required"]) == sorted([*skeleton, "results"])
    assert report["properties"]["schema_version"]["const"] == jsonio.SCHEMA_VERSION


@pytest.mark.parametrize("kind", sorted(jsonio.READERS))
def test_schema_matches_the_writer_and_the_reader(kind):
    schema = _schema(kind)
    keys = [k for k in corpus.builtin_keys() if corpus.kind_of(k) == kind]
    assert keys
    for key in keys:
        data = jsonio.WRITERS[kind](corpus.build(key))
        assert set(schema["required"]) <= set(data), key
        jsonio.READERS[kind](data)
        for field in schema["required"]:
            with pytest.raises(ValueError):
                jsonio.READERS[kind]({k: v for k, v in data.items() if k != field})
        dims = [f for f, spec in schema["properties"].items() if spec.get("minimum") == 1]
        assert dims
        for field in dims:
            with pytest.raises(ValueError, match=field):
                jsonio.READERS[kind]({**data, field: 0})


_EYE2 = np.eye(2)


# the same faults in setting 1 of either kind; setting 0 is valid
@pytest.mark.parametrize("kind, settings, message", [
    ("assemblage", [[_EYE2 / 2, _EYE2 / 2], [_EYE2 / 2, np.eye(3) / 2]],
     "setting 1: element 1 has dimension 3 != 2"),
    ("assemblage", [[_EYE2 / 2, _EYE2 / 2], [np.diag([0.6, -0.1]), np.diag([-0.1, 1.1])]],
     "setting 1: element 0 is not PSD (min eig -1.00e-01)"),
    ("assemblage", [[_EYE2 / 2, _EYE2 / 2], [_EYE2, _EYE2]],
     "setting 1: elements sum to identity only within 1.00e+00"),
    ("state_assemblage", [[_EYE2 / 4, _EYE2 / 4], [_EYE2 / 4, np.eye(3) / 4]],
     "setting 1: element 1 has dimension 3 != 2"),
    ("state_assemblage", [[_EYE2 / 4, _EYE2 / 4], [np.diag([0.6, -0.1]), np.diag([-0.1, 0.6])]],
     "setting 1: element 0 is not PSD (min eig -1.00e-01)"),
    ("state_assemblage", [[_EYE2 / 4, _EYE2 / 4], [_EYE2 / 4, _EYE2 / 2]],
     "setting 1: elements sum to the total only within 2.50e-01"),
])
def test_readers_name_the_rejected_setting(kind, settings, message):
    rows = [[jsonio.matrix_to_json(m) for m in row] for row in settings]
    if kind == "assemblage":
        data = {"dim": 2, "measurements": [{"elements": row} for row in rows]}
    else:
        data = {"dB": 2, "sigmas": rows, "reduced": jsonio.matrix_to_json(_EYE2 / 2)}
    with pytest.raises(ValueError) as exc:
        jsonio.READERS[kind](data)
    assert str(exc.value) == message
