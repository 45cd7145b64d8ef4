"""Problem file parsing, serialization, and the shipped schemas."""

import json
import re

import numpy as np
import pytest

from avlprange import (
    InputError,
    parse_problem,
    problem_from_dict,
    serialize_problem,
    write_problem,
)


def test_fixture_shapes(example1, example2, example3, example4):
    assert (example1.m, example1.n) == (4, 2)
    assert (example2.m, example2.n) == (7, 2)
    assert (example3.m, example3.n) == (7, 2)
    assert (example4.m, example4.n) == (4, 2)


def test_fixture_spot_values(example1, example4):
    assert example1.A.inf[3, 0] == -1.0
    assert example1.A.sup[3, 0] == 1.0
    assert example1.D.sup[2, 0] == 1.0
    assert np.allclose(example4.A.rad[0], [0.05, 0.05])
    assert np.allclose(example4.b.mid, [12.0, 18.0, 36.0, 26.0])
    assert np.all(example4.b.rad == 0.0)


def test_midrad_and_endpoint_forms_agree():
    midrad = {
        "A": {"mid": [[1.0]], "rad": [[0.5]]},
        "b": {"mid": [2.0], "rad": [0.0]},
        "c": {"mid": [1.0], "rad": [0.25]},
        "D": {"mid": [[0.1]], "rad": [[0.1]]},
    }
    endpoint = {
        "A": {"inf": [[0.5]], "sup": [[1.5]]},
        "b": {"inf": [2.0], "sup": [2.0]},
        "c": {"inf": [0.75], "sup": [1.25]},
        "D": {"inf": [[0.0]], "sup": [[0.2]]},
    }
    p1 = problem_from_dict(midrad)
    p2 = problem_from_dict(endpoint)
    assert np.array_equal(p1.A.inf, p2.A.inf)
    assert np.array_equal(p1.c.sup, p2.c.sup)
    assert np.array_equal(p1.D.sup, p2.D.sup)


def test_missing_key_is_rejected():
    with pytest.raises(InputError, match='"D"'):
        problem_from_dict(
            {
                "A": {"inf": [[1.0]], "sup": [[1.0]]},
                "b": {"inf": [1.0], "sup": [1.0]},
                "c": {"inf": [1.0], "sup": [1.0]},
            }
        )


def test_mixed_forms_are_rejected():
    with pytest.raises(InputError, match="exactly one"):
        problem_from_dict(
            {
                "A": {"inf": [[1.0]], "sup": [[1.0]], "mid": [[1.0]], "rad": [[0.0]]},
                "b": {"inf": [1.0], "sup": [1.0]},
                "c": {"inf": [1.0], "sup": [1.0]},
                "D": {"inf": [[0.0]], "sup": [[0.0]]},
            }
        )


def test_crossed_bounds_name_the_field():
    with pytest.raises(InputError, match='"b"'):
        problem_from_dict(
            {
                "A": {"inf": [[1.0]], "sup": [[1.0]]},
                "b": {"inf": [2.0], "sup": [1.0]},
                "c": {"inf": [1.0], "sup": [1.0]},
                "D": {"inf": [[0.0]], "sup": [[0.0]]},
            }
        )


def test_negative_relief_lower_bound_rejected():
    with pytest.raises(InputError):
        problem_from_dict(
            {
                "A": {"inf": [[1.0]], "sup": [[1.0]]},
                "b": {"inf": [1.0], "sup": [1.0]},
                "c": {"inf": [1.0], "sup": [1.0]},
                "D": {"inf": [[-0.1]], "sup": [[0.2]]},
            }
        )


def test_non_numeric_entry_rejected():
    with pytest.raises(InputError, match='"A"'):
        problem_from_dict(
            {
                "A": {"inf": [["x"]], "sup": [[1.0]]},
                "b": {"inf": [1.0], "sup": [1.0]},
                "c": {"inf": [1.0], "sup": [1.0]},
                "D": {"inf": [[0.0]], "sup": [[0.0]]},
            }
        )


@pytest.mark.parametrize("key", ["A", "b", "c", "D"])
@pytest.mark.parametrize("leaf", ["1", True, None], ids=["string", "true", "null"])
def test_non_number_leaf_rejected(key, leaf):
    # with a number in place of the leaf every document here is valid
    document = {
        "A": {"inf": [[1.0]], "sup": [[1.0]]},
        "b": {"inf": [1.0], "sup": [1.0]},
        "c": {"inf": [1.0], "sup": [1.0]},
        "D": {"inf": [[0.0]], "sup": [[1.0]]},
    }
    document[key]["inf"] = [[leaf]] if key in ("A", "D") else [leaf]
    message = f'in field "{key}": "inf" holds {json.dumps(leaf)}, which is not a number'
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        problem_from_dict(document)


def test_boolean_among_integers_rejected():
    # numpy reads [1, true] as an integer array
    with pytest.raises(InputError, match="holds true"):
        problem_from_dict(
            {
                "A": {"mid": [[1, 1], [0, 1]], "rad": [[0, 0], [0, 0]]},
                "b": {"mid": [1, 1], "rad": [0, 0]},
                "c": {"mid": [1, 1], "rad": [0, True]},
                "D": {"mid": [[0, 0], [0, 0]], "rad": [[0, 0], [0, 0]]},
            }
        )


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError, match="not valid JSON"):
        parse_problem(path)


def test_roundtrip_is_lossless(example2, tmp_path):
    path = tmp_path / "copy.json"
    write_problem(example2, path, name="copy", description="roundtrip check")
    again = parse_problem(path)
    for key in ("A", "b", "c", "D"):
        assert np.array_equal(getattr(example2, key).inf, getattr(again, key).inf)
        assert np.array_equal(getattr(example2, key).sup, getattr(again, key).sup)
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["name"] == "copy"


def test_fixtures_validate_against_problem_schema(fixtures_dir, docs_dir):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((docs_dir / "problem_schema.json").read_text(encoding="utf-8"))
    for name in ("example1", "example2", "example3", "example4"):
        document = json.loads((fixtures_dir / f"{name}.json").read_text(encoding="utf-8"))
        jsonschema.validate(document, schema)


def test_serialized_output_validates_against_problem_schema(example4, docs_dir):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((docs_dir / "problem_schema.json").read_text(encoding="utf-8"))
    jsonschema.validate(serialize_problem(example4, name="again"), schema)
