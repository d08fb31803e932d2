import json

import numpy as np
import pytest

from hmpident.errors import NonFiniteError
from hmpident.jsonio import dumps, write_json


def test_seventeen_digit_floats():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(0.5) == "0.5"
    assert dumps([1.0 / 3.0]) == "[0.33333333333333331]"


def test_scalars_and_containers():
    text = dumps({"a": 1, "b": [True, False, None, "s"], "c": {}})
    assert json.loads(text) == {"a": 1, "b": [True, False, None, "s"], "c": {}}
    assert "true" in text and "null" in text


def test_numpy_scalars():
    assert dumps(np.float64(0.25)) == "0.25"
    assert dumps(np.int64(7)) == "7"
    assert dumps(np.bool_(True)) == "true"


def test_floats_round_trip_exactly():
    rng = np.random.default_rng(0)
    values = list(rng.uniform(-1, 1, 50)) + [1e-300, 1e300, 5e-324]
    for x in values:
        assert json.loads(dumps(float(x))) == float(x)


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps(object())


def test_write_json_file(tmp_path):
    path = tmp_path / "out.json"
    write_json({"x": [0.1, 0.2]}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"x": [0.1, 0.2]}


def test_rejects_non_finite_floats():
    for value in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
        with pytest.raises(NonFiniteError):
            dumps({"x": [value]})


def test_float_array_is_one_seventeen_digit_list():
    assert dumps(np.array([0.1, 1.0 / 3.0])) == "[0.10000000000000001, 0.33333333333333331]"
    assert dumps({"t": np.array([0.5, 0.25])}) == dumps({"t": [0.5, 0.25]})
    assert dumps(np.array([], dtype=float)) == "[]"


def test_float_array_round_trips_exactly():
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.uniform(-1, 1, 50), [1e-300, 1e300, 5e-324]])
    back = np.array(json.loads(dumps(values)))
    assert back.tobytes() == values.tobytes()


def test_float_array_rejects_non_finite_entries():
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError):
            dumps({"x": np.array([0.5, value])})


def test_arrays_other_than_flat_float_are_refused():
    # only the table form is written from an array; other arrays go through lists
    for array in (np.array([1, 2]), np.array([True]), np.zeros((2, 2))):
        with pytest.raises(TypeError):
            dumps(array)


def test_negative_zero_reads_back_as_a_float():
    # "-0" would read back as the integer 0 and lose the sign
    assert dumps(-0.0) == dumps(np.float64(-0.0)) == "-0.0" and dumps(0.0) == "0"
    assert dumps(np.array([-0.0, 0.0, -0.5])) == "[-0.0, 0, -0.5]"
    back = json.loads(dumps({"x": -0.0, "t": np.array([-0.0, 0.0])}))
    assert np.signbit(back["x"]) and np.signbit(back["t"]).tolist() == [True, False]
