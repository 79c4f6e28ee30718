import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmds import serialize
from qmds.construct import additive_coset_code, multiplicative_coset_code
from qmds.field import make_field
from qmds.grs import GRSCode


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_field_round_trip(p, e):
    F = make_field(p, e)
    assert serialize.field_from_obj(F.as_dict()) is F


def test_field_bound_respected():
    obj = {"p": 3, "e": 2, "modulus": list(make_field(3, 2).modulus)}
    with pytest.raises(serialize.FormatError):
        serialize.field_from_obj(obj, element_bound=16)


def test_code_round_trip_plain_and_extended():
    for res in (additive_coset_code(3, 2, 2), multiplicative_coset_code(3, 2, 3)):
        obj = serialize.code_to_obj(res.code)
        assert serialize.code_from_obj(obj) == res.code


def test_result_schema_keys():
    res = multiplicative_coset_code(3, 2, 2)
    obj = serialize.result_to_obj(res)
    assert list(obj) == ["field", "a", "v", "k", "extended", "generator", "quantum", "provenance", "witnesses"]
    assert obj["provenance"] == "prop1-special"
    assert list(obj["quantum"]) == ["n", "k", "d", "q"]
    # the parser ignores the extra keys and recovers the same code
    assert serialize.code_from_obj(obj) == res.code


def test_code_from_obj_rejects_schema_violations():
    good = serialize.code_to_obj(additive_coset_code(2, 1, 1).code)
    for key in ("field", "a", "v", "k"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(serialize.FormatError):
            serialize.code_from_obj(broken)
    broken = dict(good)
    broken["a"] = [0, 0]
    with pytest.raises(serialize.FormatError):
        serialize.code_from_obj(broken)
    broken = dict(good)
    broken["v"] = ["x", "y"]
    with pytest.raises(serialize.FormatError):
        serialize.code_from_obj(broken)


VALID_CODE = {"field": {"p": 3, "e": 1, "modulus": [1, 0, 1]}, "a": [0, 1], "v": [1, 1], "k": 1}


@pytest.mark.parametrize("patch", [
    {"k": 1.9},
    {"a": [0.5, 1]},
    {"extended": "false"},
    {"field": {"p": 3.9, "e": 1, "modulus": [1, 0, 1]}},
    {"k": True},
    {"a": ["0", "1"]},
])
def test_code_from_obj_rejects_what_is_not_a_json_integer_or_boolean(patch):
    # each one, truncated or coerced, would make a valid code
    assert serialize.code_from_obj(VALID_CODE).k == 1
    with pytest.raises(serialize.FormatError):
        serialize.code_from_obj({**VALID_CODE, **patch})


def test_dumps_round_trips_through_json():
    res = additive_coset_code(3, 3, 1)
    obj = serialize.result_to_obj(res)
    assert json.loads(serialize.dumps(obj)) == obj


def test_load_code(tmp_path):
    res = additive_coset_code(3, 3, 1)
    path = tmp_path / "code.json"
    serialize.save(serialize.result_to_obj(res), str(path))
    assert serialize.load_code(str(path)) == res.code
    path.write_text("[1, 2]")
    with pytest.raises(serialize.FormatError):
        serialize.load_code(str(path))


def test_elements_serialize_as_canonical_integers():
    code = GRSCode(make_field(2, 1), (0, 1, 2, 3), (1, 2, 3, 1), 2)
    obj = serialize.code_to_obj(code)
    assert obj["a"] == [0, 1, 2, 3]
    assert obj["v"] == [1, 2, 3, 1]


# ----------------------------------------------------------------------
# fuzzing: any JSON value parses to a code or raises FormatError
# ----------------------------------------------------------------------

FUZZ_BOUND = 16  # at most GF(16): every field the fuzzer reaches builds fast

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
small_ints = st.integers(min_value=-1, max_value=17)
# numbers json.loads yields for 1e999, NaN and a 2**61-1 literal, and strings int() accepts
edge_cases = st.sampled_from([float("inf"), float("-inf"), float("nan"), 2 ** 61 - 1, "3", " 2 "])
values = small_ints | edge_cases | json_values | st.lists(small_ints | edge_cases, max_size=6)
base_codes = st.sampled_from([
    serialize.code_to_obj(GRSCode(make_field(2, 1), (0, 1, 2), (1, 2, 3), 2)),
    serialize.code_to_obj(GRSCode(make_field(3, 1), (0, 1, 2, 3), (1, 2, 3, 4), 3, True)),
    serialize.code_to_obj(GRSCode(make_field(2, 2), (0, 5, 9, 15), (1, 1, 1, 1), 1)),
])


def _patched(base, patch, field_patch):
    obj = {**base, **patch}
    if isinstance(obj["field"], dict):
        obj["field"] = {**obj["field"], **field_patch}
    return obj


# valid code files with up to two top-level and two field entries replaced
code_like = st.builds(
    _patched,
    base_codes,
    st.dictionaries(st.sampled_from(["field", "a", "v", "k", "extended"]), values, max_size=2),
    st.dictionaries(st.sampled_from(["p", "e", "modulus"]), values, max_size=2),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(code_like, json_values)
def test_code_from_obj_returns_a_code_or_raises_format_error(patched, arbitrary):
    for obj in (patched, arbitrary):
        try:
            code = serialize.code_from_obj(obj, element_bound=FUZZ_BOUND)
        except serialize.FormatError:
            continue
        assert isinstance(code, GRSCode)
        assert code.field.order <= FUZZ_BOUND
