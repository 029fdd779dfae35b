"""The schema walker of ``fileio.validate`` against jsonschema as its oracle."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from gridstep.errors import DimensionError, InputFormatError
from gridstep.fileio import _SHOWN_CHARS, field_name, validate
from gridstep.network import GRID_SCHEMA
from gridstep.scenario import DEOC_SCENARIO_SCHEMA, DFEC_SCENARIO_SCHEMA

from conftest import DATA

FILES = {
    "wscc9.json": GRID_SCHEMA,
    "ieee39.json": GRID_SCHEMA,
    "scenario_wscc9.json": DEOC_SCENARIO_SCHEMA,
    "scenario_wscc9_fixed_dp.json": DEOC_SCENARIO_SCHEMA,
    "dfec_twomachine.json": DFEC_SCENARIO_SCHEMA,
}
DOCS = {name: json.loads((DATA / name).read_text()) for name in FILES}

SUPPORTED = {"type", "required", "properties", "additionalProperties", "items", "enum",
             "minimum", "exclusiveMinimum"}

WRONG_NUMBERS = [True, False, "1", None, [], {}]
WRONG_INTEGERS = [1.5, True, "1", None]
OVERRIDE_ENTRIES = [None, [], [1.0], [-2, 3.5], "x", 5, True, {}, [1, "a"], [True, "b", 2.0],
                    [[1.0]], [None, 1.0]]


def _finite_oracle(value, path=()):
    """Path and value of the first NaN or infinity in document order."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        if isinstance(value, float) and not math.isfinite(value):
            return path, value
        return None
    for key, item in items:
        found = _finite_oracle(item, path + (key,))
        if found:
            return found
    return None


def _clip(text):
    """A document value's text as the walker shows it: past ``_SHOWN_CHARS``
    characters, its first ``_SHOWN_CHARS - 3`` and ``...``."""
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS - 3] + "..."


def _shown_message(error):
    """jsonschema's message with the document values it names clipped: the
    instance that starts it, or the list of unexpected properties."""
    message = error.message
    if error.validator == "additionalProperties":
        extras = ", ".join(map(repr, sorted(set(error.instance) - set(error.schema.get("properties", {})),
                                            key=str)))
        return message.replace(extras, _clip(extras), 1)
    text = repr(error.instance)
    return _clip(text) + message[len(text):] if message.startswith(text) else message


def _expected(doc, schema):
    error = best_match(Draft202012Validator(schema).iter_errors(doc))
    if error is not None:
        where = field_name(error.absolute_path)
        message = _shown_message(error)
        return InputFormatError, f"{where}: {message}" if where else message
    found = _finite_oracle(doc)
    if found:
        return DimensionError, f"{field_name(found[0])} must be finite, got {found[1]}"
    return None


def _got(doc, schema):
    try:
        validate(doc, schema)
    except (InputFormatError, DimensionError) as exc:
        return type(exc), str(exc)
    return None


def _described(value, schema, path=()):
    """``(path, value, schema)`` of each value of the document that its
    schema describes, the document included."""
    yield path, value, schema
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from _described(value[key], sub, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _described(item, schema["items"], path + (i,))


def _parent(doc, path):
    """The container of the member at ``path``."""
    for step in path[:-1]:
        doc = doc[step]
    return doc


def _mutate(data, doc, schema):
    """``doc`` with one fault drawn by ``data`` (or unchanged, where none fits)."""
    places = list(_described(doc, schema))
    kind = data.draw(st.sampled_from(["drop", "type", "unknown", "bound", "enum", "override",
                                      "non-finite"]))
    if kind == "drop":
        members = [p for p, v, s in places if p]
        if members:
            path = data.draw(st.sampled_from(members))
            del _parent(doc, path)[path[-1]]
    elif kind == "type":
        typed = [(p, s["type"]) for p, v, s in places
                 if p and s.get("type") in ("number", "integer")]
        if typed:
            path, name = data.draw(st.sampled_from(typed))
            wrong = WRONG_INTEGERS + [1.0] if name == "integer" else WRONG_NUMBERS
            _parent(doc, path)[path[-1]] = data.draw(st.sampled_from(wrong))
    elif kind == "unknown":
        sections = [v for p, v, s in places if isinstance(v, dict)]
        if sections:
            section = data.draw(st.sampled_from(sections))
            for key in data.draw(st.sampled_from([["zz_extra"], ["zz_extra", "aa_extra"]])):
                section[key] = 1.0
    elif kind == "bound":
        bounded = [(p, s.get("minimum", s.get("exclusiveMinimum"))) for p, v, s in places
                   if p and ("minimum" in s or "exclusiveMinimum" in s)]
        if bounded:
            path, bound = data.draw(st.sampled_from(bounded))
            _parent(doc, path)[path[-1]] = data.draw(st.sampled_from(
                [bound, bound - 1, bound - 0.5, -math.inf, float(bound)]))
    elif kind == "enum":
        listed = [p for p, v, s in places if p and "enum" in s]
        if listed:
            path = data.draw(st.sampled_from(listed))
            _parent(doc, path)[path[-1]] = data.draw(
                st.sampled_from(["other", 1, True, None, "DEOC"]))
    elif kind == "override":
        if schema is DEOC_SCENARIO_SCHEMA:
            doc["dp_overrides_mw"] = data.draw(st.lists(st.sampled_from(OVERRIDE_ENTRIES),
                                                        min_size=1, max_size=4))
    else:
        numbers = [p for p, v, s in places
                   if p and isinstance(v, (int, float)) and not isinstance(v, bool)]
        if numbers:
            path = data.draw(st.sampled_from(numbers))
            _parent(doc, path)[path[-1]] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
    return doc


class TestParity:
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_bundled_files_pass(self, name):
        assert _got(DOCS[name], FILES[name]) is None

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_documents_match_jsonschema(self, data):
        name = data.draw(st.sampled_from(sorted(FILES)))
        doc, schema = copy.deepcopy(DOCS[name]), FILES[name]
        for _ in range(data.draw(st.integers(1, 4))):
            doc = _mutate(data, doc, schema)
        if data.draw(st.booleans()) and data.draw(st.booleans()):
            doc = data.draw(st.sampled_from([[], [doc], [1, "x"], "x", 3]))
        assert _got(doc, schema) == _expected(doc, schema)

    @pytest.mark.parametrize("doc, schema, text", [
        ({"schema_version": 1, "base_mva": 100.0, "units": "pu", "buses": [],
          "branches": [{"from": 1, "to": 1, "x": -0.5}], "generators": []},
         GRID_SCHEMA, "branches[0].x: -0.5 is less than or equal to the minimum of 0"),
        ([1], GRID_SCHEMA, "[1] is not of type 'object'"),
        ({"kind": "deoc", "disturbance": {"kind": "initial-state"}, "t_end": 1.0,
          "dp_overrides_mw": [None, "x", [1, True, "a"]]},
         DEOC_SCENARIO_SCHEMA, "dp_overrides_mw[1]: 'x' is not of type 'null', 'array'"),
        ({"kind": "deoc", "disturbance": {"kind": "initial-state"}, "t_end": 1.0,
          "targets": [1.0, 1.5], "dp_overrides_mw": [None, "x", [1, True, "a"]]},
         DEOC_SCENARIO_SCHEMA, "targets[1]: 1.5 is not of type 'integer'"),
        ({"kind": "deoc", "disturbance": {"kind": "initial-state"}, "t_end": 1.0,
          "dp_overrides_mw": [{}]},
         DEOC_SCENARIO_SCHEMA, "dp_overrides_mw[0]: {} is not of type 'null', 'array'"),
    ])
    def test_known_texts(self, doc, schema, text):
        assert _got(doc, schema) == _expected(doc, schema) == (InputFormatError, text)


@pytest.mark.parametrize("edit, text", [
    (lambda doc: [doc] * 1000,
     "[{'schema_version': 1, 'kind': 'dfec', 'name': 'two-machine frequency excursi..."
     " is not of type 'object'"),
    (lambda doc: doc["sweep"].update(dp=["x" * 10**6]),
     "sweep.dp: ['" + "x" * 75 + "... is not of type 'number'"),
    (lambda doc: doc.update(optimize={f"extra_{k}": k for k in range(10**4)}),
     "optimize: Additional properties are not allowed ('extra_0', 'extra_1', 'extra_10', "
     "'extra_100', 'extra_1000', 'extra_1001', 'e... were unexpected)"),
])
def test_long_values_are_clipped(edit, text):
    """A document value's text in a message is cut to ``_SHOWN_CHARS``
    characters, whatever the value's size."""
    doc = copy.deepcopy(DOCS["dfec_twomachine.json"])
    doc = edit(doc) or doc
    assert _got(doc, DFEC_SCENARIO_SCHEMA) == _expected(doc, DFEC_SCENARIO_SCHEMA) == (
        InputFormatError, text)


@pytest.mark.parametrize("leaf, error", [
    ("", None),
    ("NaN", (DimensionError, "deep" + "[0]" * 900 + " must be finite, got nan")),
])
def test_deep_document_is_checked_to_the_bottom(leaf, error):
    """The finite check reaches any depth the JSON parser reads."""
    doc = json.loads('{"deep": ' + "[" * 900 + leaf + "]" * 900 + "}")
    assert _got(doc, {"type": "object"}) == error


def _keywords(schema, where="#"):
    """``(where, keyword, value)`` of every keyword of ``schema``."""
    for key, value in schema.items():
        yield where, key, value
        subs = {"properties": value, "items": {"items": value}}.get(key, {})
        for name, sub in subs.items():
            yield from _keywords(sub, f"{where}/{key}/{name}")


@pytest.mark.parametrize("schema", [GRID_SCHEMA, DEOC_SCENARIO_SCHEMA, DFEC_SCENARIO_SCHEMA])
def test_schemas_use_only_supported_keywords(schema):
    """Every keyword the walker meets is one it knows, in the form it knows."""
    Draft202012Validator.check_schema(schema)
    for where, key, value in _keywords(schema):
        assert key in SUPPORTED, f"{where}: {key}"
        if key == "additionalProperties":
            assert value is False, where
        elif key == "items":
            assert isinstance(value, dict), where
        elif key == "enum":
            assert all(isinstance(v, str) for v in value), where


@pytest.mark.parametrize("schema", [
    {"type": "string", "maxLength": 3},
    {"properties": {"a": {"pattern": "x"}}},
    {"additionalProperties": {"type": "number"}},
    {"$ref": "other.json"},
    {"properties": {"a": {"anyOf": [{"type": "null"}, {"type": "string"}]}}},
    {"properties": {"a": {"const": "xyzzy"}}},
    {"$defs": {"axis": {"type": "object"}}, "type": "object"},
])
def test_unsupported_keyword_raises_when_reached(schema):
    with pytest.raises(ValueError, match="is not supported"):
        validate({"a": "xyzzy"}, schema)
