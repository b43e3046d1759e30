import copy
import json
import pickle
from importlib import resources

import pytest

from wsadist import (
    CostModel,
    ModelParseError,
    ModelValidationError,
    appendix_model,
    load_model,
    serialize_model,
    unit_model,
)

ALPHABET = "aA9(),$ "


def assert_record(record, text, same, other):
    """What the library's records share: ``record`` reprs as ``text``,
    equals ``same``, built apart, and neither ``other`` nor its own field
    values as a tuple, refuses assignment and deletion, and comes back
    equal from pickle, ``copy.copy`` and ``copy.deepcopy``."""
    assert repr(record) == text
    assert record == same and not record != same
    assert record != other and not record == other
    values = tuple(getattr(record, name) for name in type(record).__match_args__)
    assert record != values and not record == values
    for name in (*type(record).__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in type(record).__match_args__) == values
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is type(record) and copied == record

# Full 8x8 replacement-cost table of the shipped appendix-a preset,
# row/column order: a A 9 ( ) , $ <space>.
APPENDIX_MATRIX = [
    [0, 2, 4, 999, 999, 999, 999, 1],
    [2, 0, 4, 999, 999, 999, 999, 1],
    [4, 4, 0, 999, 999, 999, 999, 4],
    [999, 999, 999, 0, 999, 999, 999, 999],
    [999, 999, 999, 999, 0, 999, 999, 999],
    [999, 999, 999, 999, 999, 0, 999, 999],
    [999, 999, 999, 999, 999, 999, 0, 999],
    [1, 1, 4, 999, 999, 999, 999, 0],
]


class TestUnitModel:
    def test_identity_free(self, unit):
        assert unit.replace("a", "a") == 0

    def test_replace_cost_one(self, unit):
        assert unit.replace("a", "9") == 1

    def test_indel_cost_one(self, unit):
        assert unit.indel(" ") == 1
        assert unit.indel("x") == 1

    def test_whitespace_char(self, unit):
        assert unit.whitespace_char == " "


class TestAppendixModel:
    def test_spot_values(self, appendix):
        assert appendix.replace("a", "A") == 2
        assert appendix.replace("9", " ") == 4
        assert appendix.replace("(", " ") == 999
        assert appendix.replace("$", "$") == 0

    def test_indel_is_unit(self, appendix):
        for c in ALPHABET:
            assert appendix.indel(c) == 1

    def test_all_64_cells(self, appendix):
        for i, a in enumerate(ALPHABET):
            for j, b in enumerate(ALPHABET):
                assert appendix.replace(a, b) == APPENDIX_MATRIX[i][j], (a, b)

    def test_unlisted_pair_defaults_to_999(self, appendix):
        assert appendix.replace("a", "z") == 999

    def test_unlisted_identity_is_free(self, appendix):
        assert appendix.replace("z", "z") == 0

    def test_parsed_once_per_process(self):
        text = resources.files("wsadist").joinpath("presets/appendix_a.json").read_text("utf-8")
        assert appendix_model() is appendix_model()
        assert appendix_model() == load_model(text)


class TestLoadModel:
    def test_defaults_only_behaves_as_unit(self, unit):
        m = load_model('{"indel_default": 1, "replace_default": 1, "replace_identity": 0}')
        for a in "ax9 ":
            for b in "ax9 ":
                assert m.replace(a, b) == unit.replace(a, b)
            assert m.indel(a) == unit.indel(a)

    def test_table_entry(self):
        m = load_model(
            '{"replace_default": 999, "replace": [{"a": "A", "b": "9", "cost": 4}]}'
        )
        assert m.replace("A", "9") == 4
        assert m.replace("9", "A") == 4  # applied symmetrically

    def test_asymmetric_when_declared(self):
        m = load_model(
            '{"symmetric": false, "replace": [{"a": "x", "b": "y", "cost": 7}]}'
        )
        assert m.replace("x", "y") == 7
        assert m.replace("y", "x") == m.replace_default

    def test_nonzero_identity_rejected(self):
        with pytest.raises(ModelValidationError, match="'x'"):
            load_model('{"replace": [{"a": "x", "b": "x", "cost": 3}]}')

    def test_negative_cost_rejected(self):
        with pytest.raises(ModelValidationError, match="indel_default"):
            load_model('{"indel_default": -1}')

    def test_malformed_json_rejected(self):
        with pytest.raises(ModelParseError):
            load_model("{not json")

    def test_unknown_field_rejected(self):
        with pytest.raises(ModelValidationError, match="bogus"):
            load_model('{"bogus": 1}')

    def test_multichar_key_rejected(self):
        with pytest.raises(ModelValidationError):
            load_model('{"indel": {"ab": 1}}')

    def test_nonzero_replace_identity_field_rejected(self):
        with pytest.raises(ModelValidationError, match="replace_identity"):
            load_model('{"replace_identity": 1}')


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [unit_model, appendix_model])
    def test_builtin_models(self, factory):
        m = factory()
        assert load_model(serialize_model(m)) == m

    def test_custom_model(self):
        m = CostModel(
            indel_default=2,
            replace_default=5,
            indel_costs={"x": 9, " ": 0},
            replace_costs={("x", "y"): 3, ("y", "x"): 3},
            whitespace_char=" ",
        )
        assert load_model(serialize_model(m)) == m

    def test_asymmetric_model(self):
        m = CostModel(
            symmetric=False,
            replace_costs={("x", "y"): 3, ("y", "x"): 4},
        )
        assert load_model(serialize_model(m)) == m


class TestRecord:
    def test_behaves_as_a_record(self, unit):
        text = ("CostModel(indel_default=2, replace_default=3, indel_costs={'x': 9}, "
                "replace_costs={('x', 'y'): 1}, whitespace_char='_', symmetric=False)")
        model = CostModel(2, 3, {"x": 9}, {("x", "y"): 1}, "_", False)
        assert_record(model, text,
                      CostModel(indel_default=2, replace_default=3, indel_costs={"x": 9},
                                replace_costs={("x", "y"): 1}, whitespace_char="_",
                                symmetric=False),
                      CostModel(2, 3, {"x": 9}, {("x", "y"): 2}, "_", False))
        assert repr(unit) == ("CostModel(indel_default=1, replace_default=1, indel_costs={}, "
                              "replace_costs={}, whitespace_char=' ', symmetric=True)")
        assert CostModel() == unit

    def test_defaults_are_fresh_per_model(self):
        assert CostModel().indel_costs is not CostModel().indel_costs
        assert CostModel().replace_costs is not CostModel().replace_costs

    def test_unhashable(self, unit, appendix):
        for model in (unit, appendix):
            with pytest.raises(TypeError):
                hash(model)

    def test_match_positional(self, appendix):
        match appendix:
            case CostModel(1, 999, _, costs, " ", True):
                assert costs[("a", "A")] == 2
            case _:
                pytest.fail(repr(appendix))

    def test_copies_keep_replacement_rows(self, appendix):
        for copied in (pickle.loads(pickle.dumps(appendix)), copy.deepcopy(appendix)):
            assert copied.replace("a", "A") == 2 and copied.replace("(", "a") == 999


class TestInvariants:
    def test_symmetric_declaration_validated(self):
        with pytest.raises(ModelValidationError, match="symmetric"):
            CostModel(replace_costs={("x", "y"): 3, ("y", "x"): 4})
        # one direction alone would replace y with x at the default, where a
        # round trip through JSON gives it the listed cost
        with pytest.raises(ModelValidationError, match="is missing: model is declared symmetric"):
            CostModel(indel_default=5, replace_default=5, replace_costs={("x", "y"): 1})

    def test_all_query_results_non_negative(self, appendix):
        for a in ALPHABET + "z@":
            assert appendix.indel(a) >= 0
            assert appendix.whitespace_cost(a) >= 0
            for b in ALPHABET + "z@":
                assert appendix.replace(a, b) >= 0

    def test_whitespace_cost_is_min_of_routes(self, appendix):
        assert appendix.whitespace_cost("9") == min(1, 4) == 1
        assert appendix.whitespace_cost(" ") == 0

    def test_serialized_form_matches_schema(self, appendix):
        doc = json.loads(serialize_model(appendix))
        assert set(doc) == {
            "indel_default", "indel", "replace_default", "replace",
            "symmetric", "whitespace_char",
        }
        for entry in doc["replace"]:
            assert set(entry) == {"a", "b", "cost"}
