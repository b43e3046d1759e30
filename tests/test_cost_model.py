import copy
import json
import pickle
import sys
from importlib import resources

import pytest

from wsadist import (
    CostModel,
    ModelParseError,
    ModelValidationError,
    appendix_model,
    levenshtein_standard,
    levenshtein_ws_agnostic,
    load_model,
    serialize_model,
    unit_model,
    ws_agnostic_naive,
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
        """Built once, and equal to the shipped preset file's model, its
        replacement table in the same order, which ``model_alphabet``
        reads its row symbols in."""
        text = resources.files("wsadist").joinpath("presets/appendix_a.json").read_text("utf-8")
        assert appendix_model() is appendix_model()
        assert appendix_model() == load_model(text)
        assert list(appendix_model().replace_costs.items()) == list(
            load_model(text).replace_costs.items())

    def test_unit_model_built_once_per_process(self):
        assert unit_model() is unit_model()
        assert unit_model() == CostModel(indel_default=1, replace_default=1)


# documents json.loads refuses with no JSONDecodeError
UNPARSABLE_JSON = [
    "[" * 100_000,
    pytest.param("1" * 5000, marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int digits")),
]


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

    @pytest.mark.parametrize("doc", UNPARSABLE_JSON, ids=["deep", "long-int"])
    def test_json_refused_without_decode_error_is_malformed(self, doc):
        """``json.loads`` refuses these with a RecursionError and a plain
        ValueError, not a JSONDecodeError."""
        with pytest.raises(ModelParseError, match="^malformed model document: "):
            load_model(doc)

    def test_unknown_field_rejected(self):
        with pytest.raises(ModelValidationError, match="bogus"):
            load_model('{"bogus": 1}')

    def test_multichar_key_rejected(self):
        with pytest.raises(ModelValidationError):
            load_model('{"indel": {"ab": 1}}')

    def test_nonzero_replace_identity_field_rejected(self):
        with pytest.raises(ModelValidationError, match="replace_identity"):
            load_model('{"replace_identity": 1}')

    @pytest.mark.parametrize("doc, message", [
        ('[1, 2]', "model document must be an object, got list"),
        ('{"symmetric": "no"}', "symmetric: expected a boolean, got 'no'"),
        ('{"indel": [["x", 1]]}', "indel: expected an object of char -> cost"),
        ('{"indel": null}', "indel: expected an object of char -> cost"),
        ('{"replace": {"a": "x"}}', "replace: expected a list of {a, b, cost} entries"),
        ('{"replace": [{"a": "x", "b": "y"}]}', "replace entry must be {a, b, cost}"),
        ('{"replace": [{"a": "x", "b": "y", "cost": 1}, {"a": "y", "b": "x", "cost": 2}]}',
         "replace['y','x']: conflicting costs 1 and 2"),
        ('{"indel": {"x": 1.5}}', "indel['x']: cost must be an integer, got 1.5"),
        ('{"replace": [{"a": "x", "b": "y", "cost": true}]}',
         "replace['x','y']: cost must be an integer, got True"),
        ('{"whitespace_char": "  "}', "whitespace_char: expected a single character"),
        ('{"replace": [{"a": "xy", "b": "y", "cost": 1}]}', "replace.a: expected a single"),
    ], ids=["not-object", "symmetric", "indel", "indel-null", "replace", "entry", "conflict", "float-cost",
            "bool-cost", "whitespace-char", "entry-char"])
    def test_malformed_document_rejected(self, doc, message):
        """Each message is the one the document's parser gave when it
        checked every value itself, before the constructor did."""
        with pytest.raises(ModelValidationError) as exc:
            load_model(doc)
        assert str(exc.value).startswith(message)


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


MUTATORS = {
    "setitem": lambda table: table.__setitem__("x", 1),
    "delitem": lambda table: table.__delitem__(next(iter(table), "x")),
    "ior": lambda table: table.__ior__({}),
    "update": lambda table: table.update({}),
    "setdefault": lambda table: table.setdefault("x", 1),
    "pop": lambda table: table.pop("x", None),
    "popitem": lambda table: table.popitem(),
    "clear": lambda table: table.clear(),
}


class TestReadOnly:
    @pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS.keys())
    def test_every_mutator_raises(self, mutate, unit, appendix):
        custom = CostModel(indel_costs={"x": 2}, replace_costs={("x", "y"): 3, ("y", "x"): 3})
        for model in (unit, appendix, custom):
            for copied in (model, copy.copy(model), copy.deepcopy(model),
                           pickle.loads(pickle.dumps(model))):
                for table in (copied.indel_costs, copied.replace_costs):
                    before = dict(table)
                    with pytest.raises(TypeError, match="read-only"):
                        mutate(table)
                    assert table == before

    def test_source_tables_are_copied(self):
        indel, replace = {"q": 3}, {("x", "y"): 1, ("y", "x"): 1}
        model = CostModel(indel_costs=indel, replace_costs=replace)
        indel["q"] = -3
        replace[("x", "y")] = 7
        assert model.indel("q") == 3 and model.replace("x", "y") == 1
        assert levenshtein_standard("q", "", model) == 3

    def test_distances_agree_with_replace_after_mutation_attempts(self):
        model = CostModel(indel_default=5, replace_default=5)
        for key in (("x", "y"), ("y", "x")):
            with pytest.raises(TypeError):
                model.replace_costs[key] = 1
        assert model.replace("x", "y") == levenshtein_standard("x", "y", model) == 5
        assert levenshtein_ws_agnostic("xa", "ya", model) == ws_agnostic_naive("xa", "ya", model)

    def test_read_only_tables_keep_a_dicts_behaviour(self, appendix):
        table = appendix.replace_costs
        assert table == dict(table) and repr(table) == repr(dict(table))
        for copied in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert type(copied) is dict and copied == table
        with pytest.raises(TypeError):
            hash(table)


class TestInvariants:
    @pytest.mark.parametrize("kwargs, message", [
        ({"symmetric": "no"}, "symmetric: expected a boolean, got 'no'"),
        ({"symmetric": 1}, "symmetric: expected a boolean, got 1"),
        ({"indel_costs": [("x", 1)]}, "indel: expected an object of char -> cost"),
        ({"indel_costs": None}, "indel: expected an object of char -> cost"),
        ({"replace_costs": "xy"}, "replace: expected a mapping of (a, b) -> cost"),
    ], ids=["symmetric-str", "symmetric-int", "indel-list", "indel-none", "replace-str"])
    def test_constructor_refuses(self, kwargs, message):
        with pytest.raises(ModelValidationError) as exc:
            CostModel(**kwargs)
        assert str(exc.value) == message

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
