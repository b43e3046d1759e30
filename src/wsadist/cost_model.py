"""Edit-cost configuration: per-character insertion/deletion costs and a
pairwise replacement-cost table with defaults for unlisted entries.

Costs are non-negative integers.  Identity replacements are always free;
a model may be declared symmetric (the default), in which case symmetry
is validated when the model is built.
"""

import json
import os
from collections.abc import Mapping
from functools import cache


class ModelError(ValueError):
    """Base class for cost-model construction failures."""


class ModelParseError(ModelError):
    """The model document could not be parsed."""


class ModelValidationError(ModelError):
    """The model document parsed but violates a model invariant."""


def _check_cost(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelValidationError(f"{where}: cost must be an integer, got {value!r}")
    if value < 0:
        raise ModelValidationError(f"{where}: cost must be non-negative, got {value}")
    return value


def _check_char(value, where: str) -> str:
    if not isinstance(value, str) or len(value) != 1:
        raise ModelValidationError(f"{where}: expected a single character, got {value!r}")
    return value


class _Record:
    """An immutable record of the fields that its class names, in order,
    in ``__match_args__`` and ``__slots__``: equality (within one class),
    hash and repr go by their values, assignment and deletion raise
    AttributeError, and pickling or copying builds it anew from them.
    It stands in for a frozen dataclass: importing ``dataclasses``, with
    ``inspect``, adds about 10 ms to a fresh process's start."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot descriptor, whose __set__ goes past __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def _set(self, *values) -> None:
        if len(values) != len(self._setters):
            raise ValueError(f"{len(values)} values for the fields {self.__match_args__}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class _Table(dict):
    """A cost model's read-only copy of one of its tables.  Every mutator
    raises TypeError; repr, ``==``, the TypeError from ``hash()`` and
    iteration are a dict's.  Pickling and copying give a plain dict,
    which the model's constructor wraps again."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a cost model's tables are read-only")

    __setitem__ = __delitem__ = __ior__ = update = setdefault = pop = popitem = clear = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


_EMPTY = _Table()  # an omitted table


def _read_only(table, message: str) -> _Table:
    """A read-only copy of ``table``, which must be a mapping."""
    if not isinstance(table, Mapping):
        raise ModelValidationError(message)
    return _Table(table)


class CostModel(_Record):
    """Immutable edit-cost model.

    ``indel_costs`` maps a character to its insertion/deletion cost
    (one cost covers both directions); ``indel_default`` applies to any
    character not listed.  ``replace_costs`` maps ordered character
    pairs to replacement costs with ``replace_default`` as fallback;
    replacing a character with itself is always free regardless of the
    table; a ``symmetric`` model lists each pair in both orders, at one
    cost.  ``whitespace_char`` is the one character that matches the
    imagined trailing whitespace for free.

    The constructor validates every value, and keeps a read-only copy of
    each table: an omitted table is empty, every mutator of a table
    raises TypeError, and changing the mapping a model was built from
    leaves the model as it was.
    """

    __match_args__ = ("indel_default", "replace_default", "indel_costs", "replace_costs",
                      "whitespace_char", "symmetric")
    __slots__ = (*__match_args__, "_replace_rows")

    def __init__(self, indel_default: int = 1, replace_default: int = 1,
                 indel_costs: Mapping[str, int] = _EMPTY,
                 replace_costs: Mapping[tuple[str, str], int] = _EMPTY,
                 whitespace_char: str = " ", symmetric: bool = True):
        _check_cost(indel_default, "indel_default")
        _check_cost(replace_default, "replace_default")
        _check_char(whitespace_char, "whitespace_char")
        if not isinstance(symmetric, bool):
            raise ModelValidationError(f"symmetric: expected a boolean, got {symmetric!r}")
        indel_costs = _read_only(indel_costs, "indel: expected an object of char -> cost")
        replace_costs = _read_only(replace_costs,
                                   "replace: expected a mapping of (a, b) -> cost")
        for c, cost in indel_costs.items():
            _check_char(c, "indel")
            _check_cost(cost, f"indel[{c!r}]")
        rows = {}  # replace_costs grouped by first character: a -> {b: cost}
        for (a, b), cost in replace_costs.items():
            _check_char(a, "replace")
            _check_char(b, "replace")
            _check_cost(cost, f"replace[{a!r},{b!r}]")
            if a == b and cost != 0:
                raise ModelValidationError(
                    f"replace[{a!r},{a!r}] = {cost}: identity replacement must cost 0"
                )
            if symmetric and replace_costs.get((b, a)) != cost:
                other = replace_costs.get((b, a))
                found = "is missing" if other is None else f"= {other}"
                raise ModelValidationError(
                    f"replace[{a!r},{b!r}] = {cost} but replace[{b!r},{a!r}] {found}: "
                    "model is declared symmetric"
                )
            rows.setdefault(a, {})[b] = cost
        self._set(indel_default, replace_default, indel_costs, replace_costs, whitespace_char,
                  symmetric)
        object.__setattr__(self, "_replace_rows", rows)

    def indel(self, c: str) -> int:
        """Cost of inserting or deleting character ``c``."""
        return self.indel_costs.get(c, self.indel_default)

    def replace(self, a: str, b: str) -> int:
        """Cost of replacing character ``a`` with ``b``; 0 when ``a == b``."""
        if a == b:
            return 0
        return self.replace_costs.get((a, b), self.replace_default)

    def whitespace_cost(self, c: str) -> int:
        """Cheapest way to reconcile ``c`` of the first string with the
        second's imagined whitespace: min(delete it, replace it with the
        whitespace character)."""
        if c == self.whitespace_char:
            return 0
        return min(self.indel(c), self.replace(c, self.whitespace_char))

    def whitespace_insert_cost(self, c: str) -> int:
        """Cheapest way to reconcile ``c`` of the second string with the
        first's imagined whitespace: min(insert it, replace the whitespace
        character with it).  Equal to ``whitespace_cost`` under a
        symmetric model."""
        if c == self.whitespace_char:
            return 0
        return min(self.indel(c), self.replace(self.whitespace_char, c))

    def to_dict(self) -> dict:
        """Serializable form; inverse of :func:`model_from_dict`.  A
        symmetric model lists each pair once, with ``a <= b``."""
        replace_entries = [{"a": a, "b": b, "cost": cost}
                           for (a, b), cost in sorted(self.replace_costs.items())
                           if not self.symmetric or a <= b]
        return {
            "indel_default": self.indel_default,
            "indel": dict(sorted(self.indel_costs.items())),
            "replace_default": self.replace_default,
            "replace": replace_entries,
            "symmetric": self.symmetric,
            "whitespace_char": self.whitespace_char,
        }


def serialize_model(model: CostModel) -> str:
    return json.dumps(model.to_dict(), indent=2)


def model_from_dict(doc: dict) -> CostModel:
    """Parse a model document into a :class:`CostModel`, whose
    constructor validates the costs, defaults and characters.  Here:
    the document's fields, ``replace_identity``, and the ``replace``
    entries, which a symmetric model applies in both orders."""
    if not isinstance(doc, dict):
        raise ModelValidationError(f"model document must be an object, got {type(doc).__name__}")
    known = {
        "indel_default", "indel", "replace_default", "replace",
        "replace_identity", "symmetric", "whitespace_char",
    }
    for key in doc:
        if key not in known:
            raise ModelValidationError(f"unknown model field {key!r}")
    if doc.get("replace_identity", 0) != 0:
        raise ModelValidationError(
            f"replace_identity = {doc['replace_identity']!r}: identity replacement must cost 0"
        )

    symmetric = doc.get("symmetric", True)
    replace_costs = {}
    replace_doc = doc.get("replace", [])
    if not isinstance(replace_doc, list):
        raise ModelValidationError("replace: expected a list of {a, b, cost} entries")
    for entry in replace_doc:
        if not isinstance(entry, dict) or set(entry) != {"a", "b", "cost"}:
            raise ModelValidationError(f"replace entry must be {{a, b, cost}}, got {entry!r}")
        # the characters become keys, so they are checked before use
        a = _check_char(entry["a"], "replace.a")
        b = _check_char(entry["b"], "replace.b")
        cost = entry["cost"]
        for key in ((a, b), (b, a)) if symmetric else ((a, b),):
            if replace_costs.setdefault(key, cost) != cost:
                raise ModelValidationError(
                    f"replace[{key[0]!r},{key[1]!r}]: conflicting costs "
                    f"{replace_costs[key]} and {cost}"
                )

    return CostModel(
        indel_default=doc.get("indel_default", 1),
        replace_default=doc.get("replace_default", 1),
        indel_costs=doc.get("indel", {}),
        replace_costs=replace_costs,
        whitespace_char=doc.get("whitespace_char", " "),
        symmetric=symmetric,
    )


def load_model(config_text: str) -> CostModel:
    """Build a model from its JSON document; raises ModelParseError on
    malformed JSON and ModelValidationError on invariant violations."""
    try:
        doc = json.loads(config_text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ModelParseError(f"malformed model document: {exc}") from exc
    return model_from_dict(doc)


def load_model_file(path) -> CostModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


@cache
def unit_model() -> CostModel:
    """Every insertion, deletion, and replacement costs 1.  Built once per
    process: every call returns the same shared, read-only instance."""
    return CostModel(indel_default=1, replace_default=1)


@cache
def appendix_model() -> CostModel:
    """The shipped 8-symbol preset over {a, A, 9, (, ), ',', $, space}:
    unit insertion/deletion, graded replacement costs, 999 for pairs
    outside the table.  Parsed once per process: every call returns the
    same shared, read-only instance."""
    return load_model_file(os.path.join(os.path.dirname(__file__), "presets",
                                        "appendix_a.json"))
