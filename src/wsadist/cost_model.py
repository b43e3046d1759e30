"""Edit-cost configuration: per-character insertion/deletion costs and a
pairwise replacement-cost table with defaults for unlisted entries.

Costs are non-negative integers.  Identity replacements are always free;
a model may be declared symmetric (the default), in which case symmetry
is validated when the model is built.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources


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

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

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


class CostModel(_Record):
    """Immutable edit-cost model.

    ``indel_costs`` maps a character to its insertion/deletion cost
    (one cost covers both directions); ``indel_default`` applies to any
    character not listed.  ``replace_costs`` maps ordered character
    pairs to replacement costs with ``replace_default`` as fallback;
    replacing a character with itself is always free regardless of the
    table.  ``whitespace_char`` is the one character that matches the
    imagined trailing whitespace for free.  An omitted table is a new
    empty dict.
    """

    __match_args__ = ("indel_default", "replace_default", "indel_costs", "replace_costs",
                      "whitespace_char", "symmetric")
    __slots__ = (*__match_args__, "_replace_rows")

    def __init__(self, indel_default: int = 1, replace_default: int = 1,
                 indel_costs: dict[str, int] | None = None,
                 replace_costs: dict[tuple[str, str], int] | None = None,
                 whitespace_char: str = " ", symmetric: bool = True):
        indel_costs = {} if indel_costs is None else indel_costs
        replace_costs = {} if replace_costs is None else replace_costs
        self._set(indel_default, replace_default, indel_costs, replace_costs, whitespace_char,
                  symmetric)
        _check_cost(indel_default, "indel_default")
        _check_cost(replace_default, "replace_default")
        _check_char(whitespace_char, "whitespace_char")
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
            rows.setdefault(a, {})[b] = cost
        if symmetric:
            for (a, b), cost in replace_costs.items():
                other = replace_costs.get((b, a), cost)
                if other != cost:
                    raise ModelValidationError(
                        f"replace[{a!r},{b!r}] = {cost} but replace[{b!r},{a!r}] = "
                        f"{other}: model is declared symmetric"
                    )
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
        """Serializable form; inverse of :func:`model_from_dict`."""
        replace_entries = []
        seen = set()
        for (a, b), cost in sorted(self.replace_costs.items()):
            if self.symmetric:
                if (b, a) in seen:
                    continue
                seen.add((a, b))
            replace_entries.append({"a": a, "b": b, "cost": cost})
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
    if not isinstance(symmetric, bool):
        raise ModelValidationError(f"symmetric: expected a boolean, got {symmetric!r}")

    indel_costs = {}
    indel_doc = doc.get("indel", {})
    if not isinstance(indel_doc, dict):
        raise ModelValidationError("indel: expected an object of char -> cost")
    for c, cost in indel_doc.items():
        indel_costs[_check_char(c, "indel")] = _check_cost(cost, f"indel[{c!r}]")

    replace_costs = {}
    replace_doc = doc.get("replace", [])
    if not isinstance(replace_doc, list):
        raise ModelValidationError("replace: expected a list of {a, b, cost} entries")
    for entry in replace_doc:
        if not isinstance(entry, dict) or set(entry) != {"a", "b", "cost"}:
            raise ModelValidationError(f"replace entry must be {{a, b, cost}}, got {entry!r}")
        a = _check_char(entry["a"], "replace.a")
        b = _check_char(entry["b"], "replace.b")
        cost = _check_cost(entry["cost"], f"replace[{a!r},{b!r}]")
        for key in ((a, b), (b, a)) if symmetric else ((a, b),):
            if key in replace_costs and replace_costs[key] != cost:
                raise ModelValidationError(
                    f"replace[{key[0]!r},{key[1]!r}]: conflicting costs "
                    f"{replace_costs[key]} and {cost}"
                )
            replace_costs[key] = cost

    return CostModel(
        indel_default=_check_cost(doc.get("indel_default", 1), "indel_default"),
        replace_default=_check_cost(doc.get("replace_default", 1), "replace_default"),
        indel_costs=indel_costs,
        replace_costs=replace_costs,
        whitespace_char=_check_char(doc.get("whitespace_char", " "), "whitespace_char"),
        symmetric=symmetric,
    )


def load_model(config_text: str) -> CostModel:
    """Build a model from its JSON document; raises ModelParseError on
    malformed JSON and ModelValidationError on invariant violations."""
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"malformed model document: {exc}") from exc
    return model_from_dict(doc)


def load_model_file(path) -> CostModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def unit_model() -> CostModel:
    """Every insertion, deletion, and replacement costs 1."""
    return CostModel(indel_default=1, replace_default=1)


@cache
def appendix_model() -> CostModel:
    """The shipped 8-symbol preset over {a, A, 9, (, ), ',', $, space}:
    unit insertion/deletion, graded replacement costs, 999 for pairs
    outside the table.  Parsed once per process: every call returns the
    same shared instance, which must not be mutated."""
    text = resources.files("wsadist").joinpath("presets/appendix_a.json").read_text("utf-8")
    return load_model(text)
