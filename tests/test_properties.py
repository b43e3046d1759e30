"""Property tests over the spec'd invariants of the distance and
detection layers."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wsadist.kernel as kernel
from wsadist import (
    CostModel,
    DetectConfig,
    NormalizationMode,
    appendix_model,
    detect_tables,
    levenshtein_standard,
    levenshtein_ws_agnostic,
    line_whitespace_cost,
    row_similarity,
    unit_model,
    ws_agnostic_naive,
)
from test_table_detect import assert_cutoff_keeps_decisions, pair_triples

ALPHABET = "aA9(),$ "

UNIT = unit_model()
APPENDIX = appendix_model()

strings = st.text(alphabet=ALPHABET, max_size=24)
models = st.sampled_from([UNIT, APPENDIX])

common = settings(max_examples=500, deadline=None)


@common
@given(strings, strings, models)
def test_dominance(s1, s2, model):
    assert levenshtein_ws_agnostic(s1, s2, model) <= levenshtein_standard(s1, s2, model)


# asymmetric models over a small alphabet that holds the whitespace
# character, zero costs included
SMALL = "aAb "
costs = st.integers(min_value=0, max_value=6)
asymmetric_models = st.builds(
    CostModel,
    indel_default=costs,
    replace_default=costs,
    indel_costs=st.dictionaries(st.sampled_from(SMALL), costs),
    replace_costs=st.dictionaries(
        st.tuples(st.sampled_from(SMALL), st.sampled_from(SMALL)).filter(lambda p: p[0] != p[1]),
        costs,
    ),
    symmetric=st.just(False),
)
short = st.text(alphabet=SMALL, max_size=6)


@common
@given(short, short, asymmetric_models)
def test_ws_agnostic_matches_padded_oracle_under_asymmetric_models(s1, s2, model):
    expected = ws_agnostic_naive(s1, s2, model)
    assert levenshtein_ws_agnostic(s1, s2, model) == expected
    # the batch entry on the streams s1 and s2, rows for both lines' leads
    alphabet = kernel.model_alphabet(model, s1 + s2)
    m = len(alphabet)
    codes = kernel.encode(s1 + s2, alphabet)
    for ws_agnostic, padding in ((True, {}), (False, {"pad_limit": 0})):
        costs = kernel.alphabet_costs(alphabet, m, model, ws_agnostic)
        assert kernel.dp_pairs(codes, len(s1), len(s1), -1, 1, m, costs, 0.0)[2][0] == (
            ws_agnostic_naive(s1, s2, model, **padding))


def length_bound(s1, s2, model):
    """The kernel's bound on the ws-agnostic d: each character of s1 that no
    diagonal move takes, all but at most len(s2) of them, pays at least its
    whitespace cost, and the same for s2."""
    dels = [model.whitespace_cost(c) for c in s1]
    ins = [model.whitespace_insert_cost(c) for c in s2]
    return max(sum(dels) - len(s2) * max(dels, default=0),
               sum(ins) - len(s1) * max(ins, default=0))


@common
@given(st.text(alphabet=SMALL + "9$", max_size=16), st.text(alphabet=SMALL + "9$", max_size=16),
       st.one_of(asymmetric_models, models, st.just(CostModel(indel_costs={"a": 0, " ": 0}))))
def test_ws_agnostic_distance_is_at_least_the_length_bound(s1, s2, model):
    assert levenshtein_ws_agnostic(s1, s2, model) >= length_bound(s1, s2, model)


@common
@given(strings, models)
def test_identity_zero(s, model):
    assert levenshtein_ws_agnostic(s, s, model) == 0
    assert levenshtein_standard(s, s, model) == 0


@common
@given(strings, strings, models)
def test_symmetry_under_symmetric_models(s1, s2, model):
    assert model.symmetric
    assert levenshtein_ws_agnostic(s1, s2, model) == levenshtein_ws_agnostic(s2, s1, model)
    assert levenshtein_standard(s1, s2, model) == levenshtein_standard(s2, s1, model)


@common
@given(strings, strings, models)
def test_trailing_space_absorption(s1, s2, model):
    base = levenshtein_ws_agnostic(s1, s2, model)
    assert levenshtein_ws_agnostic(s1 + " ", s2, model) == base
    assert levenshtein_ws_agnostic(s1, s2 + " ", model) == base


@common
@given(strings, strings)
def test_unit_zero_characterization(s1, s2):
    d = levenshtein_ws_agnostic(s1, s2, UNIT)
    assert (d == 0) == (s1.rstrip(" ") == s2.rstrip(" "))


@common
@given(strings, strings, models)
def test_row_similarity_bounds(s1, s2, model):
    sim = row_similarity(s1, s2, model)
    assert 0.0 <= sim <= 1.0


@common
@given(strings, models)
def test_row_similarity_identical_is_one(s, model):
    assert row_similarity(s, s, model) == 1.0


documents = st.lists(st.text(alphabet=ALPHABET + "\t.x", max_size=30), max_size=20)
configs = st.builds(
    DetectConfig,
    threshold=st.floats(min_value=0.0, max_value=1.0),
    min_rows=st.integers(min_value=2, max_value=4),
)


@common
@given(documents, configs)
def test_detect_region_invariants(lines, config):
    regions = detect_tables(lines, config)
    prev_end = -1
    for r in regions:
        assert r.start_line <= r.end_line
        assert r.end_line - r.start_line + 1 >= config.min_rows
        assert r.start_line > prev_end  # disjoint and sorted
        assert 0.0 <= r.score <= 1.0
        assert r.end_line < len(lines)
        prev_end = r.end_line


@settings(max_examples=300, deadline=None)
@given(documents, st.one_of(models, asymmetric_models), st.data())
def test_detect_with_cutoff_matches_exact_decisions(lines, model, data):
    """Thresholds 0, 1, a random one and one where (1 - threshold) * D is
    an integer for a scored pair."""
    lines = [line.expandtabs(8) for line in lines]
    weights = [heavier for _, d, heavier in pair_triples(lines, NormalizationMode.CASED, model, 0.0)
               if d is not None and heavier > 0]
    thresholds = [0.0, 1.0, data.draw(st.floats(min_value=0.0, max_value=1.0))]
    if weights:
        heavier = data.draw(st.sampled_from(weights))
        thresholds.append(1.0 - data.draw(st.integers(0, heavier)) / heavier)
    for threshold in thresholds:
        assert_cutoff_keeps_decisions(lines, model, threshold)


@settings(max_examples=200, deadline=None)
@given(documents, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_detect_threshold_monotonicity(lines, t1, t2):
    lo, hi = sorted((t1, t2))
    loose = detect_tables(lines, DetectConfig(threshold=lo))
    strict = detect_tables(lines, DetectConfig(threshold=hi))
    for r in strict:
        assert any(
            q.start_line <= r.start_line and r.end_line <= q.end_line for q in loose
        ), r


@settings(max_examples=200, deadline=None)
@given(documents)
def test_detect_deterministic(lines):
    config = DetectConfig()
    assert detect_tables(lines, config) == detect_tables(lines, config)


def test_lines_outside_regions_do_not_interfere():
    table = ["aaaa  99", "aaaa  99", "aaaa  99"]
    tail_a = ["(((((((", "$,$,$,$"]
    tail_b = ["$,$,$,$", "((((((("]
    config = DetectConfig()
    regions_a = detect_tables(table + [""] + tail_a, config)
    regions_b = detect_tables(table + [""] + tail_b, config)
    assert [r for r in regions_a if r.end_line <= 2] == [
        r for r in regions_b if r.end_line <= 2
    ]


@pytest.mark.parametrize("model", [UNIT, APPENDIX])
def test_line_whitespace_cost_matches_empty_distance(model):
    for line in ["", "   ", "a9 A$", "((, ))"]:
        assert line_whitespace_cost(line, model) == levenshtein_ws_agnostic("", line, model)


FALSE_PROPERTY = """from hypothesis import given, strategies as st


@given(st.integers())
def test_false(x):
    assert x < 5


def test_after():
    pass
"""


def test_false_property_fails_alone_and_prints_its_example(tmp_path):
    """Under the project's pytest settings, where warnings are errors, a
    false ``@given`` test fails as itself with its falsifying example, and
    the tests after it run: printing the example imports libcst, whose
    import warns, and that warning must not end the run in an INTERNALERROR."""
    (tmp_path / "test_false.py").write_text(FALSE_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config),
                           "-p", "no:cacheprovider", "test_false.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
