from functools import lru_cache

import pytest

from wsadist import (
    Algorithm,
    SizeLimitError,
    distance,
    levenshtein_standard,
    levenshtein_ws_agnostic,
    unit_model,
    ws_agnostic_naive,
    ws_agnostic_recursive_unit,
)
from wsadist.distance import DistanceResult
from test_cost_model import assert_record


def brute_force_standard(s1, s2, model):
    """Independent oracle for the classical distance: plain recursion
    over delete/insert/replace, no DP lattice."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(s1):
            return sum(model.indel(c) for c in s2[j:])
        if j == len(s2):
            return sum(model.indel(c) for c in s1[i:])
        return min(
            go(i + 1, j) + model.indel(s1[i]),
            go(i, j + 1) + model.indel(s2[j]),
            go(i + 1, j + 1) + model.replace(s1[i], s2[j]),
        )

    return go(0, 0)


class TestStandard:
    def test_pure_insertions(self, unit):
        assert levenshtein_standard("", "abc", unit) == 3

    def test_kitten_sitting(self, unit):
        # brute_force_standard("kitten", "sitting", unit) == 3
        assert brute_force_standard("kitten", "sitting", unit) == 3
        assert levenshtein_standard("kitten", "sitting", unit) == 3

    def test_motivating_pair(self, unit):
        s1 = "aaaa aaa  9 aa 9 aaaaaa  999  aa"
        s2 = "aaaa aaa  9 aa 9 aaaaaa"
        assert levenshtein_standard(s1, s2, unit) == 9

    def test_golden_pair_appendix(self, appendix):
        assert levenshtein_standard("aaaaA  99  99", "aaaaA", appendix) == 8

    def test_both_empty(self, unit):
        assert levenshtein_standard("", "", unit) == 0

    def test_non_unit_boundary_costs(self):
        from wsadist import CostModel

        m = CostModel(indel_default=3, replace_default=5, indel_costs={"x": 2})
        assert levenshtein_standard("xy", "", m) == 2 + 3
        assert levenshtein_standard("", "xx", m) == 4
        assert brute_force_standard("xyx", "yxy", m) == levenshtein_standard("xyx", "yxy", m)

    def test_size_limit(self, unit):
        with pytest.raises(SizeLimitError):
            levenshtein_standard("a" * 100, "b" * 100, unit, max_cells=99 * 99)


class TestWsAgnostic:
    def test_trailing_spaces_free(self, unit):
        assert levenshtein_ws_agnostic("abc   ", "abc", unit) == 0

    def test_motivating_pair(self, unit):
        s1 = "aaaa aaa  9 aa 9 aaaaaa  999  aa"
        s2 = "aaaa aaa  9 aa 9 aaaaaa"
        assert levenshtein_ws_agnostic(s1, s2, unit) == 5

    def test_golden_pairs_appendix(self, appendix):
        assert levenshtein_ws_agnostic("aaaaA  99  99", "aaaaA", appendix) == 4
        assert levenshtein_ws_agnostic("aaaaA      99", "aaaaA", appendix) == 2

    def test_all_space_vs_empty(self, unit):
        assert levenshtein_ws_agnostic("", "   ", unit) == 0

    def test_empty_vs_nonspace_charges_whitespace_cost(self, appendix):
        # each '9' against imagined whitespace: min(indel 1, replace 4) = 1
        assert levenshtein_ws_agnostic("", "99", appendix) == 2
        assert levenshtein_ws_agnostic("", " 9 9 ", appendix) == 2

    def test_interior_spaces_not_free(self, unit):
        assert levenshtein_ws_agnostic("a b", "ab", unit) == 1

    def test_size_limit(self, unit):
        with pytest.raises(SizeLimitError):
            levenshtein_ws_agnostic("a" * 100, "b" * 100, unit, max_cells=99 * 99)


class TestNaiveOracle:
    def test_trailing_spaces_free(self, unit):
        assert ws_agnostic_naive("abc   ", "abc", unit) == 0

    def test_golden_pair(self, appendix):
        assert ws_agnostic_naive("aaaaA  99  99", "aaaaA", appendix) == 4

    def test_oracle_limit(self, unit):
        with pytest.raises(SizeLimitError):
            ws_agnostic_naive("a" * 300, "b" * 300, unit)


class TestRecursiveReference:
    def test_empty_vs_empty(self):
        assert ws_agnostic_recursive_unit("", "") == 0

    def test_single_match(self):
        assert ws_agnostic_recursive_unit("a", "a") == 0

    def test_single_replacement(self):
        # brute-force enumeration of edit scripts gives 1
        assert brute_force_standard("abc", "abd", unit_model()) == 1
        assert ws_agnostic_recursive_unit("abc", "abd") == 1

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            ws_agnostic_recursive_unit("a" * 65, "b")


class TestDistanceWrapper:
    def test_result_fields(self, unit):
        res = distance("abc   ", "abc", unit, Algorithm.WS_AGNOSTIC)
        assert res.cost == 0
        assert res.algorithm is Algorithm.WS_AGNOSTIC
        assert (res.len1, res.len2) == (6, 3)

    def test_defaults_to_unit_model(self):
        assert distance("ab", "cd").cost == 2

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_all_algorithms_dispatch(self, unit, algo):
        assert distance("ab", "ab", unit, algo).cost == 0

    def test_model_is_honoured(self, appendix):
        # replace('(', ')') = 999, so two indels at 1 each are cheaper
        for algo in Algorithm:
            assert distance("(", ")", appendix, algo).cost == 2

    def test_result_is_a_record(self):
        result = DistanceResult(3, Algorithm.STANDARD, 6, 7)
        assert_record(result,
                      "DistanceResult(cost=3, algorithm=<Algorithm.STANDARD: 'standard'>, "
                      "len1=6, len2=7)",
                      DistanceResult(cost=3, algorithm=Algorithm.STANDARD, len1=6, len2=7),
                      DistanceResult(3, Algorithm.WS_AGNOSTIC, 6, 7))
        assert hash(result) == hash(distance("kitten", "sitting", algorithm=Algorithm.STANDARD))
        match result:
            case DistanceResult(cost, Algorithm.STANDARD, len1, len2=7):
                assert (cost, len1) == (3, 6)
            case _:
                pytest.fail(repr(result))
