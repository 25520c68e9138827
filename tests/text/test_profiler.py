"""Tests for string profiling (repro.text.profiler)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.text import profiler
from repro.text.profiler import (
    Profile,
    patterns_for_cluster,
    profile_string,
    profile_strings,
)


class TestProfileString:
    def test_digits_exact(self):
        assert profile_string("4713872198212") == "[0-9]{13}"

    def test_digits_generalized(self):
        assert profile_string("4713872198212", exact_lengths=False) == "[0-9]+"

    def test_mixed_runs(self):
        assert profile_string("AB12") == "[A-Z]{2}[0-9]{2}"

    def test_punctuation_escaped(self):
        pattern = profile_string("DOC-483921")
        assert pattern == "[A-Z]{3}\\-[0-9]{6}"

    def test_single_chars_unquantified(self):
        assert profile_string("A1") == "[A-Z][0-9]"

    def test_whitespace_class(self):
        assert profile_string("AB 12") == "[A-Z]{2}\\s[0-9]{2}"

    def test_lowercase(self):
        assert profile_string("abc") == "[a-z]{3}"

    def test_empty(self):
        assert profile_string("") == ""


class TestProfileStrings:
    def test_support_counting(self):
        profiles = profile_strings(["123", "456", "789"], min_support=3)
        assert any(p.pattern == "[0-9]{3}" and p.support == 3 for p in profiles)

    def test_min_support_filters(self):
        profiles = profile_strings(["123", "ab"], min_support=2)
        assert all(p.support >= 2 for p in profiles)

    def test_profiles_match_their_sources(self):
        values = ["4713872198212", "9988055435104"]
        profiles = profile_strings(values, min_support=2)
        assert profiles
        for value in values:
            assert any(p.matches(value) for p in profiles)

    def test_cache_is_bounded_and_transparent(self, monkeypatch):
        assert profile_string.cache_info().maxsize is not None
        texts = ["4713872198212", "DOC-483921", "AB 12", "ab", "DOC-483921"]
        for exact in (True, False):
            for text in texts:
                assert profile_string(text, exact) == (
                    profile_string.__wrapped__(text, exact)
                )
        cached = profile_strings(texts, min_support=1)
        monkeypatch.setattr(
            profiler, "profile_string", profile_string.__wrapped__
        )
        assert profile_strings(texts, min_support=1) == cached


class TestPatternsForCluster:
    def test_includes_digit_stop_patterns(self):
        # Example 5.3: engine numbers and dates must be available as
        # Relative-motion stop patterns.
        common = ["Chassis number", "Engine number"] * 3 + [
            "4713872198212", "9988055435104", "12/04/2021", "03/11/2020",
        ]
        field = ["WDX 28298 2L", "KMS 62808 5K"]
        patterns = patterns_for_cluster(common, field)
        assert "[0-9]{13}" in patterns

    def test_field_profiles_present(self):
        patterns = patterns_for_cluster([], ["AB 12", "CD 34"])
        assert any("[A-Z]" in p for p in patterns)

    def test_max_patterns_respected(self):
        common = [f"label {i}" for i in range(40)] * 2
        patterns = patterns_for_cluster(common, ["x1"], max_patterns=5)
        assert len(patterns) <= 5


@given(st.text(alphabet=st.characters(codec="ascii"), min_size=1, max_size=20))
def test_property_profile_fullmatches_source(text):
    pattern = profile_string(text)
    assert Profile(pattern, 1).matches(text)


@given(st.text(alphabet=st.characters(codec="ascii"), min_size=1, max_size=20))
def test_property_generalized_profile_fullmatches_source(text):
    pattern = profile_string(text, exact_lengths=False)
    assert Profile(pattern, 1).matches(text)
