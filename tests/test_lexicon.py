import pytest

from fslat import data
from fslat.lexicon import (
    Cohort,
    DuplicateReadingWarning,
    Lexicon,
    LexiconError,
    MorphReading,
    UnknownWordError,
    lookup,
    parse_lexicon,
    serialize_lexicon,
    split_sentences,
    surface_key,
    tokenize,
)


@pytest.fixture(scope="module")
def listing_text():
    return data.read("listing.lex")


@pytest.fixture(scope="module")
def listing(listing_text):
    return parse_lexicon(listing_text)


class TestParseLexicon:
    def test_entry_and_reading_counts(self, listing):
        assert len(listing.entries) == 5
        assert len(listing.entries["bird"].readings) == 5
        assert len(listing.entries["a"].readings) == 1
        assert len(listing.entries["i"].readings) == 2
        total = sum(len(e.readings) for e in listing.entries.values())
        assert total == 13

    def test_punctuation_entry_synthesized(self, listing):
        entry = listing.entries["."]
        assert entry.synthesized
        assert entry.readings == (MorphReading(".", (), ("FULLSTOP",)),)

    def test_reading_fields(self, listing):
        see = listing.entries["see"].readings[3]
        assert see == MorphReading("see", ("<SVO>",), ("V", "PRES", "-SG3", "VFIN"))

    def test_capitalization_flag_normalized(self, listing):
        assert "i" in listing.entries
        assert listing.entries["i"].headword == "*i"
        assert all("<*>" in r.markers for r in listing.entries["i"].readings)

    def test_duplicate_readings_collapse_with_warning(self):
        text = '("<x>"\n  ("x" N NOM SG)\n  ("x" N NOM SG))\n'
        with pytest.warns(DuplicateReadingWarning):
            lex = parse_lexicon(text)
        assert len(lex.entries["x"].readings) == 1

    def test_empty_file_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon("")
        with pytest.raises(LexiconError):
            parse_lexicon("# only a comment\n")

    def test_unbalanced_parens_report_line(self):
        with pytest.raises(LexiconError) as err:
            parse_lexicon('("<a>"\n  ("a" DET)\n')
        assert err.value.line is not None

    def test_missing_quotes(self):
        with pytest.raises(LexiconError):
            parse_lexicon("(<a> (a DET))")

    def test_comments_allowed(self):
        lex = parse_lexicon('# comment\n("<a>"\n  ("a" DET SG))\n')
        assert "a" in lex.entries


class TestRoundTrip:
    def test_listing_round_trips_byte_exactly(self, listing_text):
        assert serialize_lexicon(parse_lexicon(listing_text)) == listing_text

    def test_demo_lexicon_round_trips_up_to_comments(self):
        text = data.read("demo.lex")
        stripped = "".join(
            line for line in text.splitlines(keepends=True)
            if not line.lstrip().startswith("#")
        )
        assert serialize_lexicon(parse_lexicon(text)) == stripped


class TestSurfaceKey:
    def test_flags_normalized(self):
        assert surface_key("*i") == "i"
        assert surface_key("$.") == "."
        assert surface_key("see") == "see"


class TestTokenize:
    def test_simple_sentence(self):
        assert tokenize("I see a bird.") == ["I", "see", "a", "bird", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_question(self):
        assert tokenize("What are you talking about?") == [
            "What", "are", "you", "talking", "about", "?",
        ]

    def test_case_preserved(self):
        assert tokenize("Henry dislikes") == ["Henry", "dislikes"]

    def test_stacked_punctuation(self):
        assert tokenize("wait,;") == ["wait", ",", ";"]

    def test_split_sentences(self):
        tokens = tokenize("I see a bird. What are you talking about? done")
        assert list(split_sentences(tokens)) == [
            ["I", "see", "a", "bird", "."],
            ["What", "are", "you", "talking", "about", "?"],
            ["done"],
        ]


class TestLookup:
    def test_see_has_four_readings(self, listing):
        cohort = lookup(listing, "see")
        assert len(cohort.readings) == 4
        assert cohort.surface == "see"

    def test_a_single_reading(self, listing):
        cohort = lookup(listing, "a")
        assert [r.tags for r in cohort.readings] == [
            ("DET", "CENTRAL", "ART", "SG")
        ]

    def test_lowercase_fallback(self, listing):
        assert len(lookup(listing, "I").readings) == 2
        assert lookup(listing, "I").surface == "I"

    def test_unknown_open_class_guess(self, listing):
        cohort = lookup(listing, "zzz")
        assert len(cohort.readings) == 4
        assert cohort.readings[0].tags == ("N", "NOM", "SG")

    def test_unknown_closed_policy_errors(self, listing):
        closed = Lexicon(listing.entries, policy="closed")
        with pytest.raises(UnknownWordError) as err:
            lookup(closed, "zzz")
        assert "zzz" in str(err.value)

    def test_never_empty(self, listing):
        for token in ("see", "I", "unknownword"):
            assert lookup(listing, token).readings
