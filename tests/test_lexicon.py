import pytest
from hypothesis import given, settings, strategies as st

from fslat import data
from fslat.lexicon import (
    Cohort,
    DuplicateReadingWarning,
    Entry,
    Lexicon,
    LexiconError,
    MorphReading,
    PUNCT_CATEGORIES,
    PUNCT_TAGS,
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
        with pytest.warns(DuplicateReadingWarning) as record:
            lex = parse_lexicon(text)
        assert len(lex.entries["x"].readings) == 1
        assert record[0].filename == __file__  # reported at the caller

    def test_empty_file_rejected(self):
        for text, line in (("", 1), ("# only a comment\n", 2)):
            with pytest.raises(LexiconError) as err:
                parse_lexicon(text)
            assert (str(err.value), err.value.line) == (f"empty lexicon file (line {line})", line)

    def test_unbalanced_parens_report_line(self):
        with pytest.raises(LexiconError) as err:
            parse_lexicon('("<a>"\n  ("a" DET)\n')
        assert (str(err.value), err.value.line) == ("expected ')', found '' (line 3)", 3)

    def test_missing_quotes(self):
        with pytest.raises(LexiconError) as err:
            parse_lexicon("(<a> (a DET))")
        assert (str(err.value), err.value.line) == ("expected '\"', found '<' (line 1)", 1)

    def test_comments_allowed(self):
        lex = parse_lexicon('# comment\n("<a>"\n  ("a" DET SG))\n')
        assert "a" in lex.entries

    def test_entries_pinned(self):
        text = (
            '# head\r\n("<*i>"\t# c\r\n  ("i" <*> PRON PERS NOM SG1)\r\n'
            '# between readings\r\n  ("i" <x y> D#1 N>V))\r\n'
            '# between entries\n("<$.>")\n("<a>" ("a" DET))\n("<$,>"\n)\n'
        )
        assert parse_lexicon(text).entries == {
            "i": Entry("*i", (
                MorphReading("i", ("<*>",), ("PRON", "PERS", "NOM", "SG1")),
                MorphReading("i", ("<x y>",), ("D#1", "N>V")),
            )),
            ".": Entry("$.", (MorphReading(".", (), ("FULLSTOP",)),), synthesized=True),
            "a": Entry("a", (MorphReading("a", (), ("DET",)),)),
            ",": Entry("$,", (MorphReading(",", (), ("COMMA",)),), synthesized=True),
        }

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("(", "expected '\"', found ''", 1),
            ('("<a>', "missing closing quote", 1),
            ('("<a\n>")', "missing closing quote", 1),
            ('("a")', "headword 'a' must be written inside angle brackets", 1),
            ('("<>")', "empty headword", 1),
            ('("<a>"\n  ("a" <X', "missing closing '>' in marker", 2),
            ('("<a>"\n  ("a" <X\n> N))', "missing closing '>' in marker", 2),
            ('("<a>"\n  ("a" N\n <X>))', "markers must precede tags in a reading", 3),
            ('("<a>"\n  ("a" N "b"))', "malformed reading", 2),
            ('("<a>"\n  ("a" N\n (b)))', "malformed reading", 3),
            ('("<a>"\n\n  ("a"\n  <X>))', "reading for 'a' has no tags", 3),
            ('("<a>"\n  ("a" DET\n', "expected ')', found ''", 3),
            ('("<a>"\n  ("a" DET)\n  NOM)', "expected ')', found 'N'", 3),
        ],
        ids=[
            "lone-paren", "open-quote", "newline-in-quote",
            "no-brackets", "empty-headword", "open-marker", "newline-in-marker",
            "marker-after-tag", "quote-in-reading", "paren-in-reading", "no-tags",
            "eof-in-reading", "stray-tag",
        ],
    )
    def test_malformed_lexicon_pinned(self, text, message, line):
        with pytest.raises(LexiconError) as err:
            parse_lexicon(text)
        assert (str(err.value), err.value.line) == (f"{message} (line {line})", line)

    @pytest.mark.parametrize(
        "text, key",
        [('("<*i>" ("i" <*> PRON))\n("<i>" ("i" N))', "i"), ('("<$.>")\n("<.>")', ".")],
        ids=["capitalized", "punctuation"],
    )
    def test_duplicate_key_rejected(self, text, key):
        with pytest.raises(LexiconError) as err:
            parse_lexicon(text)
        assert (str(err.value), err.value.line) == (f"duplicate entry for {key!r} (line 2)", 2)


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


_HEADWORD = st.builds(
    str.__add__,
    st.sampled_from(["", "*", "$", "*$"]),
    st.text(alphabet="ai.,<> #(", min_size=1, max_size=3),
)
_TAG = st.builds(
    str.__add__, st.sampled_from("NV>@-"), st.text(alphabet="NV#>1", max_size=3)
)
_READING = st.builds(
    MorphReading,
    st.text(alphabet="ai <>#()", max_size=3),
    st.lists(st.text(alphabet='ai *#("<', max_size=3).map("<{}>".format), max_size=2)
    .map(tuple),
    st.lists(_TAG, min_size=1, max_size=3).map(tuple),
)


@st.composite
def _lexicons(draw):
    entries = {}
    for headword in draw(st.lists(_HEADWORD, min_size=1, max_size=5, unique_by=surface_key)):
        key = surface_key(headword)
        readings = draw(st.lists(_READING, max_size=3, unique=True))
        if readings:
            entries[key] = Entry(headword, tuple(readings))
        else:
            tag = PUNCT_CATEGORIES.get(key, PUNCT_TAGS[-1])
            entries[key] = Entry(headword, (MorphReading(key, (), (tag,)),), True)
    return Lexicon(entries)


@settings(max_examples=200, deadline=None)
@given(_lexicons())
def test_property_serialized_lexicon_parses_back(lexicon):
    text = serialize_lexicon(lexicon)
    parsed = parse_lexicon(text)
    assert parsed.entries == lexicon.entries
    assert serialize_lexicon(parsed) == text


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
