import random

import pytest
from hypothesis import given, settings, strategies as st

from fslat import data
from fslat.automata import Dfa, trim
from fslat.engine import build_alphabet, decode_readings
from fslat.lattice import (
    MapError,
    MappedCohort,
    MappedReading,
    TagError,
    build_lattice,
    default_registry,
    map_syntax,
    parse_syntactic_map,
    reading_count,
)
from fslat.lexicon import Cohort, Lexicon, MorphReading, tokenize

from .util import closed_form_count, dump, nfa_lattice


def make_lexicon(*entries):
    from fslat.lexicon import Entry

    table = {}
    for key, readings in entries:
        table[key] = Entry(key, tuple(readings))
    return Lexicon(table)


def simple_map(registry, text):
    return parse_syntactic_map(text, registry)


MAP_TEXT = """
FULLSTOP -> @PUNCT
DET -> @>N
V VFIN -> @MV @AUX
N NOM -> @SUBJ @OBJ @SC @APP @P<< @>N
* -> @ADVL
"""


@pytest.fixture(scope="module")
def smap(registry):
    return simple_map(registry, MAP_TEXT)


def reading(base, markers, tags):
    return MorphReading(base, tuple(markers), tuple(tags))


class TestRegistry:
    def test_function_tags_start_with_at(self, registry):
        assert all(t.startswith("@") for t in registry.function_tags)

    def test_clause_tags_end_with_at(self, registry):
        for tag in registry.clause_tags:
            assert tag.endswith("@") and not tag.startswith("@")

    def test_inventory(self, registry):
        for tag in ("@SUBJ", "@F-SUBJ", "@P<<", "@>>P", "@ADVL/N<", "@A<",
                    "@>P", "@CC", "@CS", "@AUX", "@MV", "@subj", "@mv"):
            assert tag in registry.function_tags
        for tag in ("MAINC@", "SUBJ@", "OBJ@", "SC@", "N<@", "ADVL@",
                    "mainc@", "obj@"):
            assert tag in registry.clause_tags

    def test_case_pairs_cover_verbs_and_heads(self, registry):
        for upper in ("@MV", "@AUX", "@SUBJ", "@OBJ", "@SC", "@OC", "@P<<"):
            assert upper in registry.function_tags
            assert upper.lower() in registry.function_tags

    def test_boundary_tags(self, registry):
        assert registry.boundary_tags == ("@@", "@", "@/", "@<", "@>")

    def test_clause_pairing(self, registry):
        upper = registry.clause_tags_for("@MV")
        lower = registry.clause_tags_for("@mv")
        assert "MAINC@" in upper and "mainc@" not in upper
        assert "mainc@" in lower and "MAINC@" not in lower
        assert "N<@" in upper and "N<@" not in lower
        assert registry.clause_tags_for("@SUBJ") == ()


class TestSyntacticMap:
    def test_first_match_wins(self, registry, smap):
        det = reading("the", (), ("DET", "CENTRAL"))
        assert [t for t, _ in map_syntax(
            Cohort("the", (det,)), smap, registry
        ).readings[0].candidates] == ["@>N"]

    def test_default_applies(self, registry, smap):
        odd = reading("hm", (), ("INTERJ",))
        mapped = map_syntax(Cohort("hm", (odd,)), smap, registry)
        assert [t for t, _ in mapped.readings[0].candidates] == ["@ADVL"]

    def test_mv_expands_with_clause_tags(self, registry, smap):
        vfin = reading("see", ("<SVO>",), ("V", "PRES", "-SG3", "VFIN"))
        mapped = map_syntax(Cohort("see", (vfin,)), smap, registry)
        candidates = mapped.readings[0].candidates
        mv = [(f, c) for f, c in candidates if f == "@MV"]
        aux = [(f, c) for f, c in candidates if f == "@AUX"]
        assert len(mv) == len(registry.clause_tags_for("@MV"))
        assert all(c is not None for _, c in mv)
        assert aux == [("@AUX", None)]

    def test_noun_candidates_per_map(self, registry, smap):
        noun = reading("bird", (), ("N", "NOM", "SG"))
        mapped = map_syntax(Cohort("bird", (noun,)), smap, registry)
        tags = [t for t, _ in mapped.readings[0].candidates]
        assert tags == ["@SUBJ", "@OBJ", "@SC", "@APP", "@P<<", "@>N"]

    def test_map_errors(self, registry):
        with pytest.raises(MapError):
            parse_syntactic_map("N ->\n* -> @SUBJ", registry)
        with pytest.raises(MapError):
            parse_syntactic_map("N -> @NOTATAG\n* -> @SUBJ", registry)
        with pytest.raises(MapError):
            parse_syntactic_map("N -> @SUBJ", registry)  # no default
        with pytest.raises(MapError):
            parse_syntactic_map("* -> @SUBJ\nN -> @OBJ", registry)

    def test_every_reading_gets_a_candidate(self, registry, smap):
        for tags in (("N", "NOM", "SG"), ("XWEIRD",), ("V", "INF")):
            mapped = map_syntax(
                Cohort("w", (reading("w", (), tags),)), smap, registry
            )
            assert mapped.readings[0].candidates


class TestBuildLattice:
    def _mapped(self, registry, smap, *cohorts):
        return [map_syntax(c, smap, registry) for c in cohorts]

    def _lattice(self, registry, smap, cohorts):
        mapped = self._mapped(registry, smap, *cohorts)
        lexicon = make_lexicon(
            *[(c.surface.lower(), [m.reading for m in c.readings]) for c in mapped]
        )
        alphabet = build_alphabet(lexicon, smap, None, registry)
        return build_lattice(mapped, registry, alphabet)

    def test_single_unambiguous_token(self, registry, smap):
        cohort = Cohort("the", (reading("the", (), ("DET", "SG")),))
        lattice = self._lattice(registry, smap, [cohort])
        assert reading_count(lattice) == 1

    def test_two_tokens_two_by_three(self, registry, smap):
        # 2 combinations x 4 boundaries x 3 combinations = 24
        c1 = Cohort("w1", (
            reading("w1", (), ("DET", "SG")),
            reading("w1", (), ("XWEIRD",)),
        ))
        c2 = Cohort("w2", (
            reading("w2", (), ("N", "NOM", "SG")),
        ))
        map_text = "DET -> @>N\nXWEIRD -> @ADVL\nN NOM -> @SUBJ @OBJ @SC\n* -> @ADVL\n"
        smap2 = parse_syntactic_map(map_text, registry)
        lattice = self._lattice(registry, smap2, [c1, c2])
        assert reading_count(lattice) == 2 * 4 * 3
        assert closed_form_count(lattice) == 24

    def test_three_token_unambiguous_is_sixteen(self, registry):
        map_text = "DET -> @>N\n* -> @ADVL\n"
        smap2 = parse_syntactic_map(map_text, registry)
        cohorts = [
            Cohort(w, (reading(w, (), ("DET", "SG")),)) for w in ("a", "b", "c")
        ]
        lattice = self._lattice(registry, smap2, cohorts)
        assert reading_count(lattice) == 16

    def test_empty_cohort_list_rejected(self, registry, smap):
        with pytest.raises(ValueError):
            self._lattice(registry, smap, [])

    def test_accepted_shape_decodes(self, registry, smap):
        cohorts = [
            Cohort("the", (reading("the", (), ("DET", "SG")),)),
            Cohort("bird", (
                reading("bird", (), ("N", "NOM", "SG")),
                reading("bird", ("<SVO>",), ("V", "PRES", "VFIN")),
            )),
        ]
        lattice = self._lattice(registry, smap, cohorts)
        analyses = decode_readings(lattice, 10_000)
        assert len(analyses) == reading_count(lattice)
        for analysis in analyses:
            assert len(analysis.tokens) == 2
            for token in analysis.tokens:
                assert token.function_tag in registry.function_tags
                mv = token.function_tag in registry.mv_tags
                assert (token.clause_tag is not None) == mv

    def test_no_unregistered_function_tags(self, registry, smap):
        cohorts = [Cohort("the", (reading("the", (), ("DET", "SG")),))]
        lattice = self._lattice(registry, smap, cohorts)
        alphabet = lattice.automaton.alphabet
        registered = set(registry.function_tags)
        for analysis in decode_readings(lattice, 100):
            for token in analysis.tokens:
                assert token.function_tag in registered

    def test_morph_tag_colliding_with_function_tag_rejected(self, registry):
        smap2 = parse_syntactic_map("* -> @ADVL\n", registry)
        bad = Cohort("x", (reading("x", (), ("@SUBJ",)),))
        mapped = [map_syntax(bad, smap2, registry)]
        lexicon = make_lexicon(("x", [bad.readings[0]]))
        alphabet = build_alphabet(lexicon, smap2, None, registry)
        with pytest.raises(TagError):
            build_lattice(mapped, registry, alphabet)

    @pytest.mark.parametrize("candidates", [
        (("@MV", "MAINC@"), ("@MV", None)),
        (("@MV", None), ("@MV", "MAINC@")),
    ])
    def test_function_tag_with_and_without_clause_tag_rejected(
        self, registry, smap, candidates
    ):
        # a trie cannot tell the two apart after @MV; `map_syntax` never
        # makes this, but `build_lattice` takes hand-built cohorts too
        vfin = reading("see", (), ("V", "PRES", "VFIN"))
        lexicon = make_lexicon(("see", [vfin]))
        alphabet = build_alphabet(lexicon, smap, None, registry)
        cohort = MappedCohort("see", tuple(
            MappedReading(vfin, (candidate,)) for candidate in candidates
        ))
        with pytest.raises(TagError, match="with and without a clause-function tag"):
            build_lattice([cohort], registry, alphabet)

    def test_bundled_sentences_match_the_nfa_oracle(self, demo_pipeline):
        sentences = [tokenize(line) for line in data.read("sample_sentences.txt").splitlines()]
        stress = tokenize(data.read("stress39.txt"))
        for tokens in sentences + [stress, stress * 2]:
            cohorts = demo_pipeline.cohorts_for(tokens)
            got = demo_pipeline.lattice_for(tokens).automaton
            want = nfa_lattice(cohorts, demo_pipeline.registry, demo_pipeline.alphabet)
            assert dump(got) == dump(want), tokens
            assert (got.transitions, got.finals) == (want.transitions, want.finals)

    def test_marked_trim_when_every_cohort_has_a_reading(self, demo_pipeline):
        sentences = [tokenize(line) for line in data.read("sample_sentences.txt").splitlines()]
        for tokens in sentences + [tokenize(data.read("stress39.txt"))]:
            got = demo_pipeline.lattice_for(tokens).automaton
            assert got._trimmed, tokens
            again = trim(Dfa(got.alphabet, got.transitions, got.finals))  # an unmarked copy
            assert (again.transitions, again.finals) == (got.transitions, got.finals)
        # a cohort with no reading leaves its word state with no edge
        (bird,) = demo_pipeline.cohorts_for(tokenize("bird"))
        for cohorts in ([MappedCohort("bird", ())], [bird, MappedCohort("bird", ())]):
            lattice = build_lattice(cohorts, demo_pipeline.registry, demo_pipeline.alphabet)
            assert not lattice.automaton._trimmed
            assert reading_count(lattice) == 0

    def test_deterministic_construction(self, registry, smap):
        cohorts = [
            Cohort("the", (reading("the", (), ("DET", "SG")),)),
            Cohort("bird", (
                reading("bird", (), ("N", "NOM", "SG")),
                reading("bird", ("<SVO>",), ("V", "PRES", "VFIN")),
            )),
        ]
        a = self._lattice(registry, smap, cohorts)
        b = self._lattice(registry, smap, cohorts)
        assert dump(a.automaton) == dump(b.automaton)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_closed_form_count(data_):
    """Fresh straight-line lattices count exactly the product formula, for
    random cohort configurations with distinct readings."""
    registry = default_registry()
    map_text = "DET -> @>N\nA ABS -> @SC @OC\nN NOM -> @SUBJ @OBJ @SC\nV VFIN -> @MV\n* -> @ADVL\n"
    smap = parse_syntactic_map(map_text, registry)
    shapes = [
        ("DET", "SG"), ("A", "ABS"), ("N", "NOM", "SG"),
        ("V", "PRES", "VFIN"), ("ADV",),
    ]
    n_tokens = data_.draw(st.integers(1, 6))
    cohorts = []
    for t in range(n_tokens):
        n_readings = data_.draw(st.integers(1, 4))
        picks = data_.draw(
            st.lists(
                st.sampled_from(shapes),
                min_size=n_readings,
                max_size=n_readings,
                unique_by=lambda s: s[0],
            )
        )
        readings = tuple(reading(f"w{t}", (), tags) for tags in picks)
        cohorts.append(Cohort(f"w{t}", readings))
    mapped = [map_syntax(c, smap, registry) for c in cohorts]
    lexicon = make_lexicon(
        *[(c.surface.lower(), [m.reading for m in c.readings]) for c in mapped]
    )
    alphabet = build_alphabet(lexicon, smap, None, registry)
    lattice = build_lattice(mapped, registry, alphabet)
    assert reading_count(lattice) == closed_form_count(lattice)


_ORACLE_MAP = (
    "DET -> @>N\nA ABS -> @SC @OC\nN NOM -> @SUBJ @OBJ @SC\n"
    "V VFIN -> @MV @AUX\nV INF -> @mv @OBJ\n* -> @ADVL\n"
)

#: Readings that share prefixes (N NOM ..., V PRES ...), readings with no
#: morphology at all, and main verbs (VFIN, INF) that pair with several
#: clause-function tags.
_ORACLE_SHAPES = (
    ((), ("N", "NOM", "SG")), ((), ("N", "NOM", "PL")), ((), ("N", "GEN")),
    ((), ("V", "PRES", "VFIN")), (("<SVO>",), ("V", "PRES", "VFIN")),
    ((), ("V", "PRES", "-SG3")), (("<SVO>",), ("V", "INF")), ((), ("V", "INF")),
    ((), ("DET", "SG")), ((), ("A", "ABS")), ((), ()),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_lattice_matches_the_nfa_oracle(data_):
    """`build_lattice` gives the automaton that subset construction gives
    over one NFA path per reading and candidate, state for state."""
    registry = default_registry()
    smap = parse_syntactic_map(_ORACLE_MAP, registry)
    every_shape = [reading("any", markers, tags) for markers, tags in _ORACLE_SHAPES]
    # the lexicon holds every symbol, but only the words "w0", "w1"
    lexicon = make_lexicon(("w0", every_shape), ("w1", every_shape[:2]))
    alphabet = build_alphabet(lexicon, smap, None, registry)
    cohorts = []
    for _ in range(data_.draw(st.integers(1, 4))):
        surface = data_.draw(st.sampled_from(("w0", "W1", "unknown")))
        # drawn with repeats: distinct base forms may print identically
        readings = data_.draw(st.lists(
            st.builds(
                lambda base, shape: reading(base, *shape),
                st.sampled_from(("a", "b")),
                st.sampled_from(_ORACLE_SHAPES),
            ),
            max_size=5,
        ))
        cohorts.append(map_syntax(Cohort(surface, tuple(readings)), smap, registry))
    got = build_lattice(cohorts, registry, alphabet).automaton
    want = nfa_lattice(cohorts, registry, alphabet)
    assert dump(got) == dump(want)
    assert (got.transitions, got.finals) == (want.transitions, want.finals)
    # marked trim iff trim: a cohort with no reading leaves a dead state
    assert got._trimmed == all(cohort.readings for cohort in cohorts)
    again = trim(Dfa(got.alphabet, got.transitions, got.finals))  # an unmarked copy
    assert got._trimmed == ((again.transitions, again.finals) == (got.transitions, got.finals))
