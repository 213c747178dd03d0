import random
import sys
import time
from dataclasses import replace

import pytest

from fslat.automata import enumerate_strings, is_empty, language_equal
from fslat.engine import (
    Pipeline,
    RuleAlphabetError,
    apply_grammar,
    build_alphabet,
    decode_readings,
    diagnose_empty,
)
from fslat.grammar import (
    brute_force_accepts,
    compile_grammar,
    expand_constants,
    parse_grammar,
)
from fslat.lattice import (
    TagError,
    build_lattice,
    default_registry,
    map_syntax,
    parse_syntactic_map,
    reading_count,
)
from fslat.lexicon import Cohort, Entry, Lexicon, MorphReading, tokenize


def tiny_pipeline(grammar_text=None):
    """A small pipeline over the sample-listing words with a reduced map,
    small enough to enumerate every reading."""
    from fslat import data
    from fslat.lexicon import parse_lexicon

    registry = default_registry()
    lexicon = parse_lexicon(data.read("listing.lex"))
    smap = parse_syntactic_map(
        "FULLSTOP -> @PUNCT\n"
        "PRON -> @SUBJ\n"
        "ABBR -> @APP\n"
        "DET -> @>N\n"
        "V VFIN -> @MV\n"
        "V INF -> @mv\n"
        "N NOM -> @SUBJ @OBJ\n"
        "* -> @ADVL\n",
        registry,
    )
    grammar = parse_grammar(grammar_text) if grammar_text else None
    return Pipeline.build(lexicon, smap, grammar, registry)


TINY_GRAMMAR = """
@/ => VFIN .. _ .. VFIN ;
@< => _ .. @> ;
@> => @< .. _ ;
@MV => @SUBJ .. VFIN _ ;
@OBJ => @MV .. _ ;
! MAINC@ ... MAINC@ ;
"""


class TestApplyGrammar:
    def test_zero_rules_is_identity(self):
        pipe = tiny_pipeline()
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        survived, trace = apply_grammar(lattice, ())
        assert trace.steps == ()
        assert trace.final == reading_count(lattice)
        assert language_equal(survived.automaton, lattice.automaton)

    def test_sigma_star_rule_changes_nothing(self):
        pipe = tiny_pipeline("@/ => _ ... ;")
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        survived, trace = apply_grammar(lattice, pipe.rules)
        assert trace.steps[0].before == trace.steps[0].after

    def test_counts_monotone(self):
        pipe = tiny_pipeline(TINY_GRAMMAR)
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        _, trace = apply_grammar(lattice, pipe.rules)
        for step in trace.steps:
            assert step.after <= step.before
        assert trace.final == trace.steps[-1].after

    def test_alphabet_mismatch_names_rule(self):
        pipe = tiny_pipeline(TINY_GRAMMAR)
        other = tiny_pipeline(TINY_GRAMMAR)
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        with pytest.raises(RuleAlphabetError) as err:
            apply_grammar(lattice, other.rules)
        assert "@/" in str(err.value)

    def test_surviving_set_matches_brute_force(self):
        pipe = tiny_pipeline(TINY_GRAMMAR)
        expanded = expand_constants(parse_grammar(TINY_GRAMMAR))
        lattice = pipe.lattice_for(tokenize("a bird."))
        total = reading_count(lattice)
        assert total <= 10_000
        everything = enumerate_strings(lattice.automaton, total + 1)
        expect = {
            w
            for w in everything
            if all(
                brute_force_accepts(rule, w, pipe.alphabet, expanded.clb_texts)
                for rule in expanded.rules
            )
        }
        survived, trace = apply_grammar(lattice, pipe.rules)
        got = set(enumerate_strings(survived.automaton, total + 1))
        assert got == expect
        assert trace.final == len(expect)

    def test_order_independence_on_fixture(self):
        pipe = tiny_pipeline(TINY_GRAMMAR)
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        fwd, _ = apply_grammar(lattice, pipe.rules)
        rev, _ = apply_grammar(lattice, tuple(reversed(pipe.rules)))
        assert language_equal(fwd.automaton, rev.automaton)


class TestParseSentence:
    def test_demo_single_survivor_matches_sample_analysis(self, demo_pipeline):
        result = demo_pipeline.parse_sentence(tokenize("I see a bird."))
        assert result.status == "ok"
        assert len(result.readings) == 1
        tokens = result.readings[0].tokens
        assert [(t.surface, t.function_tag, t.clause_tag, t.boundary) for t in tokens] == [
            ("I", "@SUBJ", None, "@"),
            ("see", "@MV", "MAINC@", "@"),
            ("a", "@>N", None, "@"),
            ("bird", "@OBJ", None, "@"),
            (".", "@PUNCT", None, "@@"),
        ]

    def test_unambiguous_token_empty_grammar(self):
        pipe = tiny_pipeline()
        result = pipe.parse_sentence(["a"])
        assert result.status == "ok"
        assert len(result.readings) == 1

    def test_contradictory_grammar_reports_empty(self):
        pipe = tiny_pipeline("! ... ;\n")
        result = pipe.parse_sentence(tokenize("I see a bird."))
        assert result.status == "empty"
        assert result.readings == ()
        assert result.diagnosis

    def test_lookup_errors_propagate(self, demo_pipeline):
        from fslat.lexicon import UnknownWordError

        closed = Lexicon(demo_pipeline.lexicon.entries, policy="closed")
        pipe = Pipeline(
            closed,
            demo_pipeline.smap,
            demo_pipeline.grammar,
            demo_pipeline.registry,
            demo_pipeline.alphabet,
            demo_pipeline.rules,
        )
        with pytest.raises(UnknownWordError):
            pipe.parse_sentence(["xenolith"])

    def test_unseen_tag_raises_and_keeps_alphabet_closed(self):
        # the rule was complemented over the closed alphabet: a symbol
        # interned after it would slip past its complement and drop readings
        pipe = tiny_pipeline("! @OBJ @OBJ ;")
        cohorts = list(pipe.cohorts_for(tokenize("I see a bird.")))
        first = cohorts[0].readings[0]
        odd = replace(first, reading=replace(first.reading, tags=first.reading.tags + ("NEWTAG",)))
        cohorts[0] = replace(cohorts[0], readings=(odd,) + cohorts[0].readings[1:])
        size = len(pipe.alphabet)
        with pytest.raises(TagError, match="NEWTAG"):
            build_lattice(cohorts, pipe.registry, pipe.alphabet)
        assert len(pipe.alphabet) == size


class TestDiagnoseEmpty:
    def test_kill_all_rule_named(self):
        pipe = tiny_pipeline("@MV => @SUBJ .. VFIN _ ;\n! ... ;\n")
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        names = diagnose_empty(lattice, pipe.rules)
        assert names == ("! ...",)

    def test_jointly_contradictory_pair(self):
        # each rule alone is satisfiable; together they outlaw every
        # boundary symbol, so both are reported by leave-one-out
        pipe = tiny_pipeline("! @ ;\n! ( @/ | @< | @> ) ;\n")
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        names = diagnose_empty(lattice, pipe.rules)
        assert set(names) == {"! @", "! ( @/ | @< | @> )"}

    def test_prefix_report_when_no_single_culprit(self):
        # duplicated contradictory rules: removing any one still leaves the
        # intersection empty, so the shortest failing prefix is reported
        pipe = tiny_pipeline(
            "! @ ;\n! @ ;\n! ( @/ | @< | @> ) ;\n! ( @/ | @< | @> ) ;\n"
        )
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        names = diagnose_empty(lattice, pipe.rules)
        assert names == ("! @", "! @#2", "! ( @/ | @< | @> )")

    def test_empty_input_lattice(self):
        pipe = tiny_pipeline("! ... ;\n")
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        emptied, _ = apply_grammar(lattice, pipe.rules)
        assert diagnose_empty(emptied, pipe.rules) == ()

    def test_precondition_error_when_nonempty(self):
        pipe = tiny_pipeline(TINY_GRAMMAR)
        lattice = pipe.lattice_for(tokenize("I see a bird."))
        with pytest.raises(ValueError):
            diagnose_empty(lattice, pipe.rules)


class TestDecodeReadings:
    def test_single_path(self):
        pipe = tiny_pipeline()
        lattice = pipe.lattice_for(["a"])
        analyses = decode_readings(lattice, 10)
        assert len(analyses) == 1
        token = analyses[0].tokens[0]
        assert token.surface == "a"
        assert token.morph == ("<Indef>", "DET", "CENTRAL", "ART", "SG")
        assert token.function_tag == "@>N"
        assert token.boundary == "@@"

    def test_limit_zero(self):
        pipe = tiny_pipeline()
        lattice = pipe.lattice_for(["a"])
        assert decode_readings(lattice, 0) == ()

    def test_sentence_longer_than_recursion_limit(self, bare_pipeline):
        from fslat import data

        tokens = tokenize(data.read("stress39.txt")) * 12
        assert len(tokens) >= 500
        lattice = bare_pipeline.lattice_for(tokens)
        paths = enumerate_strings(lattice.automaton, 4)
        assert len(paths) == 4
        assert len(paths[0]) > sys.getrecursionlimit()
        assert paths == sorted(paths, key=lambda p: (len(p), p))
        assert all(lattice.automaton.accepts(p) for p in paths)
        result = bare_pipeline.parse_sentence(tokens, limit=4)
        assert result.status == "ok"
        assert [len(r.tokens) for r in result.readings] == [len(tokens)] * 4

    def test_sample_analysis_golden(self, demo_pipeline):
        result = demo_pipeline.parse_sentence(
            tokenize("Henry dislikes her leaving so early.")
        )
        assert len(result.readings) == 1
        got = [
            (t.surface, " ".join(t.morph), t.function_tag, t.clause_tag or "", t.boundary)
            for t in result.readings[0].tokens
        ]
        assert got == [
            ("Henry", "<*> <Proper> N NOM SG", "@SUBJ", "", "@"),
            ("dislikes", "<SVO> V PRES SG3 VFIN", "@MV", "MAINC@", "@"),
            ("her", "PRON PERS FEM ACC SG3", "@subj", "", "@"),
            ("leaving", "<SVO> V PCP1", "@mv", "OBJ@", "@"),
            ("so", "<IntensAdv> ADV", "@>A", "", "@"),
            ("early", "ADV", "@ADVL", "", "@"),
            (".", "FULLSTOP", "@PUNCT", "", "@@"),
        ]


class TestTiming:
    def test_time_tracks_structure_not_count(self, demo_pipeline):
        """Wall time for the long fixture stays within a factor that is
        dwarfed by the reading-count ratio."""
        from fslat import data

        small = tokenize("I see a bird.")
        big = tokenize(data.read("stress39.txt").strip())
        lat_small = demo_pipeline.lattice_for(small)
        lat_big = demo_pipeline.lattice_for(big)
        count_ratio = reading_count(lat_big) // max(1, reading_count(lat_small))
        assert count_ratio > 10**20

        t0 = time.perf_counter()
        apply_grammar(lat_small, demo_pipeline.rules)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        apply_grammar(lat_big, demo_pipeline.rules)
        t_big = time.perf_counter() - t0
        assert t_big / max(t_small, 1e-9) < 100
