import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fslat.automata import (
    Alphabet,
    PatternError,
    complement,
    is_empty,
    language_equal,
)
from fslat.grammar import (
    GrammarCompileError,
    GrammarParseError,
    ImplicationRule,
    RejectRule,
    brute_force_accepts,
    compile_rule,
    expand_constants,
    grammar_text,
    parse_grammar,
)

SUBJECT_RULE = """
FinMainVerb    = VFIN @MV ;
FinAux         = VFIN @AUX ;
FinVerbChain   = FinMainVerb | FinAux ;
NonFinMainVerb = INF @MV | PCP1 @MV | PCP2 @MV ;
Subject        = @SUBJ ;
Subject => _ .. FinVerbChain ,
           FinAux .. _ .. NonFinMainVerb ... QUESTION ;
"""


@pytest.fixture(scope="module")
def abc():
    return Alphabet(["A", "B", "C", "X"])


def ids(alph, text):
    return [alph.id_of(t) for t in text.split()]


class TestParse:
    def test_subject_rule(self):
        grammar = parse_grammar(SUBJECT_RULE)
        assert len(grammar.rules) == 1
        rule = grammar.rules[0]
        assert rule.name == "Subject"
        assert len(rule.contexts) == 2
        assert set(grammar.constants) == {
            "FinMainVerb", "FinAux", "FinVerbChain", "NonFinMainVerb", "Subject",
        }

    def test_clause_boundary_rule(self):
        grammar = parse_grammar("@/ => VFIN .. _ .. VFIN ;")
        rule = grammar.rules[0]
        assert rule.name == "@/"
        assert len(rule.contexts) == 1

    def test_zero_contexts_is_error(self):
        with pytest.raises(GrammarParseError):
            parse_grammar("@/ => ;")

    def test_hole_required_per_context(self):
        with pytest.raises(GrammarParseError):
            parse_grammar("B => A C ;")
        with pytest.raises(GrammarParseError):
            parse_grammar("B => A _ C _ ;")

    def test_hole_not_in_target(self):
        with pytest.raises(GrammarParseError):
            parse_grammar("_ => A _ ;")

    def test_hole_not_nested(self):
        with pytest.raises(GrammarParseError):
            parse_grammar("B => ( A _ ) C ;")

    def test_syntax_error_reports_position(self):
        with pytest.raises(GrammarParseError) as err:
            parse_grammar("B => A _ C\nD =>")
        assert err.value.line is not None

    def test_reject_rule(self):
        grammar = parse_grammar("! X ... X ;")
        assert isinstance(grammar.rules[0], RejectRule)

    def test_duplicate_names_rejected(self):
        with pytest.raises(GrammarParseError):
            parse_grammar("A = X ;\nA = X X ;\nB => A _ ;")

    def test_class_definition(self):
        grammar = parse_grammar("CLB := @/ @< ;\nB => A _ ;")
        assert grammar.classes["CLB"] == ("@/", "@<")
        assert grammar.clb_texts == ("@/", "@<")

    def test_default_clb(self):
        grammar = parse_grammar("B => A _ ;")
        assert grammar.clb_texts == ("@/", "@<", "@>", "@@")


class TestExpandConstants:
    def test_inline_twice(self, abc):
        grammar = expand_constants(parse_grammar("K = A B ;\nX => K _ K ;"))
        rule = grammar.rules[0]
        compiled = compile_rule(rule, abc)
        assert compiled.automaton.accepts(ids(abc, "A B X A B"))
        assert not compiled.automaton.accepts(ids(abc, "A B X A"))

    def test_chain(self, abc):
        grammar = expand_constants(parse_grammar("P = Q ;\nQ = C ;\nB => P _ ;"))
        compiled = compile_rule(grammar.rules[0], abc)
        assert compiled.automaton.accepts(ids(abc, "C B"))
        assert not compiled.automaton.accepts(ids(abc, "A B"))

    def test_self_reference_cycle(self):
        with pytest.raises(GrammarCompileError) as err:
            expand_constants(parse_grammar("A = A X ;\nB => A _ ;"))
        assert "A" in str(err.value)

    def test_mutual_cycle(self):
        with pytest.raises(GrammarCompileError):
            expand_constants(parse_grammar("A = B ;\nB = A ;\nC => A _ ;"))


def compile_single(text, alphabet):
    grammar = expand_constants(parse_grammar(text))
    return grammar.rules[0], compile_rule(grammar.rules[0], alphabet, grammar.clb_texts)


class TestCompileRule:
    def test_b_requires_a_before_c_after(self, abc):
        rule, compiled = compile_single("B => A _ C ;", abc)
        accepts = compiled.automaton.accepts
        assert accepts(ids(abc, "A B C"))
        assert accepts(ids(abc, "A C"))
        assert accepts(ids(abc, "C C C"))
        assert not accepts(ids(abc, "A B"))
        assert not accepts(ids(abc, "B C"))
        assert not accepts(ids(abc, "A B C B"))
        # brute-force context check over all strings of length <= 4
        syms = sorted(abc.id_set() - {abc.id_of(t) for t in ("@@", "@", "@/", "@<", "@>")})
        for w in itertools.chain.from_iterable(
            itertools.product(syms, repeat=n) for n in range(5)
        ):
            assert accepts(w) == brute_force_accepts(rule, w, abc), w

    def test_clause_boundary_rule_semantics(self):
        alph = Alphabet(["VFIN", "N", "@SUBJ", "@MV"])
        rule, compiled = compile_single("@/ => VFIN .. _ .. VFIN ;", alph)
        accepts = compiled.automaton.accepts
        I = alph.id_of
        good = [I(x) for x in ("VFIN", "@/", "VFIN")]
        assert accepts(good)
        assert not accepts([I("N"), I("@/"), I("VFIN")])
        assert not accepts([I("VFIN"), I("@/"), I("N")])
        # the gap must not cross another boundary
        assert not accepts([I("VFIN"), I("@<"), I("@/"), I("VFIN")])
        assert accepts([I("VFIN"), I("N"), I("@/"), I("N"), I("VFIN")])

    def test_vacuous_contexts_accept_everything(self, abc):
        rule, compiled = compile_single("B => _ ... ;", abc)
        assert is_empty(complement(compiled.automaton, abc))

    def test_unknown_symbol_reports_location(self, abc):
        with pytest.raises(PatternError) as err:
            compile_single("K = A ;\nB => NOPE _ K ;", abc)
        assert "NOPE" in str(err.value)
        assert "line 2" in str(err.value)

    def test_empty_target_rejected(self, abc):
        with pytest.raises(GrammarCompileError):
            compile_single("A* => _ B ;", abc)

    def test_reject_rule_semantics(self, abc):
        rule, compiled = compile_single("! X ... X ;", abc)
        accepts = compiled.automaton.accepts
        assert accepts(ids(abc, "X"))
        assert accepts(ids(abc, "A B"))
        assert not accepts(ids(abc, "X X"))
        assert not accepts(ids(abc, "X A B X"))

    def test_monotone_in_contexts(self, abc):
        from fslat.automata import intersect

        one = compile_single("B => A _ C ;", abc)[1]
        two = compile_single("B => A _ C , X _ X ;", abc)[1]
        # L(one) must be a subset of L(two)
        assert is_empty(intersect(one.automaton, complement(two.automaton, abc)))

    def test_strings_without_target_always_accepted(self, abc):
        rule, compiled = compile_single("B => A _ C ;", abc)
        syms = [abc.id_of(t) for t in ("A", "C", "X")]
        for w in itertools.chain.from_iterable(
            itertools.product(syms, repeat=n) for n in range(4)
        ):
            assert compiled.automaton.accepts(w)


class TestBruteForce:
    def test_no_occurrence_accepts(self, abc):
        rule = expand_constants(parse_grammar("B => A _ C ;")).rules[0]
        assert brute_force_accepts(rule, ids(abc, "A C X"), abc)

    def test_single_factorization_rejects(self, abc):
        rule = expand_constants(parse_grammar("B => A _ C ;")).rules[0]
        assert not brute_force_accepts(rule, ids(abc, "A B"), abc)

    def test_bound(self, abc):
        rule = expand_constants(parse_grammar("B => A _ C ;")).rules[0]
        with pytest.raises(ValueError):
            brute_force_accepts(rule, [0] * 201, abc)


class TestPretty:
    def test_round_trip_structurally_identical(self):
        from fslat.grammar import normalize_grammar

        source = SUBJECT_RULE + "\nCLB := @/ @< @> @@ ;\n! X ... X ;\n@/ => VFIN .. _ .. VFIN ;\n"
        first = parse_grammar(source)
        second = parse_grammar(grammar_text(first))
        assert normalize_grammar(first) == normalize_grammar(second)
        assert grammar_text(first) == grammar_text(second)

    def test_demo_grammar_round_trips(self):
        from fslat import data
        from fslat.grammar import normalize_grammar

        first = parse_grammar(data.read("demo.fsg"))
        second = parse_grammar(grammar_text(first))
        assert normalize_grammar(first) == normalize_grammar(second)


# -- random rule generation shared with the acceptance suite -----------------


RULE_SYMBOLS = ["A", "B", "C", "D", "E", "F"]


def random_pattern(rng, depth=2):
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return rng.choice(RULE_SYMBOLS)
    if roll < 0.7:
        return f"( {random_pattern(rng, depth - 1)} | {random_pattern(rng, depth - 1)} )"
    if roll < 0.8:
        return f"[ {random_pattern(rng, depth - 1)} ]"
    if roll < 0.9:
        return f"{random_pattern(rng, 0)}*"
    return f"{random_pattern(rng, depth - 1)} {random_pattern(rng, depth - 1)}"


def random_context_side(rng):
    kind = rng.random()
    if kind < 0.3:
        return ""
    if kind < 0.45:
        return ".."
    if kind < 0.55:
        return "..."
    side = random_pattern(rng, 1)
    if rng.random() < 0.3:
        side = ".. " + side
    return side


def random_rule_text(rng):
    target = random_pattern(rng, 2)
    n_contexts = rng.randint(1, 3)
    contexts = ", ".join(
        f"{random_context_side(rng)} _ {random_context_side(rng)}"
        for _ in range(n_contexts)
    )
    return f"{target} => {contexts} ;"


def random_rule(rng):
    """A random small implication rule with a usable target."""
    while True:
        text = random_rule_text(rng)
        try:
            grammar = expand_constants(parse_grammar(text))
        except GrammarParseError:
            continue
        return grammar.rules[0], text


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.lists(st.integers(0, 5), max_size=10))
def test_property_oracle_agreement(seed, word):
    alph = Alphabet(RULE_SYMBOLS)
    rng = random.Random(seed)
    rule, text = random_rule(rng)
    try:
        compiled = compile_rule(rule, alph)
    except GrammarCompileError:
        return  # empty-string or empty-language targets are rejected
    symbols = [alph.id_of(RULE_SYMBOLS[i]) for i in word]
    assert compiled.automaton.accepts(symbols) == brute_force_accepts(
        rule, symbols, alph
    ), text
