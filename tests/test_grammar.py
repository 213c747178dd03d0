import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fslat import automata as automata_module, grammar as grammar_module
from fslat.automata import (
    Alphabet,
    PatternError,
    Syms,
    complement,
    is_empty,
)
from fslat.engine import Pipeline, build_alphabet
from fslat.grammar import (
    MAX_NESTING,
    GrammarCompileError,
    GrammarParseError,
    ImplicationRule,
    RejectRule,
    brute_force_accepts,
    compile_grammar,
    compile_rule,
    expand_constants,
    parse_grammar,
    resolve_rule,
    rule_blocks,
)

from .util import dump, exhaustive_strings, language_equal, marker_compile

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
        clb = Alphabet([], grammar.classes).classes["CLB"]
        assert clb == frozenset(map(Alphabet().id_of, ("@/", "@<")))

    def test_default_clb(self):
        grammar = parse_grammar("B => A _ ;")
        clb = Alphabet([], grammar.classes).classes["CLB"]
        assert clb == frozenset(map(Alphabet().id_of, ("@/", "@<", "@>", "@@")))


LEX_SOURCE = (
    "# pinned\r\nK := <a b> @P<< N<@ ;\r\n\tX = ( A | B )* [ C ] ;  # tail\r\n"
    "! X ... Y .. Z ;\r\nT => _ K , L _ ;"
)

LEX_TOKENS = [
    ("NAME", "K", 2, 1, 10),
    ("CLASSDEF", ":=", 2, 3, 12),
    ("NAME", "<a b>", 2, 6, 15),
    ("NAME", "@P<<", 2, 12, 21),
    ("NAME", "N<@", 2, 17, 26),
    ("SEMI", ";", 2, 21, 30),
    ("NAME", "X", 3, 2, 34),
    ("EQUALS", "=", 3, 4, 36),
    ("LPAR", "(", 3, 6, 38),
    ("NAME", "A", 3, 8, 40),
    ("PIPE", "|", 3, 10, 42),
    ("NAME", "B", 3, 12, 44),
    ("RPAR", ")", 3, 14, 46),
    ("STAR", "*", 3, 15, 47),
    ("LBRK", "[", 3, 17, 49),
    ("NAME", "C", 3, 19, 51),
    ("RBRK", "]", 3, 21, 53),
    ("SEMI", ";", 3, 23, 55),
    ("BANG", "!", 4, 1, 66),
    ("NAME", "X", 4, 3, 68),
    ("ANYGAP", "...", 4, 5, 70),
    ("NAME", "Y", 4, 9, 74),
    ("GAP", "..", 4, 11, 76),
    ("NAME", "Z", 4, 14, 79),
    ("SEMI", ";", 4, 16, 81),
    ("NAME", "T", 5, 1, 84),
    ("ARROW", "=>", 5, 3, 86),
    ("HOLE", "_", 5, 6, 89),
    ("NAME", "K", 5, 8, 91),
    ("COMMA", ",", 5, 10, 93),
    ("NAME", "L", 5, 12, 95),
    ("HOLE", "_", 5, 14, 97),
    ("SEMI", ";", 5, 16, 99),
    ("EOF", "", 5, 17, 100),
]

NEEDS_ONE_HOLE = "each rule context needs exactly one '_'"
DEEP = "( " * (MAX_NESTING + 1) + "B" + " )" * (MAX_NESTING + 1)

# (source, message, line, column)
MALFORMED = {
    "unterminated-angle": ("A => <w _ ;", "unterminated angle-bracket symbol", 1, 6),
    "angle-across-lines": ("A => <w\n> _ ;", "unterminated angle-bracket symbol", 1, 6),
    "lone-dot": ("A => B . _ ;", "unexpected character '.'", 1, 8),
    "lone-colon": ("K : A ;", "unexpected character ':'", 1, 3),
    "missing-hole": ("B => A C ;", NEEDS_ONE_HOLE, 1, 6),
    "doubled-hole": ("B => A _ C _ ;", NEEDS_ONE_HOLE, 1, 6),
    "starred-hole": ("B => A _* ;", "'_' cannot be starred", 1, 9),
    "starred-second-hole": ("A => _ _* ;", "'_' cannot be starred", 1, 9),
    "error-after-second-hole": ("A => _ B _ ( C ;", "expected RPAR, found ';'", 1, 16),
    "zero-contexts": ("@/ => ;", NEEDS_ONE_HOLE, 1, 7),
    "empty-second-context": ("B => _ , A ;", NEEDS_ONE_HOLE, 1, 10),
    "duplicate-class": ("A = X ;\nA := Y ;", "duplicate definition of 'A'", 2, 1),
    "duplicate-constant": ("A := X ;\nA = Y ;", "duplicate definition of 'A'", 2, 1),
    "nesting-bound": (
        f"X => {DEEP} _ ;",
        f"groups and options nest deeper than {MAX_NESTING} levels",
        1,
        6 + 2 * MAX_NESTING,
    ),
}

MISPLACED_HOLE = {
    "group": ("A => ( _ ) ;", 1, 8),
    "option": ("A => [ B _ ] ;", 1, 10),
    "target": ("_ => A _ ;", 1, 1),
    "target-union": ("B | _ => A _ ;", 1, 5),
    "reject": ("! _ ;", 1, 3),
    "constant": ("K = A\n  _ ;", 2, 3),
    "class": ("K := A _ ;", 1, 8),
}


class TestFrontEnd:
    def test_tokens_pinned(self):
        tokens = grammar_module._lex(LEX_SOURCE)
        assert [(t.kind, t.text, t.line, t.col, t.offset) for t in tokens] == LEX_TOKENS

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_grammar_pinned(self, case):
        source, message, line, col = MALFORMED[case]
        with pytest.raises(GrammarParseError) as err:
            parse_grammar(source)
        assert str(err.value) == f"{message} (line {line}, column {col})"
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("case", sorted(MISPLACED_HOLE))
    def test_misplaced_hole(self, case):
        source, line, col = MISPLACED_HOLE[case]
        with pytest.raises(GrammarParseError) as err:
            parse_grammar(source)
        message = "'_' is only legal at the top level of a rule context"
        assert str(err.value) == f"{message} (line {line}, column {col})"


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


def nested(depth, inner="B"):
    """`inner` inside `depth` groups, each also holding an `A`."""
    return "( A " * depth + inner + " )" * depth


def chained(length):
    """Constants K1 .. K`length`, each naming the one before."""
    return "".join(f"K{i} = K{i - 1} ;\n" for i in range(1, length + 1))


class TestNesting:
    def test_groups_past_the_bound_are_a_parse_error(self):
        parse_grammar(f"X => {nested(MAX_NESTING - 1, '[ B ]')} _ ;")
        with pytest.raises(GrammarParseError) as err:
            parse_grammar(f"\nX => {nested(MAX_NESTING, '[ B ]')} _ ;")
        assert (err.value.line, err.value.col) == (2, 6 + 4 * MAX_NESTING)

    def test_constant_chain_past_the_bound(self):
        # X names K<n> at level 0, K<n> names K<n-1> at level 1, ..., and
        # K1 names the symbol K0 at level n
        expand_constants(parse_grammar(chained(MAX_NESTING) + f"X => K{MAX_NESTING} _ ;"))
        over = MAX_NESTING + 1
        with pytest.raises(GrammarCompileError) as err:
            expand_constants(parse_grammar(chained(over) + f"X => K{over} _ ;"))
        assert err.value.line == 1

    def test_groups_and_constants_add_up(self):
        # Y expands K shallow first; the deep reference is checked even so
        half = MAX_NESTING // 2
        shallow = f"K = {nested(half - 1)} ;\nY => K _ ;\n"
        expand_constants(parse_grammar(shallow + f"X => {nested(half, 'K')} _ ;"))
        with pytest.raises(GrammarCompileError) as err:
            expand_constants(parse_grammar(shallow + f"X => {nested(half + 1, 'K')} _ ;"))
        assert err.value.line == 1  # inside K, not at the reference

    def test_rule_at_the_bound_compiles_as_the_oracle(self):
        # every side of the rule reaches the bound: the target through
        # groups, the first context through groups and options, the second
        # through constants that each open a group and an option
        depth = MAX_NESTING
        chain = (depth - 2) // 2
        source = (
            "K0 = [ C ] D ;\n"
            + "".join(f"K{i} = ( D | [ C ] K{i - 1} ) ;\n" for i in range(1, chain + 1))
            + f"{nested(depth - 1, '[ B | C ]')} => "
            + f"{'( D | ' * depth}B{' )' * depth} _ {'[ A ' * depth}{'] ' * depth}, _ K{chain} ;"
        )
        rule = expand_constants(parse_grammar(source)).rules[0]
        alph = Alphabet(["A", "B", "C", "D"])
        got = compile_rule(rule, alph).automaton
        with mock.patch.object(grammar_module, "_compile_implication", marker_compile):
            want = compile_rule(rule, alph).automaton
        assert dump(got) == dump(want)
        assert got.n_states > 1


def compile_single(text, alphabet):
    grammar = expand_constants(parse_grammar(text))
    return grammar.rules[0], compile_rule(grammar.rules[0], alphabet)


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
        assert is_empty(complement(compiled.automaton))

    def test_unknown_symbol_reports_location(self, abc):
        with pytest.raises(PatternError) as err:
            compile_single("K = A ;\nB => NOPE _ K ;", abc)
        assert "NOPE" in str(err.value)
        assert "line 2" in str(err.value)

    def test_empty_target_rejected(self, abc):
        with pytest.raises(GrammarCompileError):
            compile_single("A* => _ B ;", abc)

    def test_target_with_empty_language_rejected(self):
        alph = Alphabet(["A", "B"], {"K": []})
        for text in ("K => _ A ;", "K => A _ ;"):  # with markers, and without
            with pytest.raises(GrammarCompileError, match="target denotes the empty language"):
                compile_single(text, alph)

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
        assert is_empty(intersect(one.automaton, complement(two.automaton)))

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


# -- random rule generation shared with the acceptance suite -----------------


RULE_SYMBOLS = ["A", "B", "C", "D", "E", "F"]


def random_pattern(rng, depth=2, symbols=RULE_SYMBOLS):
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return rng.choice(symbols)
    if roll < 0.7:
        left = random_pattern(rng, depth - 1, symbols)
        return f"( {left} | {random_pattern(rng, depth - 1, symbols)} )"
    if roll < 0.8:
        return f"[ {random_pattern(rng, depth - 1, symbols)} ]"
    if roll < 0.9:
        return f"{random_pattern(rng, 0, symbols)}*"
    left = random_pattern(rng, depth - 1, symbols)
    return f"{left} {random_pattern(rng, depth - 1, symbols)}"


def random_context_side(rng, symbols=RULE_SYMBOLS):
    kind = rng.random()
    if kind < 0.3:
        return ""
    if kind < 0.45:
        return ".."
    if kind < 0.55:
        return "..."
    side = random_pattern(rng, 1, symbols)
    if rng.random() < 0.3:
        side = ".. " + side
    return side


def random_rule_text(rng, symbols=RULE_SYMBOLS):
    target = random_pattern(rng, 2, symbols)
    n_contexts = rng.randint(1, 3)
    contexts = ", ".join(
        f"{random_context_side(rng, symbols)} _ {random_context_side(rng, symbols)}"
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


# -- rules compiled over their own symbol blocks ------------------------------

#: sha256 of `automata.dump` of the 48 demo rule DFAs concatenated in rule
#: order, and of the demo alphabet's 208 texts in id order joined by
#: newlines.  First taken from the Σ-wide compiler that the block compiler
#: replaced, when Σ still held the class names WORD, MARKER and MORPH as
#: ids 208-210, which no lattice path carries.  When they left Σ, both were
#: derived from the output of the code that still had them, not copied
#: from the new output: the rule hash is that of its 48 concatenated dumps
#: with every `src TAB symbol TAB dst` line whose symbol is WORD, MARKER or
#: MORPH removed, and the alphabet hash that of its 211 texts without those
#: three.  Every other id is unchanged, so any change to a rule DFA or to
#: Σ still shows here.
DEMO_RULES_SHA256 = "2b97cad5e7c5db9d8d766111303a7b31d87875af375071f9376e8bc8eaccd196"
DEMO_ALPHABET_SHA256 = "f86f5e838d673914bd6c3305b3b8541df354bf1781e478e860f7f0d4cc67627d"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestDemoPinned:
    def test_rule_dfas(self, demo_pipeline):
        assert len(demo_pipeline.rules) == 48
        dumps = "".join(dump(rule.automaton) for rule in demo_pipeline.rules)
        assert sha256(dumps) == DEMO_RULES_SHA256

    def test_alphabet_texts(self, demo_pipeline):
        alphabet = demo_pipeline.alphabet
        assert len(alphabet) == 208
        texts = "\n".join(alphabet.text_of(i) for i in range(len(alphabet)))
        assert sha256(texts) == DEMO_ALPHABET_SHA256


def resolved_left(text, alphabet):
    """The resolved left side of the only context of a one-rule grammar."""
    rule = expand_constants(parse_grammar(text)).rules[0]
    ((left, _right),) = resolve_rule(rule, alphabet).contexts
    return left


class TestClassNames:
    def test_bare_clb_and_gap_exclude_the_same_ids(self):
        alph = Alphabet(["A", "B", "C"], {"CLB": ["B", "@@"]})
        clb, gap = resolved_left("A => CLB .. _ ;", alph).parts
        assert clb.ids == alph.classes["CLB"] == frozenset(map(alph.id_of, ("B", "@@")))
        assert gap.inner.ids == alph.id_set() - clb.ids

    def test_bare_clb_defaults_to_the_clause_breaks(self):
        alph = Alphabet(["A"])
        clb = resolved_left("A => CLB _ ;", alph)
        assert clb.ids == frozenset(map(alph.id_of, ("@/", "@<", "@>", "@@")))

    def test_no_demo_class_name_is_a_symbol(self, demo_pipeline):
        alphabet = demo_pipeline.alphabet
        assert [n for n in alphabet.classes if n in alphabet] == []

    def test_rule_tags_and_class_members_stay_symbols(
        self, demo_lexicon, demo_map, registry
    ):
        grammar = parse_grammar("K := NEWMEMBER ;\nNEWTAG => K .. _ WORD CLB ;")
        alphabet = build_alphabet(demo_lexicon, demo_map, grammar, registry)
        assert "NEWTAG" in alphabet
        assert alphabet.classes["K"] == {alphabet.id_of("NEWMEMBER")}
        assert [n for n in alphabet.classes if n in alphabet] == []


def pattern_atoms(pat):
    """Every `Syms` id set in a resolved pattern."""
    if isinstance(pat, Syms):
        return [pat.ids]
    if hasattr(pat, "parts"):
        return [ids for part in pat.parts for ids in pattern_atoms(part)]
    return pattern_atoms(pat.inner)


def resolved_atoms(resolved):
    if isinstance(resolved, RejectRule):
        return pattern_atoms(resolved.pattern)
    atoms = pattern_atoms(resolved.target)
    for left, right in resolved.contexts:
        atoms += pattern_atoms(left) + pattern_atoms(right)
    return atoms


def check_blocks(resolved, alphabet):
    """Assert that `rule_blocks` is a partition of Σ, sorted by smallest
    symbol, of which Σ and every atom are unions; return the blocks."""
    blocks, atom_blocks = rule_blocks(resolved, alphabet)
    sigma = alphabet.id_set()
    assert all(blocks)
    assert sum(len(block) for block in blocks) == len(sigma)
    assert frozenset().union(*blocks) == sigma
    assert [min(block) for block in blocks] == sorted(min(block) for block in blocks)
    for atom in [sigma, *resolved_atoms(resolved)]:
        inside = [b for b, block in enumerate(blocks) if block <= atom]
        assert all(block <= atom or block.isdisjoint(atom) for block in blocks)
        assert frozenset().union(*(blocks[b] for b in inside)) == atom
        assert atom_blocks[atom] == tuple(inside)
    return blocks


class TestRuleBlocks:
    def test_classes_gaps_and_clb(self):
        source = "CLB := C @@ ;\nK := A B ;\nL := B C ;\nA => K .. _ ... , _ L D ;"
        grammar = expand_constants(parse_grammar(source))
        alph = Alphabet(["A", "B", "C", "D", "E"], grammar.classes)
        resolved = resolve_rule(grammar.rules[0], alph)
        blocks = check_blocks(resolved, alph)
        I = alph.id_of
        # atoms A, K, L, D and the `..` gap (Σ minus C and @@) split Σ into
        # {@@}, {A}, {B}, {C}, {D} and the rest
        assert blocks == (
            frozenset((I("@@"),)),
            frozenset(map(I, ("@", "@/", "@<", "@>", "E"))),
            frozenset((I("A"),)),
            frozenset((I("B"),)),
            frozenset((I("C"),)),
            frozenset((I("D"),)),
        )

    def test_coarsest(self, demo_pipeline, demo_grammar):
        alph = demo_pipeline.alphabet
        grammar = expand_constants(demo_grammar)
        for rule in grammar.rules:
            resolved = resolve_rule(rule, alph)
            blocks = check_blocks(resolved, alph)
            # the coarsest blocks: symbols grouped by the atoms they are in
            atoms = resolved_atoms(resolved)
            groups = {}
            for sym in sorted(alph.id_set()):
                signature = tuple(sym in atom for atom in atoms)
                groups.setdefault(signature, set()).add(sym)
            coarsest = sorted(map(frozenset, groups.values()), key=min)
            if len(coarsest) >= 5:
                assert list(blocks) == coarsest, rule.name
            else:  # refined up to the five ids a block alphabet reserves
                assert len(blocks) >= 5, rule.name
                assert all(any(b <= g for g in coarsest) for b in blocks), rule.name

    def test_fewer_than_five_blocks_refined(self):
        alph = Alphabet(["A", "B", "C"])
        grammar = expand_constants(parse_grammar("A => _ A ;"))
        resolved = resolve_rule(grammar.rules[0], alph)
        # A and the rest of Σ would be two blocks; the block alphabet needs five
        blocks = check_blocks(resolved, alph)
        assert len(blocks) >= 5
        compiled = compile_rule(grammar.rules[0], alph)
        for w in exhaustive_strings(sorted(alph.id_set()), 3):
            assert compiled.automaton.accepts(w) == brute_force_accepts(
                grammar.rules[0], w, alph
            ), w


def test_compile_grammar_calls_compile_rule_once_per_rule(monkeypatch):
    grammar = parse_grammar("K = A B ;\nB => A _ ;\n! C K ;\nC => _ .. A ;")
    calls = []
    original = grammar_module.compile_rule

    def counting(rule, *args):
        calls.append(rule.name)
        return original(rule, *args)

    monkeypatch.setattr(grammar_module, "compile_rule", counting)
    compiled = compile_grammar(grammar, Alphabet(["A", "B", "C"]))
    assert calls == [rule.name for rule in grammar.rules]
    assert [rule.name for rule in compiled] == calls


# Each case: the alphabet's texts, the grammar lines before the rule, the
# symbols and class names the random rule may use, and the probe symbols
# whose every string of length up to 4 is checked against the oracle.
BLOCK_CASES = {
    "small": (["A", "B", "C"], "", ["A", "B", "C"], ["A", "B", "C", "@/", "@"]),
    "wide": ([f"S{i}" for i in range(55)], "", None, ["S0", "S54", "@/", "@"]),
    "classes": (
        ["A", "B", "C", "D"],
        "K := A B ;\nL := B C ;\n",
        ["A", "D", "K", "L"],
        ["A", "B", "C", "D", "@<"],
    ),
    "own_clb": (
        ["A", "B", "C"],
        "CLB := B @@ ;\n",
        ["A", "B", "C"],
        ["A", "B", "C", "@/", "@@"],
    ),
}


def random_block_rule_text(rng, symbols):
    if rng.random() < 0.3:
        pattern = random_pattern(rng, 2, symbols)
        if rng.random() < 0.5:
            gap = rng.choice(["..", "..."])
            pattern = f"{pattern} {gap} {random_pattern(rng, 1, symbols)}"
        return f"! {pattern} ;"
    return random_rule_text(rng, symbols)


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_property_block_compile_matches_oracle(case, seed):
    texts, header, symbols, probe = BLOCK_CASES[case]
    rng = random.Random(seed)
    if symbols is None:  # a rule naming one or two of the 60 symbols
        symbols = rng.sample(texts, rng.randint(1, 2))
        probe = [*symbols, *probe]
    grammar = expand_constants(parse_grammar(header + random_block_rule_text(rng, symbols)))
    alph = Alphabet(texts, grammar.classes)
    rule = grammar.rules[0]
    try:
        compiled = compile_rule(rule, alph)
    except GrammarCompileError:
        return  # empty-string or empty-language targets are rejected
    for w in exhaustive_strings([alph.id_of(t) for t in probe], 4):
        assert compiled.automaton.accepts(w) == brute_force_accepts(
            rule, w, alph
        ), (rule.name, w)


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_property_compile_matches_marker_oracle(case, seed):
    texts, header, symbols, _ = BLOCK_CASES[case]
    rng = random.Random(seed)
    if symbols is None:  # a rule naming one or two of the 60 symbols
        symbols = rng.sample(texts, rng.randint(1, 2))
    grammar = expand_constants(parse_grammar(header + random_block_rule_text(rng, symbols)))
    alph = Alphabet(texts, grammar.classes)
    rule = grammar.rules[0]
    with mock.patch.object(grammar_module, "_compile_implication", marker_compile):
        try:
            want = compile_rule(rule, alph).automaton
        except GrammarCompileError:
            want = None
    if want is None:  # empty-string or empty-language targets
        with pytest.raises(GrammarCompileError):
            compile_rule(rule, alph)
        return
    got = compile_rule(rule, alph).automaton
    assert dump(got) == dump(want), rule.name


# -- one-symbol targets with left contexts only ---------------------------------

# Each case as in BLOCK_CASES; "own_clb" defines its own `CLB` and a class
# that a target or a context may name.
LEFT_CONTEXT_CASES = {
    "small": (["A", "B", "C"], "", ["A", "B", "C"], ["A", "B", "C", "@/"]),
    "own_clb": (
        ["A", "B", "C"],
        "CLB := B @@ ;\nK := A C ;\n",
        ["A", "B", "K"],
        ["A", "B", "C", "@/", "@@"],
    ),
}


def random_left_context_rule_text(rng, symbols):
    """A rule whose target is one symbol or class and whose 1-3 contexts
    each have an empty or nullable right side.  A left side may be empty,
    nullable, hold a gap, or end with the target itself."""
    target = rng.choice(symbols)
    contexts = []
    for _ in range(rng.randint(1, 3)):
        left = random_context_side(rng, symbols)
        roll = rng.random()
        if roll < 0.2:
            left = f"[ {rng.choice(symbols)} ] {left}"
        elif roll < 0.4:
            left = f"{left} {target}"
        right = rng.choice(["", "", "..", "...", f"[ {rng.choice(symbols)} ]",
                            f"{rng.choice(symbols)}*"])
        contexts.append(f"{left} _ {right}")
    return f"{target} => {' , '.join(contexts)} ;"


@pytest.mark.parametrize("case", sorted(LEFT_CONTEXT_CASES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_property_left_context_compile_matches_marker_oracle(case, seed):
    texts, header, symbols, probe = LEFT_CONTEXT_CASES[case]
    text = random_left_context_rule_text(random.Random(seed), symbols)
    grammar = expand_constants(parse_grammar(header + text))
    alph = Alphabet(texts, grammar.classes)
    rule = grammar.rules[0]
    direct = grammar_module._compile_left_context
    calls = []

    def counted(*args):
        calls.append(args)
        return direct(*args)

    with mock.patch.object(grammar_module, "_compile_left_context", counted):
        got = compile_rule(rule, alph).automaton
    assert len(calls) == 1, text  # the rule took the construction without markers
    with mock.patch.object(grammar_module, "_compile_implication", marker_compile):
        want = compile_rule(rule, alph).automaton
    assert dump(got) == dump(want), text
    assert got.trigger_symbols() == want.trigger_symbols(), text
    for w in exhaustive_strings([alph.id_of(t) for t in probe], 4):
        assert got.accepts(w) == brute_force_accepts(rule, w, alph), (text, w)


#: The demo rules whose target is one symbol or class and whose every
#: context has an empty right side, which `_compile_implication` compiles
#: without markers (`_compile_left_context`).
DEMO_BUILD_LEFT_CONTEXT_RULES = 18


def test_demo_build_compiles_left_context_rules_without_markers(
    monkeypatch, demo_lexicon, demo_map, demo_grammar, registry
):
    direct = grammar_module._compile_left_context
    names = []

    def counted(rule, alphabet):
        names.append(rule.name)
        return direct(rule, alphabet)

    monkeypatch.setattr(grammar_module, "_compile_left_context", counted)
    Pipeline.build(demo_lexicon, demo_map, demo_grammar, registry)
    assert len(names) == DEMO_BUILD_LEFT_CONTEXT_RULES
    assert {"@MV", "@CS", "INF", "OBJ@"} <= set(names)
    assert not {"Subject", "@/"} & set(names)  # two-sided rules keep the markers


#: The states the two subset constructions of rule compilation,
#: `pattern_dfa` and `erase_symbol`, return over one build of the demo
#: pipeline.  Two things keep the number down.  The 18 left-context rules
#: (`DEMO_BUILD_LEFT_CONTEXT_RULES`) are compiled without markers: with
#: the marker construction for every rule, a build determinizes 1825
#: states.  And minimizing the marked violations before their markers are
#: erased keeps the subset construction after erasure small: without that
#: as well, 2888.  May only go down.
DEMO_BUILD_DETERMINIZED_STATES = 1468


def test_demo_build_determinized_states(
    monkeypatch, demo_lexicon, demo_map, demo_grammar, registry
):
    states = []

    def counting(construction):
        def counted(*args):
            dfa = construction(*args)
            states.append(dfa.n_states)
            return dfa

        return counted

    for name in ("pattern_dfa", "erase_symbol"):
        monkeypatch.setattr(grammar_module, name, counting(getattr(grammar_module, name)))
    Pipeline.build(demo_lexicon, demo_map, demo_grammar, registry)
    assert sum(states) == DEMO_BUILD_DETERMINIZED_STATES


#: Over one build of the demo pipeline: the states `automata._canonical`
#: numbers, and the calls of `automata._useful`.  A trim, minimized or
#: product DFA is marked trim where it is built, so `trim` and `minimize`
#: do not trim it again, and a product numbers only its useful pairs:
#: trimming every such DFA again and numbering every reachable pair, a
#: build numbered 6264 states and searched 174 times.  Compiling the 18
#: left-context rules without markers took the states from 3859 to 2985;
#: each rule still searches once, as the trim inside its last `minimize`.
#: Either number may only go down.
DEMO_BUILD_NUMBERED_STATES = 2985
DEMO_BUILD_USEFUL_SEARCHES = 48


def test_demo_build_numbers_each_state_once(
    monkeypatch, demo_lexicon, demo_map, demo_grammar, registry
):
    numbered = []
    searches = []
    canonical = automata_module._canonical
    useful = automata_module._useful

    def counted_canonical(*args):
        dfa = canonical(*args)
        numbered.append(dfa.n_states)
        return dfa

    def counted_useful(dfa):
        searches.append(dfa)
        return useful(dfa)

    monkeypatch.setattr(automata_module, "_canonical", counted_canonical)
    monkeypatch.setattr(automata_module, "_useful", counted_useful)
    Pipeline.build(demo_lexicon, demo_map, demo_grammar, registry)
    assert sum(numbered) == DEMO_BUILD_NUMBERED_STATES
    assert len(searches) == DEMO_BUILD_USEFUL_SEARCHES
