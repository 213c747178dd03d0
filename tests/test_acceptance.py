"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report lines.
"""

import io
import random
import time
from pathlib import Path

import pytest

from fslat import data
from fslat.automata import (
    Alphabet,
    InfiniteLanguageError,
    complement,
    count_paths,
    enumerate_strings,
    erase_symbol,
    intersect,
    is_empty,
    minimize,
)
from fslat.cli import EXIT_OK, RunConfig, run_parse
from fslat.engine import Pipeline, apply_grammar, build_alphabet
from fslat.grammar import (
    GrammarCompileError,
    brute_force_accepts,
    compile_grammar,
    compile_rule,
    expand_constants,
    parse_grammar,
)
from fslat.lattice import (
    build_lattice,
    default_registry,
    map_syntax,
    parse_syntactic_map,
    reading_count,
)
from fslat.lexicon import (
    Cohort,
    Entry,
    Lexicon,
    MorphReading,
    parse_lexicon,
    serialize_lexicon,
    tokenize,
)
from .test_grammar import random_rule
from .util import exhaustive_strings, language_equal, random_dfa

GOLDEN = Path(__file__).parent / "golden"


def report(number, description):
    print(f"\nACCEPTANCE {number} ({description}): PASS")


# -- 1. rule-semantics oracle equivalence ------------------------------------


def test_acceptance_1_rule_oracle_equivalence():
    alphabet = Alphabet(["A", "B", "C", "D", "E", "F"])
    rng = random.Random(0xACCE01)
    t0 = time.perf_counter()
    pairs = 0
    while pairs < 1000:
        rule, text = random_rule(rng)
        try:
            compiled = compile_rule(rule, alphabet)
        except GrammarCompileError:
            continue
        length = rng.randint(0, 12)
        word = [alphabet.id_of(rng.choice("ABCDEF")) for _ in range(length)]
        assert compiled.automaton.accepts(word) == brute_force_accepts(
            rule, word, alphabet
        ), (text, word)
        pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, f"rule-semantics oracle, 1000 pairs in {elapsed:.1f}s")


# -- 2. end-to-end oracle equivalence ----------------------------------------


_E2E_TAG_SHAPES = [
    ("T0",), ("T1", "T0"), ("T2",), ("T3", "T2"), ("T1",),
]
_E2E_MAP = (
    "T0 -> @SUBJ\n"
    "T1 -> @OBJ @SC\n"
    "T2 -> @MV\n"
    "T3 T2 -> @AUX\n"
    "* -> @ADVL\n"
)
_E2E_RULE_SYMBOLS = [
    "T0", "T1", "T2", "T3", "@SUBJ", "@OBJ", "@SC", "@MV", "@AUX",
    "@ADVL", "@", "@/", "MAINC@",
]


def _random_e2e_rule_text(rng):
    def atom():
        return rng.choice(_E2E_RULE_SYMBOLS)

    def side():
        roll = rng.random()
        if roll < 0.35:
            return ""
        if roll < 0.5:
            return ".."
        if roll < 0.6:
            return "..."
        bits = [atom() for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.4:
            bits.insert(rng.randint(0, len(bits)), "..")
        return " ".join(bits)

    if rng.random() < 0.2:
        return f"! {atom()} ... {atom()} ;"
    target = atom() if rng.random() < 0.7 else f"( {atom()} | {atom()} )"
    contexts = ", ".join(f"{side()} _ {side()}" for _ in range(rng.randint(1, 2)))
    return f"{target} => {contexts} ;"


def _random_pipeline(rng):
    words = [f"w{i}" for i in range(6)]
    entries = []
    for word in words:
        n_readings = rng.randint(1, 3)
        shapes = rng.sample(_E2E_TAG_SHAPES, n_readings)
        readings = tuple(MorphReading(word, (), tags) for tags in shapes)
        entries.append((word, Entry(word, readings)))
    lexicon = Lexicon(dict(entries))
    registry = default_registry()
    smap = parse_syntactic_map(_E2E_MAP, registry)
    while True:
        texts = [_random_e2e_rule_text(rng) for _ in range(rng.randint(1, 5))]
        try:
            grammar = parse_grammar("\n".join(texts))
            pipeline = Pipeline.build(lexicon, smap, grammar, registry)
            return pipeline
        except GrammarCompileError:
            continue


def test_acceptance_2_end_to_end_oracle_equivalence():
    rng = random.Random(0xACCE02)
    checked = 0
    while checked < 100:
        pipeline = _random_pipeline(rng)
        n_tokens = rng.randint(1, 6)
        tokens = [f"w{rng.randrange(6)}" for _ in range(n_tokens)]
        lattice = pipeline.lattice_for(tokens)
        total = reading_count(lattice)
        if total > 10_000:
            continue
        expanded = expand_constants(pipeline.grammar)
        everything = enumerate_strings(lattice.automaton, total + 1)
        expect = set()
        for word in everything:
            if all(
                brute_force_accepts(rule, word, pipeline.alphabet)
                for rule in expanded.rules
            ):
                expect.add(word)
        survived, trace = apply_grammar(lattice, pipeline.rules)
        got = set(enumerate_strings(survived.automaton, total + 1))
        assert got == expect
        assert trace.final == len(expect)
        checked += 1
    report(2, "end-to-end oracle equivalence, 100 random pipelines")


# -- 3. magnitude reproduction ------------------------------------------------


def test_acceptance_3_magnitude_and_speed(demo_pipeline):
    tokens = tokenize(data.read("stress39.txt").strip())
    words = [t for t in tokens if t not in ".?!,;"]
    assert len(words) == 39
    lattice = demo_pipeline.lattice_for(tokens)
    for readings, combos in lattice.per_token_ambiguity:
        assert 1 <= combos <= 70
    t0 = time.perf_counter()
    count = reading_count(lattice)
    count_ms = (time.perf_counter() - t0) * 1000
    assert count >= 10**30
    assert count_ms < 100, f"counting took {count_ms:.1f} ms"
    t0 = time.perf_counter()
    survived, trace = apply_grammar(lattice, demo_pipeline.rules)
    apply_s = time.perf_counter() - t0
    assert apply_s < 5, f"grammar application took {apply_s:.2f}s"
    assert len(demo_pipeline.rules) >= 10
    report(
        3,
        f"39-word fixture: {count:.0e} readings, count {count_ms:.1f} ms, "
        f"{len(demo_pipeline.rules)} rules applied in {apply_s:.2f} s",
    )


# -- 4. ambiguity-vs-time decoupling ------------------------------------------


def test_acceptance_4_time_decoupled_from_count(demo_pipeline):
    small_tokens = tokenize("I see a bird.")
    big_tokens = tokenize(data.read("stress39.txt").strip())
    small = demo_pipeline.lattice_for(small_tokens)
    big = demo_pipeline.lattice_for(big_tokens)
    count_ratio = reading_count(big) // reading_count(small)
    assert count_ratio > 10**20

    def timed(lattice):
        t0 = time.perf_counter()
        apply_grammar(lattice, demo_pipeline.rules)
        return time.perf_counter() - t0

    # warm once, then measure
    timed(small)
    t_small = timed(small)
    t_big = timed(big)
    ratio = t_big / max(t_small, 1e-9)
    assert ratio < 100, f"time ratio {ratio:.1f}"
    report(
        4,
        f"time ratio {ratio:.1f}x vs reading ratio > 1e20",
    )


# -- 5. golden corpus ----------------------------------------------------------


GOLDEN_SENTENCES = {
    "isee": "I see a bird.",
    "henry": "Henry dislikes her leaving so early.",
    "whatmakes": "What makes them acceptable is that they have different verbal regents.",
    "pushkin": "Pushkin was Russia's greatest poet, and Tolstoy her greatest novelist.",
    "providing": "Providing the pin has been fully inserted into the connect rod, final centralization can, if necessary, be done on a press using the support stop button and driver.",
    "societies": "They established networks of state and local societies.",
}


def test_acceptance_5_golden_corpus(tmp_path):
    listing = data.read("listing.lex")
    assert serialize_lexicon(parse_lexicon(listing)) == listing

    resources = {
        "lexicon": str(data.path("demo.lex")),
        "map": str(data.path("demo.map")),
        "grammar": str(data.path("demo.fsg")),
    }
    for name, sentence in GOLDEN_SENTENCES.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(sentence + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        config = RunConfig(command="parse", inputs=(str(path),), **resources)
        assert run_parse(config, out=out, err=err) == EXIT_OK, err.getvalue()
        assert out.getvalue() == (GOLDEN / f"{name}_table.txt").read_text(), name
    societies = (GOLDEN / "societies_table.txt").read_text()
    assert "societies\tN NOM PL\t[@OBJ --or-- @P<<]\t\t@" in societies
    for name in ("isee", "henry", "whatmakes", "pushkin", "providing"):
        table = (GOLDEN / f"{name}_table.txt").read_text()
        assert "\t@MV\tMAINC@\t" in table
    report(5, "listing round-trip byte-exact, 6 golden tables match")


# -- 6. rule fixtures ----------------------------------------------------------


SUBJECT_FIXTURE = """
FinMainVerb    = VFIN @MV ;
FinAux         = VFIN @AUX ;
FinVerbChain   = FinMainVerb | FinAux ;
NonFinMainVerb = INF @MV | PCP1 @MV | PCP2 @MV ;
Subject        = @SUBJ ;
Subject => _ .. FinVerbChain ,
           FinAux .. _ .. NonFinMainVerb ... QUESTION ;
"""

BOUNDARY_FIXTURE = "@/ => VFIN .. _ .. VFIN ;"


def _fixture_alphabet():
    return Alphabet(
        ["@SUBJ", "@MV", "@AUX", "@OBJ", "VFIN", "INF", "PCP1", "PCP2",
         "QUESTION", "N"]
    )


def _check_rule(text, positives, negatives, alphabet):
    grammar = expand_constants(parse_grammar(text))
    rule = grammar.rules[-1]
    compiled = compile_rule(rule, alphabet)
    for case in positives:
        word = [alphabet.id_of(t) for t in case.split()]
        assert compiled.automaton.accepts(word), f"should accept: {case}"
        assert brute_force_accepts(rule, word, alphabet)
    for case in negatives:
        word = [alphabet.id_of(t) for t in case.split()]
        assert not compiled.automaton.accepts(word), f"should reject: {case}"
        assert not brute_force_accepts(rule, word, alphabet)


def test_acceptance_6_rule_fixtures():
    alphabet = _fixture_alphabet()
    _check_rule(
        SUBJECT_FIXTURE,
        positives=[
            "@SUBJ VFIN @MV",
            "@SUBJ N N VFIN @AUX",
            "VFIN @AUX @SUBJ PCP1 @MV QUESTION",
            "N VFIN @MV N",  # no subject occurrence at all
        ],
        negatives=[
            "@SUBJ",
            "@SUBJ @/ VFIN @MV",
            "VFIN @AUX @SUBJ PCP1 @MV",
            "@SUBJ PCP1 @MV",
        ],
        alphabet=alphabet,
    )
    _check_rule(
        BOUNDARY_FIXTURE,
        positives=[
            "VFIN @/ VFIN",
            "VFIN N @/ N VFIN",
            "N N N",  # no boundary occurrence
        ],
        negatives=[
            "@/ VFIN",
            "VFIN @/ N",
            "VFIN @< @/ VFIN",
        ],
        alphabet=alphabet,
    )
    report(6, "subject and clause-boundary rule fixtures, 3+ cases each way")


# -- 7. automata kernel invariants ---------------------------------------------


def test_acceptance_7_kernel_invariants():
    rng = random.Random(0xACCE07)
    alphabet = Alphabet(["A", "B", "C"])
    syms = tuple(alphabet.id_of(t) for t in "ABC")
    # `random_dfa` steps the boundary symbols too: compare every string
    # over all eight symbols as well, to a shorter length
    strings = (*exhaustive_strings(syms, 5), *exhaustive_strings(sorted(alphabet.id_set()), 3))

    for _ in range(500):
        d = random_dfa(rng, alphabet, max_states=8)
        assert language_equal(complement(complement(d)), d)

    for _ in range(500):
        a = random_dfa(rng, alphabet, max_states=6)
        b = random_dfa(rng, alphabet, max_states=6)
        assert language_equal(intersect(a, b), intersect(b, a))

    for _ in range(500):
        d = random_dfa(rng, alphabet, max_states=8)
        m = minimize(d)
        for w in strings:
            assert d.accepts(w) == m.accepts(w)

    for _ in range(500):
        d = random_dfa(rng, alphabet, max_states=8)
        d2 = erase_symbol(d, len(alphabet))  # an id no label holds
        for w in strings:
            assert d.accepts(w) == d2.accepts(w)

    counted = 0
    while counted < 500:
        d = random_dfa(rng, alphabet, max_states=8)
        try:
            n = count_paths(d)
        except InfiniteLanguageError:
            continue
        if n <= 10_000:
            assert len(enumerate_strings(d, n + 1)) == n
            counted += 1
    report(7, "kernel invariants, 500 random instances each")


# -- 8. order independence ------------------------------------------------------


def test_acceptance_8_order_independence():
    rng = random.Random(0xACCE08)
    checked = 0
    while checked < 100:
        pipeline = _random_pipeline(rng)
        if len(pipeline.rules) < 2:
            continue
        tokens = [f"w{rng.randrange(6)}" for _ in range(rng.randint(2, 5))]
        lattice = pipeline.lattice_for(tokens)
        forward, _ = apply_grammar(lattice, pipeline.rules)
        backward, _ = apply_grammar(lattice, tuple(reversed(pipeline.rules)))
        assert language_equal(forward.automaton, backward.automaton)
        checked += 1
    report(8, "surviving set identical under reversed rule order, 100 instances")
