"""End-to-end parsing: lookup, syntactic mapping, lattice construction,
rule intersection with per-rule tracing, and decoding survivors back into
per-token analyses.

Applying a grammar intersects the lattice language with every rule's
language; the surviving reading set is therefore independent of
application order.  Sentences are independent of each other, and a
Pipeline is read-only after build, so one Pipeline serves every sentence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .automata import Alphabet, Chain, enumerate_strings
from .grammar import compile_grammar, grammar_symbol_texts
from .lattice import (
    LatticeShapeError,
    SentenceLattice,
    UNKNOWN_WORD_SYMBOL,
    build_lattice,
    default_registry,
    map_syntax,
    word_symbol,
)
from .lexicon import OPEN_CLASS_GUESSES, PUNCT_TAGS, lookup

#: No longer used by the engine, whose per-rule results are minimal by
#: construction.  Kept only because the benchmark's automata replay
#: (`bench/harness.py`) reads it; it goes with the next benchmark change.
MINIMIZE_THRESHOLD = 100_000


class EngineError(Exception):
    pass


class RuleAlphabetError(EngineError):
    def __init__(self, rule_name):
        super().__init__(f"rule {rule_name!r} was compiled over a different alphabet")
        self.rule_name = rule_name


@dataclass(frozen=True)
class TraceStep:
    rule: str
    before: int
    after: int
    micros: int


@dataclass(frozen=True)
class TraceReport:
    steps: tuple
    final: int

    def lines(self):
        """The `# rule` header row, then one tab-separated row per step."""
        return ["# rule\tbefore\tafter\tmicros"] + [
            f"{s.rule}\t{s.before}\t{s.after}\t{s.micros}" for s in self.steps
        ]


@dataclass(frozen=True)
class DecodedToken:
    surface: str
    morph: tuple  # marker and tag texts in path order
    function_tag: str
    clause_tag: str  # or None
    boundary: str  # the boundary symbol following this token


@dataclass(frozen=True)
class Analysis:
    tokens: tuple  # of DecodedToken


@dataclass(frozen=True)
class ParseResult:
    lattice: SentenceLattice
    readings: tuple  # of Analysis
    trace: TraceReport
    status: str  # "ok" | "empty"
    diagnosis: tuple  # rule names, only when status == "empty"


def apply_grammar(lattice, rules, start=None):
    """Intersect the lattice with every rule, in the given order.  Returns
    the surviving lattice and a trace of per-rule reading counts and
    timings; the surviving set does not depend on the order.

    The rules are folded over one `automata.Chain`, which starts as the
    lattice reduced and counted (`start`, built here when not given).  A
    step builds the minimal automaton of the product and its path count
    in a single walk, or, when the rule accepts everything that is left,
    returns the chain as it was.  That costs a containment walk, or
    nothing when no reading left holds a symbol of the rule's trigger set
    (`Dfa.trigger_symbols`): the rules only discard readings, and a rule
    can discard only a reading that holds its target, so it accepts every
    string without a trigger symbol.  States are numbered once, for the
    surviving automaton; with no rules that is the reduced lattice.
    """
    for rule in rules:
        if rule.automaton.alphabet is not lattice.automaton.alphabet:
            raise RuleAlphabetError(rule.name)

    chain = Chain(lattice.automaton) if start is None else start
    before = chain.count
    steps = []
    for rule in rules:
        t0 = time.perf_counter()
        chain, after = chain.intersect(rule.automaton)
        micros = int((time.perf_counter() - t0) * 1_000_000)
        steps.append(TraceStep(rule.name, before, after, micros))
        before = after
    return lattice.with_automaton(chain.dfa()), TraceReport(tuple(steps), before)


def _survives(chain, rules):
    """True if some string of the non-empty `chain` is accepted by every
    rule; stops at the first rule that leaves nothing."""
    for rule in rules:
        chain, count = chain.intersect(rule.automaton)
        if not count:
            return False
    return True


def diagnose_empty(lattice, rules, start=None):
    """Explain a total rejection.

    Returns every rule whose removal alone makes the intersection
    non-empty; when no single rule is responsible, returns the shortest
    prefix of the applied order whose intersection first became empty.  An
    already-empty input lattice yields no rule names.

    One chain walks the applied order and keeps each prefix's chain until
    rule k empties it.  Only rules 0..k can be culprits, since rules 0..k
    alone already leave nothing; leaving out rule i resumes from the
    chain of the rules before it.  `start` is the lattice's chain, as
    `apply_grammar` takes it; it is built here when not given.
    """
    if start is None:
        start = Chain(lattice.automaton)
    if not start.count:
        return ()
    rules = tuple(rules)
    prefixes = [start]  # prefixes[i]: the lattice and rules[:i]
    for rule in rules:
        current, count = prefixes[-1].intersect(rule.automaton)
        if not count:
            break
        prefixes.append(current)
    else:
        raise ValueError("diagnose_empty called but the intersection is non-empty")
    applied = rules[: len(prefixes)]
    culprits = tuple(
        rule.name
        for i, rule in enumerate(applied)
        if _survives(prefixes[i], rules[i + 1 :])
    )
    return culprits or tuple(rule.name for rule in applied)


def decode_readings(lattice, limit):
    """Enumerate up to `limit` surviving readings and split each path back
    into per-token records.  Paths violating the block shape raise
    LatticeShapeError (they would indicate a construction bug)."""
    if limit <= 0:
        return ()
    alphabet = lattice.automaton.alphabet
    registry = lattice.registry
    ftags = frozenset(alphabet.id_of(t) for t in registry.function_tags if t in alphabet)
    ctags = frozenset(alphabet.id_of(t) for t in registry.clause_tags if t in alphabet)
    boundaries = frozenset(
        alphabet.id_of(t) for t in registry.boundary_tags if t != "@@"
    )
    at_at = alphabet.id_of("@@")

    analyses = []
    for path in enumerate_strings(lattice.automaton, limit):
        texts = [alphabet.text_of(s) for s in path]
        ids = list(path)
        if not ids or ids[0] != at_at or ids[-1] != at_at:
            raise _shape_error(texts, "missing sentence boundary")
        pos = 1
        tokens = []
        for cohort in lattice.cohorts:
            if pos >= len(ids) or not texts[pos].startswith("<"):
                raise _shape_error(texts, f"expected word symbol at {pos}")
            pos += 1
            morph = []
            while pos < len(ids) and ids[pos] not in ftags:
                if ids[pos] in ctags or ids[pos] in boundaries or ids[pos] == at_at:
                    raise _shape_error(texts, f"missing function tag at {pos}")
                morph.append(texts[pos])
                pos += 1
            if pos >= len(ids):
                raise _shape_error(texts, "path ended before a function tag")
            ftag = texts[pos]
            pos += 1
            ctag = None
            if pos < len(ids) and ids[pos] in ctags:
                ctag = texts[pos]
                pos += 1
            if (ftag in registry.mv_tags) != (ctag is not None):
                raise _shape_error(
                    texts, "clause tag must accompany exactly the main-verb tags"
                )
            if pos >= len(ids) or (ids[pos] not in boundaries and ids[pos] != at_at):
                raise _shape_error(texts, f"expected boundary at {pos}")
            boundary = texts[pos]
            pos += 1
            tokens.append(
                DecodedToken(cohort.surface, tuple(morph), ftag, ctag, boundary)
            )
        if pos != len(ids):
            raise _shape_error(texts, "trailing symbols after last token")
        analyses.append(Analysis(tuple(tokens)))
    return tuple(analyses)


def _shape_error(texts, why):
    return LatticeShapeError(f"{why}: {' '.join(texts)}")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """Everything needed to parse sentences: lexicon, syntactic map,
    compiled grammar rules and the shared alphabet."""

    def __init__(self, lexicon, smap, grammar, registry, alphabet, rules):
        self.lexicon = lexicon
        self.smap = smap
        self.grammar = grammar
        self.registry = registry
        self.alphabet = alphabet
        self.rules = rules

    @classmethod
    def build(cls, lexicon, smap, grammar=None, registry=None):
        """Assemble the closed alphabet from the registry, lexicon, map and
        grammar, then compile every rule over it."""
        registry = registry or default_registry()
        alphabet = build_alphabet(lexicon, smap, grammar, registry)
        rules = ()
        if grammar is not None:
            rules = compile_grammar(grammar, alphabet)
        return cls(lexicon, smap, grammar, registry, alphabet, rules)

    def cohorts_for(self, tokens):
        return tuple(
            map_syntax(lookup(self.lexicon, token), self.smap, self.registry)
            for token in tokens
        )

    def lattice_for(self, tokens):
        return build_lattice(self.cohorts_for(tokens), self.registry, self.alphabet)

    def parse_sentence(self, tokens, limit=16):
        """lookup -> map -> lattice -> grammar -> decode, or the diagnosis
        of a total rejection, which starts from the same lattice chain."""
        lattice = self.lattice_for(tokens)
        start = Chain(lattice.automaton)
        survived, trace = apply_grammar(lattice, self.rules, start)
        if trace.final == 0:
            diagnosis = diagnose_empty(lattice, self.rules, start)
            return ParseResult(survived, (), trace, "empty", diagnosis)
        readings = decode_readings(survived, limit)
        return ParseResult(survived, readings, trace, "ok", ())


def build_alphabet(lexicon, smap, grammar, registry):
    """One closed alphabet for a run: boundary markers, the tag registry,
    punctuation categories, every lexicon marker/tag/word symbol, the
    unknown-word symbol, map pattern symbols and grammar symbols.

    Also defines the builtin classes WORD, MARKER, MORPH, FTAG, CTAG and
    BOUNDARY.  The grammar's classes come last and may override them or
    the alphabet's default CLB (the set the within-clause gap may not
    cross).  A name the grammar uses as a class is not made a symbol.

    The punctuation tags and open-class guesses that lookups can
    synthesize are interned up front, so the compiled rules and every
    lattice share one closed alphabet."""
    synthesized = [*PUNCT_TAGS, *(tag for tags in OPEN_CLASS_GUESSES for tag in tags)]
    markers = []
    morphs = []
    words = []
    seen = set()

    def note(bucket, text):
        if text not in seen:
            seen.add(text)
            bucket.append(text)

    for tag in synthesized:
        note(morphs, tag)
    for key, entry in lexicon.entries.items():
        for reading in entry.readings:
            for marker in reading.markers:
                note(markers, marker)
            for tag in reading.tags:
                note(morphs, tag)
        note(words, word_symbol(key))
    note(words, UNKNOWN_WORD_SYMBOL)

    texts = [*registry.function_tags, *registry.clause_tags, *synthesized]
    texts += markers + morphs + words
    if smap is not None:
        for rule in smap.rules:
            texts.extend(rule.required)
    texts.extend(registry.boundary_tags)
    classes = {
        "WORD": words,
        "MARKER": markers,
        "MORPH": morphs,
        "FTAG": registry.function_tags,
        "CTAG": registry.clause_tags,
        "BOUNDARY": registry.boundary_tags,
    }
    # grammar-level definitions last so they can override the builtins
    if grammar is not None:
        texts.extend(grammar_symbol_texts(grammar, classes))
        classes.update(grammar.classes)
    return Alphabet(texts, classes)
