"""End-to-end parsing: lookup, syntactic mapping, lattice construction,
rule intersection with per-rule tracing, and decoding survivors back into
per-token analyses.

Applying a grammar intersects the lattice language with every rule's
language; the surviving reading set is therefore independent of
application order.  Sentences are independent of each other; a Pipeline is
read-only after build and safe to share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .automata import (
    Alphabet,
    count_paths,
    enumerate_strings,
    intersect_minimal,
    is_empty,
)
from .grammar import compile_grammar, expand_constants, grammar_symbol_texts
from .lattice import (
    SentenceLattice,
    UNKNOWN_WORD_SYMBOL,
    build_lattice,
    default_registry,
    map_syntax,
    reading_count,
)
from .lexicon import OPEN_CLASS_GUESSES, lookup

#: Punctuation categories that lookups can synthesize; interned up front so
#: the compiled rules and every lattice share one closed alphabet.
_PUNCT_TAGS = ("FULLSTOP", "COMMA", "QUESTION", "EXCLAMATION", "SEMICOLON", "PUNCT")

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

    def lines(self, header=False):
        rows = []
        if header:
            rows.append("# rule\tbefore\tafter\tmicros")
        rows.extend(
            f"{s.rule}\t{s.before}\t{s.after}\t{s.micros}" for s in self.steps
        )
        return rows


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


def apply_grammar(lattice, rules):
    """Intersect the lattice with every rule, in the given order.  Returns
    the surviving lattice and a trace of per-rule reading counts and
    timings; the surviving set does not depend on the order.

    Each rule step is one `intersect_minimal` call, which builds the
    minimal DFA of the product and its path count in a single walk, so no
    intermediate result is larger than it needs to be.
    """
    for rule in rules:
        if rule.automaton.alphabet is not lattice.automaton.alphabet:
            raise RuleAlphabetError(rule.name)

    current = lattice.automaton
    before = count_paths(current)
    steps = []
    for rule in rules:
        t0 = time.perf_counter()
        current, after = intersect_minimal(current, rule.automaton)
        micros = int((time.perf_counter() - t0) * 1_000_000)
        steps.append(TraceStep(rule.name, before, after, micros))
        before = after
    return lattice.with_automaton(current), TraceReport(tuple(steps), before)


def _survives(automaton, rules):
    """True if some string of `automaton` is accepted by every rule; stops
    at the first rule that leaves nothing."""
    for rule in rules:
        automaton, count = intersect_minimal(automaton, rule.automaton)
        if not count:
            return False
    return not is_empty(automaton)


def diagnose_empty(lattice, rules):
    """Explain a total rejection.

    Returns every rule whose removal alone makes the intersection
    non-empty; when no single rule is responsible, returns the shortest
    prefix of the applied order whose intersection first became empty.  An
    already-empty input lattice yields no rule names.
    """
    if is_empty(lattice.automaton):
        return ()
    rules = tuple(rules)
    if _survives(lattice.automaton, rules):
        raise ValueError("diagnose_empty called but the intersection is non-empty")

    culprits = tuple(
        rule.name
        for i, rule in enumerate(rules)
        if _survives(lattice.automaton, rules[:i] + rules[i + 1 :])
    )
    if culprits:
        return culprits

    current = lattice.automaton
    prefix = []
    for rule in rules:
        prefix.append(rule.name)
        current, count = intersect_minimal(current, rule.automaton)
        if not count:
            break
    return tuple(prefix)


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
    from .lattice import LatticeShapeError

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
        mapped = []
        for token in tokens:
            cohort = lookup(self.lexicon, token)
            word_symbol = f"<{token.lower()}>"
            if word_symbol not in self.alphabet:
                word_symbol = UNKNOWN_WORD_SYMBOL
            mapped.append(
                map_syntax(cohort, self.smap, self.registry, word_symbol=word_symbol)
            )
        return tuple(mapped)

    def lattice_for(self, tokens):
        return build_lattice(self.cohorts_for(tokens), self.registry, self.alphabet)

    def parse_sentence(self, tokens, limit=16):
        """lookup -> map -> lattice -> grammar -> decode."""
        lattice = self.lattice_for(tokens)
        survived, trace = apply_grammar(lattice, self.rules)
        if is_empty(survived.automaton):
            diagnosis = diagnose_empty(lattice, self.rules)
            return ParseResult(survived, (), trace, "empty", diagnosis)
        readings = decode_readings(survived, limit)
        return ParseResult(survived, readings, trace, "ok", ())


def build_alphabet(lexicon, smap, grammar, registry):
    """One closed alphabet for a run: boundary markers, the tag registry,
    punctuation categories, every lexicon marker/tag/word symbol, the
    unknown-word symbol, map pattern symbols and grammar symbols.

    Also defines the builtin classes WORD, MARKER, MORPH, FTAG, CTAG,
    BOUNDARY and CLB (the within-clause gap exclusion set, unless the
    grammar overrides it)."""
    from .grammar import DEFAULT_CLB

    alphabet = Alphabet()
    for tag in registry.function_tags:
        alphabet.intern(tag)
    for tag in registry.clause_tags:
        alphabet.intern(tag)
    for tag in _PUNCT_TAGS:
        alphabet.intern(tag)
    for tags in OPEN_CLASS_GUESSES:
        for tag in tags:
            alphabet.intern(tag)

    markers = []
    morphs = []
    words = []
    seen = set()

    def note(bucket, text):
        if text not in seen:
            seen.add(text)
            bucket.append(text)

    for tag in _PUNCT_TAGS:
        note(morphs, tag)
    for tags in OPEN_CLASS_GUESSES:
        for tag in tags:
            note(morphs, tag)
    for key, entry in lexicon.entries.items():
        for reading in entry.readings:
            for marker in reading.markers:
                note(markers, marker)
            for tag in reading.tags:
                note(morphs, tag)
        note(words, f"<{key.lower()}>")
    note(words, UNKNOWN_WORD_SYMBOL)
    for text in markers + morphs + words:
        alphabet.intern(text)

    if smap is not None:
        for rule in smap.rules:
            for text in rule.required:
                alphabet.intern(text)

    alphabet.define_class("WORD", words)
    alphabet.define_class("MARKER", markers)
    alphabet.define_class("MORPH", morphs)
    alphabet.define_class("FTAG", registry.function_tags)
    alphabet.define_class("CTAG", registry.clause_tags)
    alphabet.define_class("BOUNDARY", registry.boundary_tags)
    alphabet.define_class("CLB", DEFAULT_CLB)

    # grammar-level definitions last so they can override the builtins
    # (notably CLB, the within-clause gap exclusion set)
    if grammar is not None:
        expanded = expand_constants(grammar)
        for text in grammar_symbol_texts(expanded):
            alphabet.intern(text)
        for name, members in expanded.classes.items():
            alphabet.define_class(name, members)
    return alphabet
