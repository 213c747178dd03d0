"""Reductionistic parsing with finite-state rules over ambiguity lattices.

Every morphological reading, candidate syntactic-function tag and
clause-boundary choice of a sentence is represented in parallel as one
acyclic automaton; a grammar of implication rules compiles to automata
whose intersection with the lattice discards illegitimate readings.
"""

from .automata import (
    Alphabet,
    AutomataError,
    Dfa,
    InfiniteLanguageError,
    PatternError,
    enumerate_strings,
    is_empty,
    minimize,
    pattern_dfa,
)
from .engine import (
    Analysis,
    ParseResult,
    Pipeline,
    TraceReport,
    apply_grammar,
    decode_readings,
    diagnose_empty,
)
from .grammar import (
    CompiledRule,
    Grammar,
    GrammarError,
    ImplicationRule,
    RejectRule,
    brute_force_accepts,
    compile_grammar,
    compile_rule,
    expand_constants,
    parse_grammar,
)
from .lattice import (
    SentenceLattice,
    SyntacticMap,
    TagRegistry,
    build_lattice,
    default_registry,
    map_syntax,
    parse_syntactic_map,
    reading_count,
)
from .lexicon import (
    Cohort,
    Lexicon,
    LexiconError,
    MorphReading,
    UnknownWordError,
    lookup,
    parse_lexicon,
    serialize_lexicon,
    split_sentences,
    tokenize,
)

__version__ = "0.1.0"
