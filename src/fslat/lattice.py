"""Sentence lattices: candidate function tags per reading, four-way
ambiguous token boundaries, and the acyclic automaton whose accepted
strings are exactly the sentence readings.

Path layout per accepted string (fixed, rules are written against it):

    @@ block ( boundary block )* @@

where each token block is

    word-symbol marker* morph-tag* function-tag [clause-function-tag]

and boundary is one of @ @/ @< @>.  The clause-function tag is present
iff the function tag is @MV or @mv.  Word forms enter the alphabet as
opaque `<form>` symbols (lowercased); tokens outside the lexicon share
the reserved `<?>` symbol.  Base forms are recoverable from the cohorts,
not encoded in the path.  Centre-embedding markers are not balance
checked here; balancing is a grammar's job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .automata import BOUNDARY_TEXTS, Chain, Dfa, _canonical


class TagError(Exception):
    pass


class MapError(Exception):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class LatticeShapeError(Exception):
    """An accepted path does not decode as a well-formed token sequence;
    indicates a lattice construction bug."""


#: Neutral function tag carried by punctuation readings; rendered as an
#: empty column in tabular output.
PUNCT_TAG = "@PUNCT"

UNKNOWN_WORD_SYMBOL = "<?>"

_UPPER_FTAGS = (
    "@SUBJ", "@F-SUBJ", "@OBJ", "@F-OBJ", "@I-OBJ", "@SC", "@OC",
    "@P<<", "@>>P", "@APP", "@>A", "@A<", "@>N", "@>P", "@N<",
    "@ADVL", "@ADVL/N<", "@CC", "@CS", "@AUX", "@MV",
)

#: Verb and nominal-head tags pair with a lower-case non-finite variant.
_CASE_PAIRS = {
    "@SUBJ": "@subj", "@F-SUBJ": "@f-subj", "@OBJ": "@obj",
    "@F-OBJ": "@f-obj", "@I-OBJ": "@i-obj", "@SC": "@sc", "@OC": "@oc",
    "@P<<": "@p<<", "@>>P": "@>>p", "@APP": "@app",
    "@AUX": "@aux", "@MV": "@mv",
}

_CLAUSE_TAGS = ("MAINC@", "SUBJ@", "OBJ@", "SC@", "N<@", "ADVL@", "mainc@", "obj@")


@dataclass(frozen=True)
class TagRegistry:
    """The closed inventory of function tags, clause-function tags and
    boundary markers."""

    function_tags: tuple
    clause_tags: tuple
    boundary_tags: tuple

    def __post_init__(self):
        for tag in self.function_tags:
            if not tag.startswith("@"):
                raise TagError(f"function tag {tag!r} must start with '@'")
        for tag in self.clause_tags:
            if not tag.endswith("@") or tag.startswith("@"):
                raise TagError(
                    f"clause-function tag {tag!r} must end with '@' and not start with it"
                )

    def clause_tags_for(self, ftag):
        """Clause-function tags paired with a main-verb tag.

        The main-clause tag is case matched (MAINC@ goes with @MV, mainc@
        with @mv) and postmodifying clauses are finite (N<@ only with
        @MV); the other embedded-function tags pair with both since their
        case tracks the enclosing clause, not the verb itself.
        """
        if ftag == "@MV":
            return tuple(t for t in self.clause_tags if t != "mainc@")
        if ftag == "@mv":
            return tuple(
                t for t in self.clause_tags if t not in ("MAINC@", "N<@")
            )
        return ()

    @property
    def mv_tags(self):
        return ("@MV", "@mv")


def default_registry():
    lowers = tuple(_CASE_PAIRS[u] for u in _UPPER_FTAGS if u in _CASE_PAIRS)
    return TagRegistry(
        function_tags=_UPPER_FTAGS + lowers + (PUNCT_TAG,),
        clause_tags=_CLAUSE_TAGS,
        boundary_tags=BOUNDARY_TEXTS,
    )


# ---------------------------------------------------------------------------
# Syntactic mapping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapRule:
    required: frozenset  # morph tags / markers that must all be present
    tags: tuple


@dataclass(frozen=True)
class SyntacticMap:
    """Ordered pattern -> candidate-tag rules; first matching line wins,
    the `*` line is the default for unmatched readings."""

    rules: tuple
    default: tuple


def parse_syntactic_map(text, registry):
    """Parse the `TAGPATTERN -> @TAG @TAG ...` map format.

    The pattern is a space-separated conjunction of required morph tags and
    markers; the final line must be `* -> ...`.  Every emitted tag must be
    registered.
    """
    rules = []
    default = None
    known = set(registry.function_tags)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise MapError("expected 'PATTERN -> TAGS'", lineno)
        lhs, rhs = line.split("->", 1)
        pattern = lhs.split()
        tags = tuple(rhs.split())
        if not tags:
            raise MapError("no tags on the right-hand side", lineno)
        for tag in tags:
            if tag not in known:
                raise MapError(f"unregistered function tag {tag!r}", lineno)
        if pattern == ["*"]:
            if default is not None:
                raise MapError("duplicate default '*' line", lineno)
            default = tags
            continue
        if not pattern:
            raise MapError("empty pattern", lineno)
        if default is not None:
            raise MapError("the '*' default must be the final line", lineno)
        rules.append(MapRule(frozenset(pattern), tags))
    if default is None:
        raise MapError("map needs a final '* -> ...' default line")
    return SyntacticMap(tuple(rules), default)


@dataclass(frozen=True)
class MappedReading:
    reading: object  # MorphReading
    candidates: tuple  # of (function tag, clause tag or None)


@dataclass(frozen=True)
class MappedCohort:
    surface: str
    readings: tuple  # of MappedReading

    @property
    def combinations(self):
        return sum(len(r.candidates) for r in self.readings)


def candidate_tags(reading, smap):
    """The matched map line's tag set (first match wins, default
    otherwise)."""
    features = set(reading.tags) | set(reading.markers)
    for rule in smap.rules:
        if rule.required <= features:
            return rule.tags
    return smap.default


def map_syntax(cohort, smap, registry):
    """Annotate each reading with its candidate (function tag, clause tag)
    pairs.  Main-verb tags are expanded with their clause-function tags
    (main verbs always carry two tags); all other tags pair with None."""
    mapped = []
    for reading in cohort.readings:
        candidates = []
        for tag in candidate_tags(reading, smap):
            clause = registry.clause_tags_for(tag)
            if clause:
                candidates.extend((tag, ct) for ct in clause)
            else:
                candidates.append((tag, None))
        mapped.append(MappedReading(reading, tuple(candidates)))
    return MappedCohort(cohort.surface, tuple(mapped))


def word_symbol(surface):
    """`<form>` for a surface form or lexicon key, lowercased; the lattice
    uses `UNKNOWN_WORD_SYMBOL` for one the alphabet does not hold."""
    return f"<{surface.lower()}>"


# ---------------------------------------------------------------------------
# Lattice construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SentenceLattice:
    automaton: Dfa
    cohorts: tuple  # of MappedCohort
    registry: TagRegistry
    per_token_ambiguity: tuple  # of (reading count, reading x tag combinations)

    def with_automaton(self, dfa):
        return replace(self, automaton=dfa)


def build_lattice(cohorts, registry, alphabet):
    """Build the parallel-ambiguity automaton for a sequence of mapped
    cohorts: @@ at both ends, all four boundary symbols between adjacent
    tokens, one path per reading x candidate-tag combination per token.

    The automaton is deterministic by construction: each cohort is a trie
    of its readings and candidates, keyed by (state, symbol), whose
    branches rejoin at the cohort's one exit state, so readings whose
    printed symbol sequences coincide share one path.  It is canonically
    numbered, so identical inputs yield identical automata, and trim as
    long as every cohort has a reading, as every `lookup` cohort does.
    It is marked trim (`Dfa._trimmed`) when every state but the final one
    has an edge: the start reaches every state, and in an acyclic
    automaton every path along edges then ends at the final one.

    `alphabet` is closed: the rules were compiled over it, so a marker or
    tag it does not hold raises TagError rather than growing it.  So does
    a function tag that one candidate at a trie state pairs with a
    clause-function tag and another does not (`map_syntax` fixes the
    pairing per tag, so it never makes one).
    """
    if not cohorts:
        raise ValueError("cannot build a lattice for zero cohorts")
    ftag_ids = frozenset(alphabet.id_of(t) for t in registry.function_tags)
    morph_guard = set(registry.function_tags) | set(registry.clause_tags) | set(
        registry.boundary_tags
    )
    sentence_mark = alphabet.id_of("@@")
    boundary_ids = [alphabet.id_of(t) for t in registry.boundary_tags if t != "@@"]

    rows = []  # per state, a dict from symbol id to target state

    def new_state():
        rows.append({})
        return len(rows) - 1

    def child(state, sym):
        """The trie state after `sym` from `state`, made on first use."""
        target = rows[state].get(sym)
        if target is None:
            target = rows[state][sym] = new_state()
        return target

    entry = child(new_state(), sentence_mark)
    for index, cohort in enumerate(cohorts):
        word_text = word_symbol(cohort.surface)
        if word_text not in alphabet:
            word_text = UNKNOWN_WORD_SYMBOL
        word_state = child(entry, alphabet.id_of(word_text))
        exit_state = new_state()
        for mapped in cohort.readings:
            reading = mapped.reading
            state = word_state
            for text in tuple(reading.markers) + tuple(reading.tags):
                if text in morph_guard:
                    raise TagError(
                        f"morphological symbol {text!r} collides with a registered tag"
                    )
                if text not in alphabet:
                    raise TagError(
                        f"morphological symbol {text!r} is not in the closed alphabet"
                    )
                state = child(state, alphabet.id_of(text))
            for ftag, ctag in mapped.candidates:
                fid = alphabet.id_of(ftag)
                if fid not in ftag_ids:
                    raise TagError(f"function tag {ftag!r} is not registered")
                if ctag is None:
                    target = rows[state].setdefault(fid, exit_state)
                else:
                    target = child(state, fid)
                # a clause-function tag follows `fid` iff it leads to a state of its own
                if (target == exit_state) != (ctag is None):
                    raise TagError(
                        f"function tag {ftag!r} of {cohort.surface!r} comes both"
                        " with and without a clause-function tag"
                    )
                if ctag is not None:
                    rows[target][alphabet.id_of(ctag)] = exit_state
        if index + 1 < len(cohorts):
            entry = new_state()
            for sym in boundary_ids:
                rows[exit_state][sym] = entry
        else:
            final = new_state()
            rows[exit_state][sentence_mark] = final

    def expand(state):
        by_target = {}
        for sym, target in rows[state].items():
            by_target.setdefault(target, []).append(sym)
        edges = [(frozenset(syms), target) for target, syms in by_target.items()]
        return state == final, edges

    dfa = _canonical(alphabet, 0, expand)
    dfa._trimmed = all(edges or s in dfa.finals for s, edges in enumerate(dfa.transitions))
    ambiguity = tuple((len(c.readings), c.combinations) for c in cohorts)
    return SentenceLattice(dfa, tuple(cohorts), registry, ambiguity)


def reading_count(lattice):
    """Exact number of sentence readings: the count of the lattice's
    `Chain`, which every parse starts from."""
    return Chain(lattice.automaton).count
