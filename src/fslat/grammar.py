"""Rule language: constants, classes, implication rules and reject rules.

Concrete syntax (one statement per `;`, `#` starts a comment):

    Name = pattern ;              constant definition
    Name := sym sym ... ;         class definition (a set of symbols)
    Target => L _ R , L _ R ;     implication rule
    ! pattern ;                   reject rule

Pattern operators: juxtaposition concatenates, `|` is union, postfix `*`
is Kleene star, `(...)` groups, `[...]` is option, `..` is the
within-clause gap, and `...` the anywhere gap.  Groups, options and
constant references nest at most `MAX_NESTING` levels deep.

`_` marks the target position in a rule context, exactly once per
context and at its top level: not inside a group or option, not starred,
and never in a target, a reject rule, a constant or a class.

An implication rule accepts a string w iff for every factorization
w = u x v with x in the target's language there is some context i with
u in S*.L(left_i) and v in L(right_i).S*.  A reject rule accepts w iff
it contains no occurrence of its pattern at all.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace

from .automata import (
    BOUNDARY_TEXTS,
    Alphabet,
    Alt,
    Dfa,
    Opt,
    Pat,
    PatternError,
    Seq,
    Star,
    Syms,
    _canonical,
    _moore,
    _position_dfa,
    _walk_positions,
    expand_blocks,
    minimize,
    nullable,
    pattern_dfa,
)


class GrammarError(Exception):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" (line {line})" if col is None else f" (line {line}, column {col})"
        super().__init__(message + where)
        self.line = line
        self.col = col


class GrammarParseError(GrammarError):
    pass


class GrammarCompileError(GrammarError):
    pass


#: How many groups and options may nest, and how many groups, options and
#: constant references may enclose a name.  Walks over a pattern tree
#: recurse once per level, so this keeps them far from the recursion limit.
MAX_NESTING = 32


@dataclass(frozen=True)
class Gap(Pat):
    """`..` (within_clause=True) or `...` (within_clause=False)."""

    within_clause: bool


@dataclass(frozen=True)
class ImplicationRule:
    name: str
    target: Pat
    contexts: tuple  # of (left, right) pattern pairs
    line: int = None


@dataclass(frozen=True)
class RejectRule:
    name: str
    pattern: Pat
    line: int = None


@dataclass(frozen=True)
class Grammar:
    constants: dict
    classes: dict  # name -> tuple of symbol texts
    rules: tuple


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in order at each offset.  A name
# may contain '<' and '>' but not start with '<': that form is reserved for
# `<word>` symbols and markers.  A lone '.', ':' or unterminated '<' falls
# through to BAD.
_TOKENS = re.compile(
    r"""
      (?P<SPACE>[ \t\r\n]+ | \#[^\n]*)
    | (?P<ANYGAP>\.\.\.) | (?P<GAP>\.\.) | (?P<CLASSDEF>:=) | (?P<ARROW>=>) | (?P<EQUALS>=)
    | (?P<LPAR>\() | (?P<RPAR>\)) | (?P<LBRK>\[) | (?P<RBRK>\]) | (?P<PIPE>\|)
    | (?P<STAR>\*) | (?P<COMMA>,) | (?P<SEMI>;) | (?P<HOLE>_) | (?P<BANG>!)
    | (?P<NAME> <[^<>\n]*> | [^<\ \t\r\n\#()\[\];,|*_.=:] [^\ \t\r\n\#()\[\];,|*_.=:]*)
    | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int
    offset: int  # into the source text


def _lex(text):
    tokens = []
    line, line_start = 1, 0  # offset of the current line's first character
    for match in _TOKENS.finditer(text):
        kind, word, offset = match.lastgroup, match.group(), match.start()
        col = offset - line_start + 1
        if kind == "SPACE":
            if "\n" in word:
                line += word.count("\n")
                line_start = offset + word.rindex("\n") + 1
        elif kind == "BAD":
            message = (
                "unterminated angle-bracket symbol" if word == "<"
                else f"unexpected character {word!r}"
            )
            raise GrammarParseError(message, line, col)
        else:
            tokens.append(Token(kind, word, line, col, offset))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1, len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # groups and options open at the current token

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, shown=None):
        """The next token, which must be of `kind` (named `shown` in the
        error).  Every `_` that is not at the top level of a rule context
        ends up here, so this is where it is reported."""
        tok = self.next()
        if tok.kind != kind:
            message = (
                "'_' is only legal at the top level of a rule context"
                if tok.kind == "HOLE"
                else f"expected {shown or kind}, found {tok.text!r}"
            )
            raise GrammarParseError(message, tok.line, tok.col)
        return tok

    def at(self, kind):
        return self.peek().kind == kind

    # pattern := alt ; alt := seq { '|' seq } ; seq := { postfix } ;
    # postfix := atom { '*' } ; atom := NAME | '(' alt ')' | '[' alt ']' | gap
    _ATOM_STARTS = ("NAME", "LPAR", "LBRK", "GAP", "ANYGAP")

    def parse_alt(self):
        parts = [self.parse_seq()]
        while self.at("PIPE"):
            self.next()
            parts.append(self.parse_seq())
        if len(parts) == 1:
            return parts[0]
        return Alt(tuple(parts))

    def parse_seq(self):
        parts = []
        while self.peek().kind in self._ATOM_STARTS:
            parts.append(self.parse_postfix())
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts))

    def parse_postfix(self):
        atom = self.parse_atom()
        while self.at("STAR"):
            self.next()
            if not isinstance(atom, Star):  # X** is X*
                atom = Star(atom)
        return atom

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "NAME":
            return _NameRef(tok.text, tok.line, tok.col, self.depth)
        if tok.kind == "GAP":
            return Gap(within_clause=True)
        if tok.kind == "ANYGAP":
            return Gap(within_clause=False)
        # LPAR or LBRK
        if self.depth == MAX_NESTING:
            message = f"groups and options nest deeper than {MAX_NESTING} levels"
            raise GrammarParseError(message, tok.line, tok.col)
        self.depth += 1
        inner = self.parse_alt()
        self.depth -= 1
        if tok.kind == "LPAR":
            self.expect("RPAR")
            return inner
        self.expect("RBRK")
        return Opt(inner)

    def parse_context(self):
        """context := seq '_' seq.  Every `_` at the context's top level
        is read before their count is checked, so a syntax error after a
        second `_` is reported first."""
        first = self.peek()
        sides = [self.parse_seq()]
        while self.at("HOLE"):
            self.next()
            if self.at("STAR"):
                tok = self.peek()
                raise GrammarParseError("'_' cannot be starred", tok.line, tok.col)
            sides.append(self.parse_seq())
        if len(sides) != 2:
            raise GrammarParseError(
                "each rule context needs exactly one '_'", first.line, first.col
            )
        return tuple(sides)


@dataclass(frozen=True)
class _NameRef(Pat):
    """A bare name: constant, class, or symbol; decided during expansion
    and final resolution against the alphabet.  `depth` counts the groups
    and options around it."""

    name: str
    line: int = None
    col: int = None
    depth: int = 0


def _source_slice(text, start_tok, end_tok):
    return " ".join(text[start_tok.offset : end_tok.offset].split())


def parse_grammar(text):
    """Parse grammar source into constants, classes and rules."""
    tokens = _lex(text)
    parser = _Parser(tokens)
    constants = {}
    classes = {}
    rules = []
    names_seen = {}

    def unique(name):
        count = names_seen.get(name, 0)
        names_seen[name] = count + 1
        return name if count == 0 else f"{name}#{count + 1}"

    while not parser.at("EOF"):
        tok = parser.peek()
        if tok.kind == "BANG":
            parser.next()
            start = parser.peek()
            pattern = parser.parse_alt()
            end = parser.peek()
            parser.expect("SEMI")
            name = unique("! " + _source_slice(text, start, end))
            rules.append(RejectRule(name, pattern, line=tok.line))
            continue
        if tok.kind == "NAME" and parser.peek(1).kind in ("EQUALS", "CLASSDEF"):
            parser.next()
            if parser.next().kind == "EQUALS":
                table, value = constants, parser.parse_alt()
                parser.expect("SEMI")
            else:
                members = []
                while parser.at("NAME"):
                    members.append(parser.next().text)
                parser.expect("SEMI")
                if not members:
                    raise GrammarParseError(
                        "a class needs at least one member symbol", tok.line, tok.col
                    )
                table, value = classes, tuple(members)
            if tok.text in constants or tok.text in classes:
                raise GrammarParseError(
                    f"duplicate definition of {tok.text!r}", tok.line, tok.col
                )
            table[tok.text] = value
            continue
        # implication rule: pattern '=>' contexts ';'
        start = tok
        target = parser.parse_alt()
        end = parser.peek()
        parser.expect("ARROW", "'=>'")
        contexts = [parser.parse_context()]
        while parser.at("COMMA"):
            parser.next()
            contexts.append(parser.parse_context())
        parser.expect("SEMI")
        name = unique(_source_slice(text, start, end))
        rules.append(
            ImplicationRule(name, target, tuple(contexts), line=start.line)
        )

    if not rules and not constants and not classes:
        raise GrammarParseError("empty grammar", 1, 1)
    return Grammar(constants, classes, tuple(rules))


# ---------------------------------------------------------------------------
# Constant and class expansion
# ---------------------------------------------------------------------------


def expand_constants(grammar):
    """Inline every constant in every rule.  The result's rules contain
    only bare names (classes and symbols, left for `_resolve`) and gaps.
    Cyclic constants are an error, and so is a name inside more than
    `MAX_NESTING` groups, options and constant references; a name is
    checked before its constant is expanded, so no expansion goes deeper."""

    cache = {}  # (constant name, level of its content) -> expansion

    def expand(pat, stack, base):
        def inline(leaf):
            if not isinstance(leaf, _NameRef):
                return leaf
            level = base + leaf.depth
            if level > MAX_NESTING:
                message = f"groups, options and constants nest deeper than {MAX_NESTING} levels"
                raise GrammarCompileError(message, leaf.line, leaf.col)
            name = leaf.name
            if name not in grammar.constants:
                return leaf
            if name in stack:
                cycle = " -> ".join(list(stack) + [name])
                raise GrammarCompileError(
                    f"cyclic constant definition: {cycle}", leaf.line, leaf.col
                )
            key = (name, level + 1)
            if key not in cache:
                cache[key] = expand(grammar.constants[name], stack + (name,), level + 1)
            return cache[key]

        return _map_leaves(pat, inline)

    rules = tuple(_map_rule(rule, lambda pat: expand(pat, (), 0)) for rule in grammar.rules)
    return Grammar(dict(grammar.constants), dict(grammar.classes), rules)


def _map_leaves(pat, leaf):
    """`pat` rebuilt with `leaf(node)` in place of every node that is not a
    sequence, union, star or option."""
    if isinstance(pat, Seq):
        return Seq(tuple(_map_leaves(p, leaf) for p in pat.parts))
    if isinstance(pat, Alt):
        return Alt(tuple(_map_leaves(p, leaf) for p in pat.parts))
    if isinstance(pat, Star):
        return Star(_map_leaves(pat.inner, leaf))
    if isinstance(pat, Opt):
        return Opt(_map_leaves(pat.inner, leaf))
    return leaf(pat)


def _map_rule(rule, f):
    """`rule` with `f` applied to its pattern, or to its target and each
    side of each context."""
    if isinstance(rule, RejectRule):
        return replace(rule, pattern=f(rule.pattern))
    return replace(
        rule,
        target=f(rule.target),
        contexts=tuple((f(left), f(right)) for left, right in rule.contexts),
    )


def _resolve(pat, alphabet):
    """Rewrite a constant-free pattern so every atom is a `Syms` node over
    `alphabet`; the one place where names and gaps become symbol ids.

    `..` becomes (any symbol outside the alphabet's `CLB` class)* and `...`
    becomes (any symbol)*.  A bare name is a class when the alphabet
    defines a class of that name, else a symbol; so a bare `CLB` and the
    `..` gap always agree on the clause-breaking set.
    """

    def atom(leaf):
        if isinstance(leaf, Gap):
            excluded = alphabet.classes["CLB"] if leaf.within_clause else ()
            return Star(Syms(alphabet.id_set().difference(excluded)))
        if isinstance(leaf, _NameRef):
            members = alphabet.classes.get(leaf.name)
            if members is not None:
                return Syms(members)
            if leaf.name in alphabet:
                return Syms(frozenset((alphabet.id_of(leaf.name),)))
            raise PatternError(
                f"unknown symbol or class {leaf.name!r}", leaf.line, leaf.col
            )
        raise TypeError(f"not a constant-free pattern: {leaf!r}")

    return _map_leaves(pat, atom)


def resolve_rule(rule, alphabet):
    """Lower gaps and resolve every atom of a constant-free rule to symbol
    id sets over `alphabet`, whose classes (its `CLB` among them) bind
    every class name."""
    return _map_rule(rule, lambda pat: _resolve(pat, alphabet))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledRule:
    name: str
    automaton: Dfa


def _refine(blocks, labels):
    """`blocks` with each split by every label into the part inside it
    and the part outside."""
    for label in labels:
        split = []
        for block in blocks:
            inside = block & label
            if inside and inside != block:
                split += (inside, block - inside)
            else:
                split.append(block)
        blocks = split
    return blocks


def rule_blocks(resolved, alphabet):
    """The coarsest split of Σ into blocks such that Σ and every atom of
    the resolved rule are unions of blocks, sorted by smallest symbol.

    Returns `(blocks, atom_blocks)`: a tuple of frozensets of symbol ids,
    and a dict from each atom's id set (and Σ's) to the sorted tuple of
    the block numbers it is the union of.  A block alphabet needs the
    five ids an `Alphabet` reserves, so a rule with fewer blocks is split
    further, on the boundary symbols; no block is ever empty.
    """
    sigma = alphabet.id_set()
    labels = {sigma: None}

    def collect(atom):
        labels[atom.ids] = None
        return atom

    _map_rule(resolved, lambda pat: _map_leaves(pat, collect))
    blocks = _refine([sigma], labels)
    if len(blocks) < len(BOUNDARY_TEXTS):
        reserved = [frozenset((sym,)) for sym in range(len(BOUNDARY_TEXTS))]
        blocks = _refine(blocks, reserved)
    blocks = tuple(sorted(blocks, key=min))
    atom_blocks = {
        label: tuple(b for b, block in enumerate(blocks) if block <= label)
        for label in labels
    }
    return blocks, atom_blocks


def compile_rule(rule, alphabet):
    """Compile one constant-free rule to a DFA accepting exactly the
    non-violating strings over `alphabet`, resolved by `resolve_rule`.

    Every pattern goes straight to a DFA by `automata.pattern_dfa`, and
    no construction complements an automaton or inserts a marker symbol.
    A reject rule is compiled by `_compile_reject`: the DFA of sigma*
    pattern, with every edge into a final state struck and only the
    other states final.  Implication rules take one of two
    constructions, chosen by `_compile_implication`:

    - A rule whose target is one symbol set and whose every context has
      an empty or nullable right side (18 of the 48 demo rules: `@MV`,
      `@CS`, `INF`, `OBJ@`, ...) is compiled by `_compile_left_context`:
      one DFA of sigma* followed by any left side tells, after each
      prefix, whether an occurrence right there is licensed, and the
      target's symbols are struck from the states where it is not.
    - Every other rule (right or two-sided contexts such as `Subject` and
      `@/`, or a longer target: the other 12 demo implication rules) is
      compiled by `_obligation_dfa`, one subset construction that steps
      the left sides, the target occurrences under way and the right
      sides they still owe, all at once.

    All three end in `minimize`, whose output is the canonical minimal
    DFA of the rule's language.  So a reject rule gives the minimal
    complement of the DFA of sigma* pattern sigma*, and an implication
    rule the DFA that the marker construction of the restriction
    operator (Kaplan & Kay 1994) gives; both routes stay in the tests as
    referees (`tests/util.complement_reject`, `tests/util.marker_compile`).

    The construction runs over the rule's own blocks (`rule_blocks`), one
    symbol per block, not over `alphabet`: symbols of one block occur in
    exactly the same atoms, so no rule can tell them apart, and a string
    is accepted iff its string of blocks is.  Each label of the minimal
    block DFA is then expanded to the union of its blocks' symbols.  That
    expansion is already the canonical minimal DFA over `alphabet`: the
    two minimal DFAs have the same states and edges, and since block
    numbers follow smallest symbols, sorting a state's edges by smallest
    block sorts them by smallest symbol, so breadth-first numbering gives
    the same states the same numbers.  The rule's trigger set
    (`Dfa.trigger_symbols`) is found over the block DFA and expanded the
    same way (`expand_blocks`), so a build pays for it once per rule.
    """
    resolved = resolve_rule(rule, alphabet)
    blocks, atom_blocks = rule_blocks(resolved, alphabet)
    relabel = {ids: Syms(frozenset(bs)) for ids, bs in atom_blocks.items()}
    block_rule = _map_rule(
        resolved, lambda pat: _map_leaves(pat, lambda atom: relabel[atom.ids])
    )
    block_alphabet = Alphabet(
        f"\x00block{b}" for b in range(len(BOUNDARY_TEXTS), len(blocks))
    )
    if isinstance(block_rule, RejectRule):
        block_dfa = _compile_reject(block_rule, block_alphabet)
    else:
        block_dfa = _compile_implication(block_rule, block_alphabet)
    return CompiledRule(rule.name, expand_blocks(block_dfa, blocks, alphabet))


def _compile_reject(rule, alphabet):
    """The DFA of the strings with no occurrence of `rule`'s pattern P.

    The position construction of sigma* P is complete, as in
    `_compile_left_context`, and after reading u it is in a final state
    iff an occurrence of P ends right there.  So with every edge into a
    final state struck and only the other states made final, it accepts
    exactly the strings where no occurrence ends; `minimize` makes it the
    canonical minimal DFA.  A nullable P ends an occurrence after every
    prefix, so every state is final and nothing is accepted; a P with the
    empty language leaves no state final, so everything is."""
    ends = pattern_dfa(Seq((_any_star(alphabet), rule.pattern)), alphabet)
    finals = ends.finals
    transitions = [
        [(label, dst) for label, dst in edges if dst not in finals]
        for edges in ends.transitions
    ]
    return minimize(Dfa(alphabet, transitions, set(range(len(transitions))) - finals))


def _compile_implication(rule, alphabet):
    """The DFA of the strings that `rule`, resolved over `alphabet`, does
    not reject.  A one-symbol target with only left contexts goes to
    `_compile_left_context`; a context whose right side is nullable
    licenses every right side, as an empty one does.  Every other rule
    goes to `_obligation_dfa`, whose subset DFA is minimized here."""
    target = rule.target
    if nullable(target):
        raise GrammarCompileError(
            f"rule {rule.name!r}: target accepts the empty string, "
            "occurrence positions would be ill-defined",
            rule.line,
        )
    if isinstance(target, Syms) and all(nullable(right) for _, right in rule.contexts):
        return _compile_left_context(rule, alphabet)
    return minimize(_obligation_dfa(rule, alphabet))


def _obligation_dfa(rule, alphabet):
    """A DFA, not yet minimal, of the strings that the implication `rule`
    (its target not nullable) accepts: those where every occurrence
    u x v of the target has a context i with u in sigma* L_i and v in
    R_i sigma*.

    One subset construction over triples `(left, runs, pending)`, with no
    marker symbol:

    - `left` is a state of the DFA of sigma* (L_1 | ... | L_n), whose
      states are sets of positions (`_walk_positions`).  Context i's left
      side has just matched iff the set holds one of L_i's last
      positions, or always when L_i is nullable.  An occurrence starting
      there gets the obligation of one disjunct per such context: the
      start of the minimal DFA of R_i sigma*.  Left states that owe the
      same obligation now and after every string are merged first
      (`automata._moore`), which takes `Subject` from 120 triples to 83.
    - `runs` is a set of `(target state, obligation)` pairs, one for each
      occurrence under way: a run starts at every point, and where it
      reaches a final state of the target's DFA an occurrence ends and
      its obligation falls due.  A point where some context with a
      nullable R_i has just matched starts no run, since every occurrence
      there is licensed.
    - `pending` is a set of obligations fallen due, each a set of the
      disjuncts still alive.  The DFAs of the distinct right sides are
      numbered together, so a disjunct is one int.  An obligation is
      met, and dropped, once one disjunct reaches a final state, after
      which R_i sigma* accepts anything; one that is a strict superset of
      another is dropped too.
      A symbol on which every disjunct of an obligation dies, or on which
      an occurrence that no context licenses ends, is a violation and
      gets no edge.

    A triple is accepting iff nothing is pending.  No marker is inserted
    and no marked automaton built, so no subset construction runs after
    one; `minimize` then gives the canonical minimal DFA, the marker
    construction's (`tests/util.marker_compile`).
    """
    target = minimize(pattern_dfa(rule.target, alphabet))
    if not target.finals:
        raise GrammarCompileError(
            f"rule {rule.name!r}: target denotes the empty language", rule.line
        )
    any_star = _any_star(alphabet)
    right_starts = {}  # right side -> its start disjunct
    steps = []  # per disjunct: symbol -> disjunct, over all right-side DFAs
    met = set()  # the disjuncts at a final state: the right side has matched
    for _, right in rule.contexts:
        if right not in right_starts:
            side = minimize(pattern_dfa(Seq((right, any_star)), alphabet))
            base = right_starts[right] = len(steps)
            steps += [{sym: base + dst for label, dst in edges for sym in label}
                      for edges in side.transitions]
            met.update(base + s for s in side.finals)

    labels, follow = [], []
    _walk_positions(any_star, labels, follow)  # position 0, which follows itself
    licensing = []  # per context: (last positions of its left side or None, right start)
    for left, right in rule.contexts:
        null, first, last = _walk_positions(left, labels, follow)
        follow[0] |= first
        licensing.append((None if null else last, right_starts[right]))
    follow.append(follow[0])  # the start's, as pseudo-position -1
    owed = []  # per left state: the obligation of an occurrence starting there

    def owes(positions):  # called in the order the left states are numbered
        starts = {start for last, start in licensing
                  if last is None or not last.isdisjoint(positions)}
        owed.append(None if not met.isdisjoint(starts) else frozenset(starts))
        return False

    # left states that oblige alike now and after every string are merged
    positions = _position_dfa(alphabet, labels, follow, owes)._symbol_index()
    numbered = {}
    cls, reps = _moore(positions, [numbered.setdefault(o, len(numbered)) for o in owed])
    left_index = [{sym: cls[dst] for sym, dst in positions[reps[c]].items()}
                  for c in range(len(reps))]
    owed = [owed[reps[c]] for c in range(len(reps))]
    target_index = target._symbol_index()
    target_finals = target.finals
    sigma = alphabet.id_set()

    @functools.cache
    def run_moves(runs):
        """Per symbol, `(runs stepped, obligations due)`, or None where an
        occurrence that no context licenses ends."""
        moves = {}
        for sym in sigma:
            stepped, due = set(), set()
            for t, obligation in runs:
                t = target_index[t].get(sym)
                if t is None:
                    continue
                if t in target_finals:
                    if not obligation:
                        moves[sym] = None
                        break
                    due.add(obligation)
                if target_index[t]:
                    stepped.add((t, obligation))
            else:
                moves[sym] = (frozenset(stepped), _strictest(due))
        return moves

    @functools.cache
    def pending_moves(pending):
        """Per symbol, the obligations of `pending` not yet met, each with
        its disjuncts stepped, or None where one of them fails."""
        moves = {}
        for sym in sigma:
            still = set()
            for obligation in pending:
                alive = []
                for d in obligation:
                    d = steps[d].get(sym)
                    if d is not None:
                        if d in met:
                            break
                        alive.append(d)
                else:
                    if not alive:
                        moves[sym] = None
                        break
                    still.add(frozenset(alive))
            else:
                moves[sym] = _strictest(still)
        return moves

    def expand(state):
        left, runs, pending = state
        by_runs, by_pending = run_moves(runs), pending_moves(pending)
        grouped = {}
        for sym, next_left in left_index[left].items():
            moved, still = by_runs[sym], by_pending[sym]
            if moved is None or still is None:
                continue  # a violation
            stepped, due = moved
            obligation = owed[next_left]
            if obligation is not None:
                stepped = stepped | {(0, obligation)}
            if still:
                due = _strictest(due | still) if due else still
            key = (next_left, stepped, due)
            got = grouped.get(key)
            if got is None:
                grouped[key] = [sym]
            else:
                got.append(sym)
        return not pending, [(frozenset(syms), key) for key, syms in grouped.items()]

    runs = frozenset() if owed[0] is None else frozenset(((0, owed[0]),))
    return _canonical(alphabet, (0, runs, frozenset()), expand)


def _strictest(obligations):
    """The frozenset of `obligations` without those that hold another one:
    a superset is met whenever the other is."""
    if len(obligations) > 1:
        obligations = [o for o in obligations if not any(p < o for p in obligations)]
    return frozenset(obligations)


def _compile_left_context(rule, alphabet):
    """`_compile_implication` for a target that is one symbol set and
    contexts that each license any right side.

    Such a rule rejects a string iff some occurrence of a target symbol
    follows a prefix u in no sigma* L_i.  The position construction of
    sigma* (L_1 | ... | L_n) is complete: every state holds the sigma*
    position, which steps every symbol back to itself.  After reading u
    it is in a final state iff u is in some sigma* L_i.  So with the
    target's symbols struck from the edges of its non-final states and
    every state made final, it accepts exactly the rule's strings;
    `minimize` makes it the canonical minimal DFA, the one the marker
    construction gives."""
    ids = rule.target.ids
    if not ids:
        raise GrammarCompileError(
            f"rule {rule.name!r}: target denotes the empty language", rule.line
        )
    lefts = Alt(tuple(left for left, _ in rule.contexts))
    licensed = pattern_dfa(Seq((_any_star(alphabet), lefts)), alphabet)
    transitions = [
        edges if state in licensed.finals
        else [(label - ids, dst) for label, dst in edges if not label <= ids]
        for state, edges in enumerate(licensed.transitions)
    ]
    return minimize(Dfa(alphabet, transitions, range(len(transitions))))


def _any_star(alphabet):
    return Star(Syms(alphabet.id_set()))


def compile_grammar(grammar, alphabet):
    """Expand constants and compile every rule over `alphabet`."""
    expanded = expand_constants(grammar)
    return tuple(compile_rule(rule, alphabet) for rule in expanded.rules)


def grammar_symbol_texts(grammar, class_names):
    """Every symbol text a grammar mentions, sorted; used to seed the
    pipeline alphabet.  That is every member of a grammar class, and every
    name in a rule or constant that the alphabet will not bind as a class
    or the grammar as a constant.  `class_names` are the alphabet's
    classes besides the grammar's own and `CLB`, which every alphabet
    has."""
    bound = {"CLB", *class_names, *grammar.classes, *grammar.constants}
    texts = {member for members in grammar.classes.values() for member in members}

    def collect(leaf):
        if isinstance(leaf, _NameRef) and leaf.name not in bound:
            texts.add(leaf.name)
        return leaf

    for pattern in grammar.constants.values():
        _map_leaves(pattern, collect)
    for rule in grammar.rules:
        _map_rule(rule, lambda pat: _map_leaves(pat, collect))
    return sorted(texts)


# ---------------------------------------------------------------------------
# Brute-force oracle
#
# Evaluates the declarative rule semantics directly on a symbol string by
# scanning every factorization.  Matching is a memoized position-set walk
# over the pattern tree; no automata are involved, so this is an
# independent reference for compile_rule.
# ---------------------------------------------------------------------------


class _Matcher:
    def __init__(self, seq):
        self.seq = seq
        self.memo = {}

    def ends(self, pat, start):
        """All positions j such that seq[start:j] matches pat."""
        key = (id(pat), start)
        got = self.memo.get(key)
        if got is not None:
            return got
        self.memo[key] = frozenset()  # guards star recursion
        seq = self.seq
        if isinstance(pat, Syms):
            if start < len(seq) and seq[start] in pat.ids:
                result = frozenset((start + 1,))
            else:
                result = frozenset()
        elif isinstance(pat, Seq):
            positions = {start}
            for part in pat.parts:
                nxt = set()
                for p in positions:
                    nxt |= self.ends(part, p)
                positions = nxt
                if not positions:
                    break
            result = frozenset(positions)
        elif isinstance(pat, Alt):
            result = frozenset().union(*(self.ends(p, start) for p in pat.parts)) if pat.parts else frozenset()
        elif isinstance(pat, Star):
            positions = {start}
            frontier = {start}
            while frontier:
                nxt = set()
                for p in frontier:
                    nxt |= self.ends(pat.inner, p)
                frontier = nxt - positions
                positions |= nxt
            result = frozenset(positions)
        elif isinstance(pat, Opt):
            result = self.ends(pat.inner, start) | {start}
        else:
            raise TypeError(f"oracle needs a resolved pattern, got {pat!r}")
        self.memo[key] = result
        return result


@functools.lru_cache(maxsize=256)
def _oracle_rule(rule, alphabet):
    """`resolve_rule` for the oracle, which asks for the same rule and
    alphabet once per string it checks."""
    return resolve_rule(rule, alphabet)


def brute_force_accepts(rule, symbols, alphabet):
    """Reference decision: does `symbols` survive `rule`, resolved over
    `alphabet` as `compile_rule` resolves it?

    Direct evaluation of the factorization semantics; quadratic per string
    and intended for strings up to a few hundred symbols.
    """
    symbols = tuple(symbols)
    if len(symbols) > 200:
        raise ValueError("oracle bound exceeded (200 symbols)")
    resolved = _oracle_rule(rule, alphabet)
    matcher = _Matcher(symbols)

    if isinstance(resolved, RejectRule):
        for i in range(len(symbols) + 1):
            if matcher.ends(resolved.pattern, i):
                return False
        return True

    n = len(symbols)
    for i in range(n + 1):
        for j in matcher.ends(resolved.target, i):
            licensed = False
            for left, right in resolved.contexts:
                # u = symbols[:i] must end with a match of `left`
                left_ok = any(i in matcher.ends(left, k) for k in range(i + 1))
                if not left_ok:
                    continue
                # v = symbols[j:] must start with a match of `right`
                if matcher.ends(right, j):
                    licensed = True
                    break
            if not licensed:
                return False
    return True
