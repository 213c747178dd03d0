"""Shared test helpers: independent oracles and random instance builders."""

import itertools
import math
import random

from fslat.automata import (
    Alphabet,
    Alt,
    Dfa,
    Opt,
    Seq,
    Star,
    Syms,
    _canonical,
    _product_edges,
    _search,
    intersect,
    is_empty,
    minimize,
    nullable,
    pattern_dfa,
    trim,
)
from fslat.grammar import GrammarCompileError, _any_star
from fslat.lattice import UNKNOWN_WORD_SYMBOL, TagError, word_symbol


def exhaustive_strings(symbols, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(symbols, repeat=length)


def language_up_to(dfa, symbols, max_len):
    return {w for w in exhaustive_strings(symbols, max_len) if dfa.accepts(w)}


def language_equal(a, b):
    """Language equivalence via emptiness of the symmetric difference."""
    return is_empty(difference(a, b)) and is_empty(difference(b, a))


def dump(dfa):
    """Plain-text DFA dump: one `src TAB symbol TAB dst` line per symbol
    transition ordered by (state id, symbol id, dst), then the final states
    under a `final:` header.  The start state is always 0."""
    alphabet = dfa.alphabet
    rows = []
    for src, edges in enumerate(dfa.transitions):
        for label, dst in edges:
            for sym in label:
                rows.append((src, sym, dst, alphabet.text_of(sym)))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = [f"{src}\t{text}\t{dst}" for src, _, dst, text in rows]
    lines.append("final:")
    lines.extend(str(s) for s in sorted(dfa.finals))
    return "\n".join(lines) + "\n"


# NFAs with epsilon edges and their subset construction: the general
# route from a pattern to a DFA, independent of `automata.pattern_dfa`
# and of `erase_symbol` below.  The oracles `nfa_lattice` and
# `marker_compile` build through it.


class Nfa:
    """Nondeterministic automaton; edge labels are symbol-id frozensets,
    or None for an epsilon edge.  Built by `from_pattern`,
    `nfa_erase_symbol` and `nfa_lattice`, and read by `determinize` and
    `nfa_accepts`."""

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.transitions = []
        self.start = 0
        self.finals = set()

    def add_state(self):
        self.transitions.append([])
        return len(self.transitions) - 1

    def add_edge(self, src, label, dst):
        self.transitions[src].append((label, dst))

    @property
    def n_states(self):
        return len(self.transitions)


def from_pattern(pat, alphabet):
    """Thompson construction: an NFA accepting exactly the pattern's language.

    Handles symbol sets, concatenation, union, star and option.
    """
    nfa = Nfa(alphabet)

    def build(node):
        if isinstance(node, Syms):
            i, o = nfa.add_state(), nfa.add_state()
            nfa.add_edge(i, node.ids, o)
            return i, o
        if isinstance(node, Seq):
            if not node.parts:
                i = nfa.add_state()
                return i, i
            first_in, prev_out = build(node.parts[0])
            for part in node.parts[1:]:
                i, o = build(part)
                nfa.add_edge(prev_out, None, i)
                prev_out = o
            return first_in, prev_out
        if isinstance(node, Alt):
            i, o = nfa.add_state(), nfa.add_state()
            if not node.parts:
                return i, o  # empty union: empty language
            for part in node.parts:
                pi, po = build(part)
                nfa.add_edge(i, None, pi)
                nfa.add_edge(po, None, o)
            return i, o
        if isinstance(node, Star):
            pi, po = build(node.inner)
            i = nfa.add_state()
            nfa.add_edge(i, None, pi)
            nfa.add_edge(po, None, i)
            return i, i
        if isinstance(node, Opt):
            pi, po = build(node.inner)
            i, o = nfa.add_state(), nfa.add_state()
            nfa.add_edge(i, None, pi)
            nfa.add_edge(i, None, o)
            nfa.add_edge(po, None, o)
            return i, o
        raise TypeError(f"not a pattern: {node!r}")

    start, out = build(pat)
    nfa.start = start
    nfa.finals = {out}
    return nfa


def determinize(nfa):
    """Subset construction; the result is deterministic, epsilon-free and
    trimmed to states reachable from the start.  A subset's moves are
    collected per symbol and symbols with the same target closure share
    one edge, so the cost follows the symbols the labels hold: callers
    that step wide classes pass an alphabet already grouped into blocks
    (as `grammar.compile_rule` does)."""
    n = nfa.n_states
    eps = [[] for _ in range(n)]
    sym_edges = [[] for _ in range(n)]
    for src in range(n):
        for label, dst in nfa.transitions[src]:
            if label is None:
                eps[src].append(dst)
            elif label:
                sym_edges[src].append((label, dst))

    closures = {}  # move set -> its epsilon closure

    def closure(states):
        got = closures.get(states)
        if got is None:
            got = closures[states] = frozenset(_search(states, eps))
        return got

    def expand(subset):
        moves = {}
        for state in subset:
            for label, dst in sym_edges[state]:
                for sym in label:
                    moves.setdefault(sym, set()).add(dst)
        grouped = {}
        for sym, dsts in moves.items():
            grouped.setdefault(closure(frozenset(dsts)), []).append(sym)
        edges = [(frozenset(syms), target) for target, syms in grouped.items()]
        return not subset.isdisjoint(nfa.finals), edges

    return _canonical(nfa.alphabet, closure(frozenset((nfa.start,))), expand)


def nfa_erase_symbol(dfa, sym):
    """NFA over the same alphabet accepting the input's language with every
    occurrence of `sym` deleted (the edge becomes an epsilon edge)."""
    nfa = Nfa(dfa.alphabet)
    for _ in range(dfa.n_states):
        nfa.add_state()
    for src, edges in enumerate(dfa.transitions):
        for label, dst in edges:
            if sym in label:
                nfa.add_edge(src, None, dst)
                rest = label - {sym}
                if rest:
                    nfa.add_edge(src, rest, dst)
            else:
                nfa.add_edge(src, label, dst)
    nfa.start = 0
    nfa.finals = set(dfa.finals)
    return nfa


def erase_symbol(dfa, sym):
    """A DFA over the input's alphabet accepting the input's language with
    every occurrence of `sym` deleted.  Subset construction over the
    input's states: each subset is closed under the edges whose label holds
    `sym`, and its edges step every other symbol, symbols with the same
    target closure sharing one edge.  The closures are memoized by the set
    they close."""
    erased = [[dst for label, dst in edges if sym in label] for edges in dfa.transitions]
    stepped = [
        [(label - {sym} if sym in label else label, dst) for label, dst in edges]
        for edges in dfa.transitions
    ]
    closures = {}  # set of states -> its closure under `sym` edges

    def closure(states):
        states = frozenset(states)
        got = closures.get(states)
        if got is None:
            got = closures[states] = frozenset(_search(states, erased))
        return got

    def expand(subset):
        moves = {}
        for state in subset:
            for label, dst in stepped[state]:
                for other in label:
                    moves.setdefault(other, set()).add(dst)
        grouped = {}
        for other, dsts in moves.items():
            grouped.setdefault(closure(dsts), []).append(other)
        edges = [(frozenset(syms), target) for target, syms in grouped.items()]
        return not dfa.finals.isdisjoint(subset), edges

    return _canonical(dfa.alphabet, closure((0,)), expand)


def nfa_accepts(nfa, syms):
    """Simulate the NFA on a symbol-id sequence."""
    current = _eps_closure(nfa.transitions, {nfa.start})
    for sym in syms:
        nxt = set()
        for state in current:
            for label, dst in nfa.transitions[state]:
                if label is not None and sym in label:
                    nxt.add(dst)
        current = _eps_closure(nfa.transitions, nxt)
        if not current:
            return False
    return bool(current & nfa.finals)


# Kept apart from `automata._search`: `nfa_accepts` is the oracle for
# `determinize`.
def _eps_closure(transitions, states):
    seen = set(states)
    stack = list(states)
    while stack:
        state = stack.pop()
        for label, dst in transitions[state]:
            if label is None and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


def closed_form_count(lattice):
    """Product over tokens of their combination counts times 4^(internal
    boundaries); equals `reading_count` for a freshly built lattice whose
    readings have distinct printed forms."""
    total = math.prod(combos for _, combos in lattice.per_token_ambiguity)
    return total * 4 ** (len(lattice.cohorts) - 1)


def random_dfa(rng, alphabet, max_states=8, density=0.7, final_p=0.4):
    """Random trim-free DFA over single-symbol labels."""
    n = rng.randint(1, max_states)
    syms = sorted(alphabet.id_set())
    transitions = []
    for _ in range(n):
        edges = []
        for sym in syms:
            if rng.random() < density:
                edges.append((frozenset((sym,)), rng.randrange(n)))
        transitions.append(tuple(edges))
    finals = frozenset(s for s in range(n) if rng.random() < final_p)
    return Dfa(alphabet, transitions, finals)


def naive_moore_minimal_states(dfa):
    """Textbook partition refinement over per-symbol transition tables,
    written independently of the package's own.
    Returns the state count of the minimal partial DFA (useless states
    removed)."""
    d = trim(dfa)
    if not d.finals:
        return 1
    syms = sorted(d.alphabet.id_set())
    step = []
    for edges in d.transitions:
        row = {}
        for label, dst in edges:
            for sym in label:
                row[sym] = dst
        step.append(row)
    block = [1 if s in d.finals else 0 for s in range(d.n_states)]
    while True:
        sigs = {}
        nxt = []
        for s in range(d.n_states):
            sig = (block[s],) + tuple(
                block[step[s][sym]] if sym in step[s] else -1 for sym in syms
            )
            if sig not in sigs:
                sigs[sig] = len(sigs)
            nxt.append(sigs[sig])
        if nxt == block:
            break
        block = nxt
    return len(set(block))


def per_symbol_moore(dfa):
    """The canonical minimal DFA by Moore's partition refinement with one
    signature entry per symbol the trimmed DFA steps, the quotient
    numbered through `_canonical`.  An oracle for `automata.minimize`,
    which refines over distinct symbol columns instead: both must give
    the same transitions and finals."""
    d = trim(dfa)
    if not d.finals:
        return d
    index = d._symbol_index()
    syms = sorted({sym for row in index for sym in row})
    cls = [1 if s in d.finals else 0 for s in range(d.n_states)]
    ncls = len(set(cls))
    while True:
        sigs = {}
        new_cls = []
        for s, row in enumerate(index):
            sig = (cls[s], tuple(cls[row[sym]] if sym in row else None for sym in syms))
            new_cls.append(sigs.setdefault(sig, len(sigs)))
        cls = new_cls
        if len(sigs) == ncls:
            break
        ncls = len(sigs)
    reps = {}
    for s, c in enumerate(cls):
        reps.setdefault(c, s)

    def expand(c):
        merged = {}
        for label, dst in d.transitions[reps[c]]:
            merged[cls[dst]] = merged.get(cls[dst], frozenset()) | label
        return reps[c] in d.finals, [(label, t) for t, label in merged.items()]

    return _canonical(d.alphabet, cls[0], expand)


def hand_matcher(string, *alternatives):
    """Trivially checks membership in a finite list of strings."""
    return tuple(string) in {tuple(a) for a in alternatives}


def nfa_lattice(cohorts, registry, alphabet):
    """The lattice DFA built the general way, as an oracle for
    `build_lattice`: an NFA with one state per symbol of every reading
    and candidate, determinized by subset construction."""
    ftag_ids = frozenset(alphabet.id_of(t) for t in registry.function_tags)
    morph_guard = set(registry.function_tags) | set(registry.clause_tags) | set(
        registry.boundary_tags
    )

    nfa = Nfa(alphabet)
    start = nfa.add_state()
    nfa.start = start
    sent_open = nfa.add_state()
    nfa.add_edge(start, frozenset((alphabet.id_of("@@"),)), sent_open)
    boundary_label = frozenset(
        alphabet.id_of(t) for t in registry.boundary_tags if t != "@@"
    )

    entry = sent_open
    for index, cohort in enumerate(cohorts):
        exit_state = nfa.add_state()
        word_state = nfa.add_state()
        word_text = word_symbol(cohort.surface)
        if word_text not in alphabet:
            word_text = UNKNOWN_WORD_SYMBOL
        nfa.add_edge(entry, frozenset((alphabet.id_of(word_text),)), word_state)
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
                nxt = nfa.add_state()
                nfa.add_edge(state, frozenset((alphabet.id_of(text),)), nxt)
                state = nxt
            for ftag, ctag in mapped.candidates:
                fid = alphabet.id_of(ftag)
                if fid not in ftag_ids:
                    raise TagError(f"function tag {ftag!r} is not registered")
                if ctag is None:
                    nfa.add_edge(state, frozenset((fid,)), exit_state)
                else:
                    mid = nfa.add_state()
                    nfa.add_edge(state, frozenset((fid,)), mid)
                    nfa.add_edge(mid, frozenset((alphabet.id_of(ctag),)), exit_state)
        if index + 1 < len(cohorts):
            nxt_entry = nfa.add_state()
            nfa.add_edge(exit_state, boundary_label, nxt_entry)
            entry = nxt_entry
        else:
            final = nfa.add_state()
            nfa.add_edge(exit_state, frozenset((alphabet.id_of("@@"),)), final)
            nfa.finals = {final}

    return determinize(nfa)


def complement(dfa):
    """Accepts exactly Sigma* minus the input's language, over its own
    alphabet; trimmed, and so marked trim."""
    alphabet = dfa.alphabet
    sigma = alphabet.id_set()
    n = dfa.n_states
    sink = n
    out = []
    need_sink = False
    for edges in dfa.transitions:
        covered = frozenset().union(*(label for label, _ in edges)) if edges else frozenset()
        rest = sigma - covered
        new_edges = list(edges)
        if rest:
            new_edges.append((rest, sink))
            need_sink = True
        out.append(new_edges)
    states = n
    if need_sink:
        out.append(((sigma, sink),))
        states += 1
    finals = frozenset(s for s in range(states) if s not in dfa.finals)
    return trim(Dfa(alphabet, out, finals))


def complement_reject(rule, alphabet):
    """The DFA of the strings with no occurrence of the reject `rule`'s
    pattern, as the complement of the DFA of sigma* pattern sigma*,
    minimized.  An oracle for `grammar._compile_reject`, which strikes
    the DFA of sigma* pattern instead: both must give the same DFA."""
    occurs = Seq((_any_star(alphabet), rule.pattern, _any_star(alphabet)))
    return minimize(complement(pattern_dfa(occurs, alphabet)))


def extended(alphabet, text):
    """A new alphabet with `text` as one more symbol.  Every existing
    symbol keeps its id, so resolved labels carry over; the copy has only
    the default `CLB` class, and `alphabet` is left as it is."""
    return Alphabet((*map(alphabet.text_of, range(len(alphabet))), text))


_MARK = "\x00mark"


def difference(a, b):
    """Product construction; accepts L(a) - L(b).  Numbered and trimmed as
    `automata.intersect` is: `trim` of the pairs `_canonical` reaches from
    `(0, 0)`, so the result is marked trim.  A symbol that `b` cannot step
    leaves `b` for good: the pair's second state becomes None, and from
    there only `a` is followed.  One product in place of
    `intersect(a, complement(b))`, with the same result."""
    product = _product_edges(a, b)
    a_transitions = a.transitions
    a_finals = a.finals
    b_finals = b.finals
    b_index = b._symbol_index()

    def expand(pair):
        sa, sb = pair
        if sb is None:
            by_target, b_table = {}, {}
        else:
            by_target, b_table = product(sa, sb), b_index[sb]
        for label, da in a_transitions[sa]:
            rest = label.difference(b_table)  # the symbols `b` cannot step
            if rest:
                key = (da, None)
                got = by_target.get(key)
                by_target[key] = rest if got is None else got | rest
        edges = [(label, target) for target, label in by_target.items()]
        return sa in a_finals and sb not in b_finals, edges

    return trim(_canonical(a.alphabet, (0, 0), expand))


def marker_compile(rule, alphabet):
    """The marker construction for an implication rule, without the two
    savings of `grammar._compile_implication`: the marked violations are
    erased unminimized, and each context is subtracted by intersecting
    with its complement.  An oracle: both must give the same DFA."""
    target = rule.target
    if nullable(target):
        raise GrammarCompileError(
            f"rule {rule.name!r}: target accepts the empty string, "
            "occurrence positions would be ill-defined",
            rule.line,
        )
    scratch = extended(alphabet, _MARK)
    mark = scratch.id_of(_MARK)
    base_star = _any_star(alphabet)  # marker-free sigma*
    mark_lit = Syms(frozenset((mark,)))

    marked_occurrence = Seq((base_star, mark_lit, target, mark_lit, base_star))
    bad = determinize(from_pattern(marked_occurrence, scratch))
    # every state of `bad` is reachable, so it has a final state exactly
    # when the target's language is not empty
    if not bad.finals:
        raise GrammarCompileError(
            f"rule {rule.name!r}: target denotes the empty language", rule.line
        )
    for left, right in rule.contexts:
        licensed = Seq((base_star, left, mark_lit, base_star, mark_lit, right, base_star))
        licensed_dfa = determinize(from_pattern(licensed, scratch))
        bad = intersect(bad, complement(licensed_dfa))
        if not bad.finals:  # `intersect` output is trim
            break
    violating = determinize(nfa_erase_symbol(bad, mark))
    violating = Dfa(alphabet, violating.transitions, violating.finals)
    return minimize(complement(violating))
