"""Shared test helpers: independent oracles and random instance builders."""

import itertools
import math
import random

from fslat.automata import (
    Alphabet,
    Dfa,
    Nfa,
    Seq,
    Syms,
    complement,
    determinize,
    difference,
    erase_symbol,
    from_pattern,
    intersect,
    is_empty,
    minimize,
    nullable,
    trim,
)
from fslat.grammar import _MARK, GrammarCompileError, _any_star
from fslat.lattice import UNKNOWN_WORD_SYMBOL, TagError, word_symbol


def exhaustive_strings(symbols, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(symbols, repeat=length)


def language_up_to(dfa, symbols, max_len):
    return {w for w in exhaustive_strings(symbols, max_len) if dfa.accepts(w)}


def language_equal(a, b):
    """Language equivalence via emptiness of the symmetric difference."""
    return is_empty(difference(a, b)) and is_empty(difference(b, a))


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
    scratch = alphabet.extended(_MARK)
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
    violating = determinize(erase_symbol(bad, mark))
    violating = Dfa(alphabet, violating.transitions, violating.finals)
    return minimize(complement(violating))
