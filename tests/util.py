"""Shared test helpers: independent oracles and random instance builders."""

import itertools
import random

from fslat.automata import Alphabet, Dfa, Nfa, determinize, trim


def exhaustive_strings(symbols, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(symbols, repeat=length)


def language_up_to(dfa, symbols, max_len):
    return {w for w in exhaustive_strings(symbols, max_len) if dfa.accepts(w)}


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
