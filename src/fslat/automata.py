"""Finite-automata kernel over an interned symbol alphabet.

Transitions carry symbol *sets*, not single symbols, so that transitions
labelled with a large symbol class stay compact even when the alphabet has
hundreds of symbols.  All automata are immutable once built and safe to
share between threads; every constructor function returns a fresh object.

A DFA's start state is always state 0 and its states are numbered in
breadth-first discovery order with per-state edges sorted by smallest
symbol id, so structurally identical inputs produce identical automata.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice


class AutomataError(Exception):
    pass


class PatternError(AutomataError):
    """A pattern references a symbol or class the alphabet does not know."""

    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" (line {line})" if col is None else f" (line {line}, column {col})"
        super().__init__(message + where)
        self.line = line
        self.col = col


class InfiniteLanguageError(AutomataError):
    """Path counting was asked for an automaton with a useful cycle."""


class AlphabetMismatchError(AutomataError):
    """Two automata built over different alphabets were combined."""


#: Reserved boundary symbols, always interned first (ids 0..4).
BOUNDARY_TEXTS = ("@@", "@", "@/", "@<", "@>")


@dataclass(frozen=True)
class Symbol:
    id: int
    text: str


class Alphabet:
    """Bijective interning of non-empty symbol texts to dense integer ids.

    Also holds named symbol classes (subsets of the alphabet) that patterns
    may reference by name.
    """

    def __init__(self, texts=()):
        self._ids = {}
        self._texts = []
        self.classes = {}
        for text in BOUNDARY_TEXTS:
            self.intern(text)
        for text in texts:
            self.intern(text)

    def intern(self, text):
        if not text:
            raise ValueError("symbol text must be non-empty")
        sym = self._ids.get(text)
        if sym is None:
            sym = len(self._texts)
            self._ids[text] = sym
            self._texts.append(text)
        return sym

    def id_of(self, text):
        try:
            return self._ids[text]
        except KeyError:
            raise PatternError(f"unknown symbol {text!r}") from None

    def text_of(self, sym):
        return self._texts[sym]

    def __contains__(self, text):
        return text in self._ids

    def __len__(self):
        return len(self._texts)

    def symbols(self):
        return [Symbol(i, t) for i, t in enumerate(self._texts)]

    def id_set(self):
        return frozenset(range(len(self._texts)))

    def define_class(self, name, texts):
        """Register (or redefine) a named class; members are interned."""
        members = frozenset(self.intern(t) for t in texts)
        self.classes[name] = members
        return members

    def class_of(self, name):
        try:
            return self.classes[name]
        except KeyError:
            raise PatternError(f"unknown symbol class {name!r}") from None

    def texts_of(self, ids):
        return tuple(self._texts[i] for i in ids)

    def extended(self, text):
        """A copy with `text` interned as well.  Every existing symbol keeps
        its id and every class its members, so labels carry over unchanged;
        this alphabet is left as it is."""
        copy = Alphabet.__new__(Alphabet)
        copy._ids = dict(self._ids)
        copy._texts = list(self._texts)
        copy.classes = dict(self.classes)
        copy.intern(text)
        return copy


# ---------------------------------------------------------------------------
# Pattern trees
#
# These are the kernel-level nodes; higher layers may define richer syntax
# and lower it onto these before construction.  Atoms either name things
# (resolved against the alphabet here, so unknown names fail with a source
# location) or carry pre-resolved symbol-id sets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pat:
    pass


@dataclass(frozen=True)
class Lit(Pat):
    text: str
    line: int = None
    col: int = None


@dataclass(frozen=True)
class ClassRef(Pat):
    name: str
    line: int = None
    col: int = None


@dataclass(frozen=True)
class OneOf(Pat):
    """One symbol drawn from `texts`, or from its complement if negated."""

    texts: frozenset
    negated: bool = False


@dataclass(frozen=True)
class Syms(Pat):
    """One symbol drawn from an already-resolved id set."""

    ids: frozenset


@dataclass(frozen=True)
class Seq(Pat):
    parts: tuple


@dataclass(frozen=True)
class Alt(Pat):
    parts: tuple


@dataclass(frozen=True)
class Star(Pat):
    inner: Pat


@dataclass(frozen=True)
class Opt(Pat):
    inner: Pat


EPSILON = Seq(())


def nullable(pat):
    """True if the pattern's language contains the empty string."""
    if isinstance(pat, (Lit, ClassRef, OneOf, Syms)):
        return False
    if isinstance(pat, Seq):
        return all(nullable(p) for p in pat.parts)
    if isinstance(pat, Alt):
        return any(nullable(p) for p in pat.parts)
    if isinstance(pat, (Star, Opt)):
        return True
    raise TypeError(f"not a pattern: {pat!r}")


def resolve_label(pat, alphabet):
    """Resolve an atomic pattern node to a symbol-id set."""
    if isinstance(pat, Syms):
        return pat.ids
    if isinstance(pat, Lit):
        try:
            return frozenset((alphabet.id_of(pat.text),))
        except PatternError:
            raise PatternError(f"unknown symbol {pat.text!r}", pat.line, pat.col) from None
    if isinstance(pat, ClassRef):
        try:
            return alphabet.class_of(pat.name)
        except PatternError:
            raise PatternError(f"unknown symbol class {pat.name!r}", pat.line, pat.col) from None
    if isinstance(pat, OneOf):
        ids = set()
        for text in pat.texts:
            ids.add(alphabet.id_of(text))
        if pat.negated:
            return alphabet.id_set() - ids
        return frozenset(ids)
    raise TypeError(f"not an atomic pattern: {pat!r}")


def resolve_pattern(pat, alphabet):
    """Rewrite a pattern so every atom is a resolved `Syms` node."""
    if isinstance(pat, (Lit, ClassRef, OneOf, Syms)):
        return Syms(resolve_label(pat, alphabet))
    if isinstance(pat, Seq):
        return Seq(tuple(resolve_pattern(p, alphabet) for p in pat.parts))
    if isinstance(pat, Alt):
        return Alt(tuple(resolve_pattern(p, alphabet) for p in pat.parts))
    if isinstance(pat, Star):
        return Star(resolve_pattern(pat.inner, alphabet))
    if isinstance(pat, Opt):
        return Opt(resolve_pattern(pat.inner, alphabet))
    raise TypeError(f"not a pattern: {pat!r}")


# ---------------------------------------------------------------------------
# NFA
# ---------------------------------------------------------------------------


class Nfa:
    """Nondeterministic automaton; edge labels are symbol-id frozensets,
    or None for an epsilon edge."""

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

    def accepts(self, syms):
        """Simulate the NFA; used by tests."""
        current = _eps_closure(self.transitions, {self.start})
        for sym in syms:
            nxt = set()
            for state in current:
                for label, dst in self.transitions[state]:
                    if label is not None and sym in label:
                        nxt.add(dst)
            current = _eps_closure(self.transitions, nxt)
            if not current:
                return False
        return bool(current & self.finals)


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


def from_pattern(pat, alphabet):
    """Thompson construction: an NFA accepting exactly the pattern's language.

    Handles symbols, named classes, explicit and negated symbol sets, plus
    concatenation, union, star and option.
    """
    nfa = Nfa(alphabet)

    def build(node):
        if isinstance(node, (Lit, ClassRef, OneOf, Syms)):
            label = resolve_label(node, alphabet)
            i, o = nfa.add_state(), nfa.add_state()
            nfa.add_edge(i, label, o)
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


# ---------------------------------------------------------------------------
# DFA
# ---------------------------------------------------------------------------


class Dfa:
    """Deterministic automaton.  State 0 is the start state; per-state edge
    labels are pairwise disjoint symbol-id sets sorted by smallest id.

    Immutable once built, except for the per-symbol index behind `step`
    and `accepts`, which is built on first use since most automata are
    never stepped.  Threads racing to build it store equal tables, so a
    Dfa is safe to share."""

    __slots__ = ("alphabet", "transitions", "finals", "_index")

    def __init__(self, alphabet, transitions, finals):
        self.alphabet = alphabet
        self.transitions = tuple(tuple(edges) for edges in transitions)
        self.finals = frozenset(finals)
        self._index = None

    @property
    def n_states(self):
        return len(self.transitions)

    @property
    def n_edges(self):
        return sum(len(edges) for edges in self.transitions)

    def _symbol_index(self):
        """Per state, a dict from symbol id to target state."""
        index = self._index
        if index is None:
            index = self._index = tuple(
                {sym: dst for label, dst in edges for sym in label}
                for edges in self.transitions
            )
        return index

    def step(self, state, sym):
        return self._symbol_index()[state].get(sym)

    def accepts(self, syms):
        index = self._symbol_index()
        state = 0
        for sym in syms:
            state = index[state].get(sym)
            if state is None:
                return False
        return state in self.finals


def empty_dfa(alphabet):
    return Dfa(alphabet, ((),), frozenset())


def _partition(labels):
    """Partition the symbols occurring in `labels` into blocks such that
    every label is a disjoint union of blocks.  Returns (blocks,
    label_to_block_ids)."""
    membership = {}
    for i, label in enumerate(labels):
        for sym in label:
            membership.setdefault(sym, []).append(i)
    groups = {}
    for sym in sorted(membership):
        groups.setdefault(tuple(membership[sym]), []).append(sym)
    blocks = [frozenset(g) for g in groups.values()]
    blocks.sort(key=min)
    label_blocks = {}
    for label in labels:
        label_blocks[label] = tuple(
            bi for bi, block in enumerate(blocks) if next(iter(block)) in label
        )
    return blocks, label_blocks


def _min_symbol(edge):
    return min(edge[0])


def _canonical(alphabet, start, expand):
    """The one place DFA states get their numbers.

    Explores the keys reachable from `start`; `expand(key)` returns
    `(is_final, edges)` with `edges` a list of `(label, target_key)` pairs
    whose labels are non-empty and pairwise disjoint.  Keys are numbered in
    breadth-first discovery order from 0 and each state's edges are sorted
    by smallest symbol, so equal languages built from equal keys come out
    as identical automata.
    """
    index = {start: 0}
    order = [start]
    out = []
    finals = []
    for key in order:  # `order` grows while it is walked: that is the queue
        final, edges = expand(key)
        if final:
            finals.append(len(out))
        if len(edges) > 1:
            edges.sort(key=_min_symbol)
        resolved = []
        for label, target in edges:
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                order.append(target)
            resolved.append((label, j))
        out.append(tuple(resolved))
    return Dfa(alphabet, out, finals)


def _merge_by_class(edges, cls):
    """`edges` with each target replaced by its class `cls[target]` and the
    labels of edges into the same class merged."""
    merged = {}
    for label, dst in edges:
        c = cls[dst]
        got = merged.get(c)
        merged[c] = label if got is None else got | label
    return [(label, c) for c, label in merged.items()]


def determinize(nfa):
    """Subset construction; the result is deterministic, epsilon-free and
    trimmed to states reachable from the start."""
    n = nfa.n_states
    eps = [[] for _ in range(n)]
    sym_edges = [[] for _ in range(n)]
    seen_labels = {}
    for src in range(n):
        for label, dst in nfa.transitions[src]:
            if label is None:
                eps[src].append(dst)
            elif label:
                sym_edges[src].append((label, dst))
                seen_labels[label] = None
    blocks, label_blocks = _partition(list(seen_labels))

    def closure(states):
        seen = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for dst in eps[state]:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def expand(subset):
        moves = {}
        for state in subset:
            for label, dst in sym_edges[state]:
                for b in label_blocks[label]:
                    moves.setdefault(b, set()).add(dst)
        grouped = {}
        for b in sorted(moves):
            grouped.setdefault(closure(moves[b]), []).append(b)
        edges = [
            (frozenset().union(*(blocks[b] for b in bs)), target)
            for target, bs in grouped.items()
        ]
        return not subset.isdisjoint(nfa.finals), edges

    return _canonical(nfa.alphabet, closure((nfa.start,)), expand)


def _reachable(dfa):
    seen = {0}
    stack = [0]
    while stack:
        state = stack.pop()
        for _, dst in dfa.transitions[state]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def _coreachable(dfa):
    rev = [[] for _ in range(dfa.n_states)]
    for src in range(dfa.n_states):
        for _, dst in dfa.transitions[src]:
            rev[dst].append(src)
    seen = set(dfa.finals)
    stack = list(dfa.finals)
    while stack:
        state = stack.pop()
        for src in rev[state]:
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return seen


def trim(dfa):
    """Drop states that are unreachable or cannot reach a final state, and
    renumber the rest in BFS order.  The empty language canonicalizes to a
    single non-accepting start state."""
    useful = _reachable(dfa) & _coreachable(dfa)
    if 0 not in useful:
        return empty_dfa(dfa.alphabet)
    transitions = dfa.transitions
    finals = dfa.finals

    def expand(state):
        edges = []
        for label, dst in transitions[state]:
            if dst in useful:
                edges.append((label, dst))
        return state in finals, edges

    return _canonical(dfa.alphabet, 0, expand)


def minimize(dfa):
    """Partition refinement (Moore) over compressed alphabet blocks; the
    result is the canonical minimal partial DFA for the language."""
    d = trim(dfa)
    if not d.finals:
        return d
    labels = {}
    for edges in d.transitions:
        for label, _ in edges:
            labels[label] = None
    blocks, label_blocks = _partition(list(labels))
    nblocks = len(blocks)
    # per-state transition over blocks; -1 encodes the implicit dead state
    table = []
    for edges in d.transitions:
        row = [-1] * nblocks
        for label, dst in edges:
            for b in label_blocks[label]:
                row[b] = dst
        table.append(row)

    cls = [1 if s in d.finals else 0 for s in range(d.n_states)]
    ncls = len(set(cls))
    while True:
        sigs = {}
        new_cls = [0] * d.n_states
        for s in range(d.n_states):
            sig = (cls[s], tuple(cls[t] if t >= 0 else -1 for t in table[s]))
            idx = sigs.get(sig)
            if idx is None:
                idx = len(sigs)
                sigs[sig] = idx
            new_cls[s] = idx
        cls = new_cls
        if len(sigs) == ncls:
            break
        ncls = len(sigs)

    # equivalent states have equal merged edges, so any member stands for
    # its class; the quotient of a trim DFA is trim
    reps = {}
    for s in range(d.n_states):
        reps.setdefault(cls[s], s)

    def expand(c):
        rep = reps[c]
        return rep in d.finals, _merge_by_class(d.transitions[rep], cls)

    return _canonical(d.alphabet, cls[0], expand)


def reduce_acyclic(dfa):
    """Merge suffix-equivalent states of an acyclic DFA in one reverse
    topological pass (linear in states and edges); the result is the
    minimal DFA.  Falls back to `minimize` when a useful cycle exists."""
    d = trim(dfa)
    if not d.finals:
        return d
    n = d.n_states
    indeg = [0] * n
    for edges in d.transitions:
        for _, dst in edges:
            indeg[dst] += 1
    stack = [s for s in range(n) if indeg[s] == 0]
    order = []
    while stack:
        state = stack.pop()
        order.append(state)
        for _, dst in d.transitions[state]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                stack.append(dst)
    if len(order) != n:
        return minimize(dfa)
    cls = [0] * n
    signatures = {}
    classes = []  # (is_final, merged edges) of each class, by class id
    for state in reversed(order):
        final = state in d.finals
        edges = _merge_by_class(d.transitions[state], cls)
        sig = (final, frozenset(edges))
        idx = signatures.get(sig)
        if idx is None:
            idx = signatures[sig] = len(classes)
            classes.append((final, edges))
        cls[state] = idx
    return _canonical(d.alphabet, cls[0], classes.__getitem__)


def complement(dfa, alphabet):
    """Accepts exactly alphabet* minus the input's language."""
    if alphabet is not dfa.alphabet:
        raise AlphabetMismatchError("complement must use the automaton's own alphabet")
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


def _product_edges(a, b):
    """For the product of `a` and `b`: a function from a pair of states
    `(sa, sb)` to its edges, a dict from target pair `(da, db)` to label."""
    if a.alphabet is not b.alphabet:
        raise AlphabetMismatchError("intersect requires a shared alphabet")
    a_transitions = a.transitions
    b_transitions = b.transitions
    b_index = b._symbol_index()

    def edges(sa, sb):
        by_target = {}
        b_table = b_index[sb]
        for label, da in a_transitions[sa]:
            size = len(label)
            if size == 1:  # most lattice labels: keep their frozenset
                (sym,) = label
                db = b_table.get(sym)
                if db is not None:
                    key = (da, db)
                    got = by_target.get(key)
                    by_target[key] = label if got is None else got | label
            elif size <= 8:
                buckets = {}
                for sym in label:
                    db = b_table.get(sym)
                    if db is not None:
                        buckets.setdefault(db, []).append(sym)
                for db, syms in buckets.items():
                    key = (da, db)
                    got = by_target.get(key)
                    by_target[key] = frozenset(syms) if got is None else got | frozenset(syms)
            else:
                for blabel, db in b_transitions[sb]:
                    inter = label & blabel
                    if inter:
                        key = (da, db)
                        got = by_target.get(key)
                        by_target[key] = inter if got is None else got | inter
        return by_target

    return edges


def intersect(a, b):
    """Product construction; accepts L(a) & L(b), trimmed to useful states."""
    product = _product_edges(a, b)
    a_finals = a.finals
    b_finals = b.finals

    def expand(pair):
        sa, sb = pair
        edges = [(label, target) for target, label in product(sa, sb).items()]
        return sa in a_finals and sb in b_finals, edges

    return trim(_canonical(a.alphabet, (0, 0), expand))


def intersect_minimal(a, b):
    """The minimal DFA for L(a) & L(b) and the number of strings it
    accepts, in one walk over the product; `a` must be acyclic.

    Product pairs are walked depth-first with an explicit stack.  A pair is
    settled once all its successors are: edges into dead pairs are dropped,
    the rest are merged by the successor's class, and `(final, edges)` is
    looked up in a register of classes, so pairs with equal right languages
    share one class (Daciuk, Mihov, Watson & Watson 2000).  A pair with no
    path to a final state dies on the spot.  Each class carries its path
    count.  The DFA equals `reduce_acyclic(intersect(a, b))`, and is
    `empty_dfa` when nothing survives.

    Raises InfiniteLanguageError if the walk meets a cycle, which the
    product of an acyclic `a` has none of.
    """
    product = _product_edges(a, b)
    a_finals = a.finals
    b_finals = b.finals
    on_stack = -2  # class of a pair whose successors are still being walked
    cls = {(0, 0): on_stack}  # pair -> class id, or -1 once known dead
    register = {}  # (final, frozenset of (class, label)) -> class id
    classes = []  # (final, merged edges) of each class, by class id
    counts = []  # accepted strings from each class, by class id
    edges = product(0, 0)
    stack = [((0, 0), edges, iter(edges))]
    while stack:
        pair, edges, targets = stack[-1]
        for target in targets:
            c = cls.get(target)
            if c is None:
                cls[target] = on_stack
                target_edges = product(*target)
                stack.append((target, target_edges, iter(target_edges)))
                break
            if c == on_stack:
                raise InfiniteLanguageError("intersect_minimal met a cycle")
        else:  # every successor is settled: settle `pair`
            stack.pop()
            merged = {}
            for target, label in edges.items():
                c = cls[target]
                if c >= 0:
                    got = merged.get(c)
                    merged[c] = label if got is None else got | label
            final = pair[0] in a_finals and pair[1] in b_finals
            if not merged and not final:
                cls[pair] = -1
                continue
            signature = (final, frozenset(merged.items()))
            c = register.get(signature)
            if c is None:
                c = register[signature] = len(classes)
                count = 1 if final else 0
                for d, label in merged.items():
                    count += len(label) * counts[d]
                counts.append(count)
                classes.append((final, [(label, d) for d, label in merged.items()]))
            cls[pair] = c
    start = cls[(0, 0)]
    if start < 0:
        return empty_dfa(a.alphabet), 0
    return _canonical(a.alphabet, start, classes.__getitem__), counts[start]


def is_empty(dfa):
    """True iff no accepting path exists."""
    if not dfa.finals:
        return True
    seen = {0}
    stack = [0]
    while stack:
        state = stack.pop()
        if state in dfa.finals:
            return False
        for _, dst in dfa.transitions[state]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return True


def count_paths(dfa):
    """Exact number of accepted strings, via one pass over a topological
    order of the useful subgraph.  Arbitrary precision; never enumerates.

    Raises InfiniteLanguageError if a cycle survives among useful states.
    """
    useful = _reachable(dfa) & _coreachable(dfa)
    if 0 not in useful:
        return 0
    indeg = {s: 0 for s in useful}
    for src in useful:
        for _, dst in dfa.transitions[src]:
            if dst in useful:
                indeg[dst] += 1
    stack = [s for s in useful if indeg[s] == 0]
    order = []
    while stack:
        state = stack.pop()
        order.append(state)
        for _, dst in dfa.transitions[state]:
            if dst in useful:
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    stack.append(dst)
    if len(order) != len(useful):
        raise InfiniteLanguageError("automaton accepts an infinite language")
    ways = {}
    for state in reversed(order):
        total = 1 if state in dfa.finals else 0
        for label, dst in dfa.transitions[state]:
            if dst in useful:
                total += len(label) * ways[dst]
        ways[state] = total
    return ways[0]


def enumerate_strings(dfa, limit):
    """Up to `limit` accepted strings (tuples of symbol ids) in shortlex
    order over symbol ids.  Works for finite and infinite languages; only
    productive prefixes are visited."""
    if limit <= 0:
        return []
    d = trim(dfa)
    if not d.finals:
        return []
    expanded = []
    preds = [set() for _ in range(d.n_states)]
    for src, edges in enumerate(d.transitions):
        pairs = []
        for label, dst in edges:
            pairs.extend((sym, dst) for sym in label)
            if label:
                preds[dst].add(src)
        pairs.sort()
        expanded.append(tuple(pairs))

    # live[n]: the states with an accepted continuation of exactly n symbols
    live = [d.finals]
    out = []
    while len(out) < limit:
        length = len(live) - 1
        if 0 in live[length]:
            out.extend(islice(_strings_of_length(expanded, live, length), limit - len(out)))
        longer = set()
        for dst in live[length]:
            longer |= preds[dst]
        if not longer:
            break
        live.append(longer)
    return out


def _strings_of_length(expanded, live, length):
    """The accepted strings of exactly `length` symbols in lexicographic
    order, by a depth-first walk with an explicit stack (a long sentence's
    path is longer than Python's recursion limit).  Only edges into `live`
    states are taken, so every branch ends in a string."""
    if length == 0:
        yield ()
        return
    prefix = []
    stack = [iter(expanded[0])]
    while stack:
        targets = live[length - len(stack)]
        for sym, dst in stack[-1]:
            if dst in targets:
                prefix.append(sym)
                if len(prefix) == length:
                    yield tuple(prefix)
                    prefix.pop()
                else:
                    stack.append(iter(expanded[dst]))
                    break
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def language_equal(a, b):
    """Language equivalence via emptiness of the symmetric difference."""
    if a.alphabet is not b.alphabet:
        raise AlphabetMismatchError("language_equal requires a shared alphabet")
    alphabet = a.alphabet
    return is_empty(intersect(a, complement(b, alphabet))) and is_empty(
        intersect(b, complement(a, alphabet))
    )


def erase_symbol(dfa, sym):
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


def dump(fa):
    """Plain-text graph dump: one `src TAB symbol TAB dst` line per symbol
    transition ordered by (state id, symbol id, dst), then the final states
    under a `final:` header.  The start state is always 0.  NFA epsilon
    edges print `-` in the symbol column and sort before symbols."""
    alphabet = fa.alphabet
    rows = []
    for src, edges in enumerate(fa.transitions):
        for label, dst in edges:
            if label is None:
                rows.append((src, -1, dst, "-"))
            else:
                for sym in label:
                    rows.append((src, sym, dst, alphabet.text_of(sym)))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = [f"{src}\t{text}\t{dst}" for src, _, dst, text in rows]
    lines.append("final:")
    lines.extend(str(s) for s in sorted(fa.finals))
    return "\n".join(lines) + "\n"
