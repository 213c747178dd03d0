"""Finite-automata kernel over a closed, interned symbol alphabet.

Transitions carry symbol *sets*, not single symbols, so that transitions
labelled with a large symbol class stay compact even when the alphabet has
hundreds of symbols.  Automata are immutable once built (a `Dfa` only
fills in two caches on first use, and carries a mark of being trim that
its builder sets); every constructor function returns a fresh object,
except that `trim` returns a DFA already marked trim as it is.  Counting,
enumeration and the emptiness test start from `trim(dfa)`, which is free
for a marked DFA, so no state off every accepting path reaches them.

A DFA's start state is always state 0 and its states are numbered in
breadth-first discovery order with per-state edges sorted by smallest
symbol id, so structurally identical inputs produce identical automata.
Only `Dfa` values are numbered so.  A `Chain`, which folds a sequence of
intersections over an acyclic language, is minimal, trim and counted from
the start, keeps each step's states in the order its walk settled them
and is numbered once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from types import MappingProxyType


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

#: The clause-breaking boundary symbols: the default members of the `CLB`
#: class, which the within-clause gap `..` may not cross.
CLAUSE_BREAK_TEXTS = ("@/", "@<", "@>", "@@")


class Alphabet:
    """Bijective interning of non-empty symbol texts to dense integer ids,
    plus named symbol classes (subsets of the alphabet) that patterns may
    reference by name.

    Closed by construction: the boundary symbols take ids 0..4, `texts`
    follow in order (repeats keep their first id), and `classes` maps each
    class name to member texts, every one of which must be a symbol.
    There is always a `CLB` class, the symbols the within-clause gap may
    not cross: `CLAUSE_BREAK_TEXTS` unless `classes` has its own `CLB`.
    Nothing adds a symbol or a class afterwards.
    """

    def __init__(self, texts=(), classes=None):
        self._ids = {}
        self._texts = []
        for text in (*BOUNDARY_TEXTS, *texts):
            if not text:
                raise ValueError("symbol text must be non-empty")
            if text not in self._ids:
                self._ids[text] = len(self._texts)
                self._texts.append(text)
        self.classes = MappingProxyType({
            name: frozenset(map(self.id_of, members))
            for name, members in {"CLB": CLAUSE_BREAK_TEXTS, **(classes or {})}.items()
        })

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

    def id_set(self):
        return frozenset(range(len(self._texts)))


# ---------------------------------------------------------------------------
# Pattern trees
#
# These are the kernel-level nodes; higher layers may define richer syntax
# and lower it onto these before construction.  The only atom is `Syms`,
# a set of symbol ids already resolved against the alphabet.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pat:
    pass


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


def nullable(pat):
    """True if the pattern's language contains the empty string."""
    if isinstance(pat, Syms):
        return False
    if isinstance(pat, Seq):
        return all(nullable(p) for p in pat.parts)
    if isinstance(pat, Alt):
        return any(nullable(p) for p in pat.parts)
    if isinstance(pat, (Star, Opt)):
        return True
    raise TypeError(f"not a pattern: {pat!r}")


# ---------------------------------------------------------------------------
# DFA
# ---------------------------------------------------------------------------


class Dfa:
    """Deterministic automaton.  State 0 is the start state; per-state edge
    labels are pairwise disjoint symbol-id sets sorted by smallest id.

    Immutable once built, with three exceptions.  Two are caches filled
    on first use: the per-symbol index behind `accepts` and the product
    kernels (`_index`; most automata are never stepped), and the trigger
    set (`_trigger`, see `trigger_symbols`), which only a rule needs.  The
    third is a mark set where the DFA is built: `_trimmed` is true when
    the builder knows the DFA to be trim and canonically numbered, so
    `trim` returns it as it is.  The builders that mark are `trim` (and
    `intersect`, which returns its product through `trim`), `minimize`,
    `reduce_acyclic`, `Chain.dfa`, `pattern_dfa` for a pattern with no
    empty label, and `lattice.build_lattice` for a lattice whose every
    cohort has a reading.  A DFA built any other way, by hand, by
    `expand_blocks` or by `pattern_dfa` for a pattern with an empty label
    or union, is left unmarked, and `trim` trims it."""

    __slots__ = ("alphabet", "transitions", "finals", "_index", "_trigger", "_trimmed")

    def __init__(self, alphabet, transitions, finals):
        self.alphabet = alphabet
        self.transitions = tuple(tuple(edges) for edges in transitions)
        self.finals = frozenset(finals)
        self._index = None
        self._trigger = _UNKNOWN
        self._trimmed = False

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

    def accepts(self, syms):
        index = self._symbol_index()
        state = 0
        for sym in syms:
            state = index[state].get(sym)
            if state is None:
                return False
        return state in self.finals

    def trigger_symbols(self):
        """The trigger set T: the DFA accepts every string that holds no
        symbol of T.  So a language whose strings avoid T is contained in
        this DFA's, and intersecting with it changes nothing.

        Found by a fixpoint over a set `free` of symbols, from all of
        Sigma: each round takes the final states reached from the start
        through final states on `free` symbols, and keeps in `free` only
        the symbols that every such state steps into a final state.  When
        a round keeps all of `free`, the states reached are final, closed
        under `free` and step all of it, so every string over `free` is
        accepted; T is Sigma minus `free`.

        None when the start is not final: the DFA rejects the empty string,
        which holds no symbol, so no set of symbols is a trigger set.
        Computed once and cached."""
        trigger = self._trigger
        if trigger is _UNKNOWN:
            trigger = self._trigger = _trigger_symbols(self)
        return trigger


_UNKNOWN = object()  # a `Dfa._trigger` not yet computed


def _trigger_symbols(dfa):
    """`Dfa.trigger_symbols`, uncached."""
    finals = dfa.finals
    if 0 not in finals:
        return None
    sigma = dfa.alphabet.id_set()
    transitions = dfa.transitions
    free = sigma
    while True:
        kept = free
        seen = {0}
        stack = [0]
        while stack and kept:
            into_finals = set()
            for label, dst in transitions[stack.pop()]:
                if dst in finals:
                    into_finals.update(label)
                    if dst not in seen and not free.isdisjoint(label):
                        seen.add(dst)
                        stack.append(dst)
            kept = kept.intersection(into_finals)
        if kept == free:
            return sigma - free
        free = kept


def expand_blocks(dfa, blocks, alphabet):
    """`dfa`, over an alphabet whose symbol b stands for the block
    `blocks[b]` of `alphabet`'s symbols, with each label expanded to the
    union of its blocks.  The blocks must partition `alphabet`.

    The trigger set is expanded from `dfa`'s the same way, which is much
    cheaper than finding it over the wide labels: in the expanded DFA the
    symbols of one block have the same edges in every state, so the
    fixpoint of `Dfa.trigger_symbols` keeps or drops a block's symbols
    together, round by round, as it keeps or drops the block.  Each
    distinct label is expanded once."""

    expanded_labels = {}  # block label -> its union of blocks

    def expand(label):
        got = expanded_labels.get(label)
        if got is None:
            got = expanded_labels[label] = frozenset().union(*(blocks[b] for b in label))
        return got

    transitions = [[(expand(label), dst) for label, dst in edges] for edges in dfa.transitions]
    expanded = Dfa(alphabet, transitions, dfa.finals)
    trigger = dfa.trigger_symbols()
    expanded._trigger = None if trigger is None else expand(trigger)
    return expanded


def empty_dfa(alphabet):
    return Dfa(alphabet, ((),), frozenset())


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


def _subset_edges(moves):
    """The edges of one state of a subset construction.  `moves` yields
    the `(label, target)` edges of the state's members; each symbol goes
    to the frozenset of targets its edges reach, the target state's key,
    and symbols with equal keys share one edge.  The subset construction
    over positions (`_position_dfa`) groups its symbols here.  The cost
    follows the symbols the labels hold, so callers that step wide classes
    pass an alphabet already grouped into blocks (as `grammar.compile_rule`
    does)."""
    targets = {}
    for label, dst in moves:
        for sym in label:
            got = targets.get(sym)
            if got is None:
                targets[sym] = {dst}
            else:
                got.add(dst)
    grouped = {}
    for sym, dsts in targets.items():
        grouped.setdefault(frozenset(dsts), []).append(sym)
    return [(frozenset(syms), key) for key, syms in grouped.items()]


def _walk_positions(node, labels, follow):
    """`(nullable, first, last)` of the pattern `node` by the position
    construction (McNaughton & Yamada 1960; Glushkov 1961).  Each `Syms`
    leaf is a position, numbered from `len(labels)` on: its symbol set is
    appended to `labels` and an empty set to `follow`, and the follow
    pairs inside `node` are added, so that `follow[p]` holds the positions
    that may come right after p.  An empty union is read as one position
    whose label is empty, since both denote the empty language.  The one
    position walk: `pattern_dfa` and `grammar._obligation_dfa` run it."""
    if isinstance(node, Syms) or (isinstance(node, Alt) and not node.parts):
        p = len(labels)
        labels.append(node.ids if isinstance(node, Syms) else frozenset())
        follow.append(set())
        return False, {p}, {p}
    if isinstance(node, Seq):
        null, first, last = True, set(), set()
        for part in node.parts:
            part_null, part_first, part_last = _walk_positions(part, labels, follow)
            for p in last:
                follow[p] |= part_first
            if null:
                first |= part_first
            last = part_last | last if part_null else part_last
            null = null and part_null
        return null, first, last
    if isinstance(node, Alt):
        null, first, last = False, set(), set()
        for part in node.parts:
            part_null, part_first, part_last = _walk_positions(part, labels, follow)
            null = null or part_null
            first |= part_first
            last |= part_last
        return null, first, last
    if isinstance(node, (Star, Opt)):
        _, first, last = _walk_positions(node.inner, labels, follow)
        if isinstance(node, Star):
            for p in last:
                follow[p] |= first
        return True, first, last
    raise TypeError(f"not a pattern: {node!r}")


def pattern_dfa(pat, alphabet):
    """The DFA of the pattern's language, by the position construction
    with no NFA in between.

    `_walk_positions` numbers the positions and finds whether the pattern
    is nullable, its first and last positions, and each position's follow
    set.  The subset construction then runs over sets of positions
    (`_position_dfa`): a string that has just matched position p goes on
    with a position that follows p and whose symbol set holds the next
    symbol.  The start is the pseudo-position -1, which is followed by the
    first positions and is accepting iff the pattern is nullable; a set of
    positions is accepting iff it holds a last position.

    When no position's label is empty, every position lies on a path to a
    last one, so every subset reached is useful: the DFA is trim, and it
    is marked so (`Dfa._trimmed`).
    """
    labels = []  # the symbol set of each position
    follow = []  # the positions that may come right after each position
    null, first, last = _walk_positions(pat, labels, follow)
    follow.append(first)  # the start's, as pseudo-position -1
    if null:
        last = last | {-1}
    dfa = _position_dfa(alphabet, labels, follow, lambda subset: not last.isdisjoint(subset))
    return _mark_trimmed(dfa) if all(labels) else dfa


def _position_dfa(alphabet, labels, follow, final):
    """The subset construction over sets of positions, from the set of
    the pseudo-position -1, whose follow set is `follow[-1]`; a set is
    accepting iff `final(set)` is true, which is called once per set in
    the order `_canonical` numbers them.  A subset's edges depend only on
    the union of its positions' follow sets, so they are found once per
    union.  `pattern_dfa` and the left sides of `grammar._obligation_dfa`
    run it."""
    reached = {}  # union of follow sets -> its subset edges

    def expand(subset):
        reach = frozenset().union(*(follow[p] for p in subset))
        edges = reached.get(reach)
        if edges is None:
            edges = reached[reach] = _subset_edges((labels[q], q) for q in reach)
        return final(subset), list(edges)  # `_canonical` sorts it in place

    return _canonical(alphabet, frozenset((-1,)), expand)


def _search(starts, successors):
    """The set of states reached from `starts` along `successors`, which
    lists each state's next states, depth-first with an explicit stack.
    The one graph search: `_useful` runs it back from the final states
    over `_predecessors`.  No forward search is needed, since `_canonical`
    only numbers states it reaches from the start."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in successors[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _predecessors(transitions):
    """Per state of `transitions`, the states with an edge into it (an
    edge with an empty label steps no symbol and is left out).  The one
    predecessor table: `_useful` and `enumerate_strings` read it."""
    preds = [[] for _ in transitions]
    for src, edges in enumerate(transitions):
        for label, dst in edges:
            if label:
                preds[dst].append(src)
    return preds


def _useful(dfa):
    """The states from which some final state can be reached.  Reachability
    from the start needs no search of its own: `_canonical` walks from the
    start, so `trim` numbers only states that are both."""
    return _search(dfa.finals, _predecessors(dfa.transitions))


def _topological(dfa):
    """A topological order of the states of the trim `dfa`, by Kahn's
    algorithm, or None if it has a cycle.  The one topological sort:
    `count_paths`, `reduce_acyclic` and `Chain` run it."""
    transitions = dfa.transitions
    indeg = [0] * len(transitions)
    for edges in transitions:
        for _, dst in edges:
            indeg[dst] += 1
    stack = [s for s, d in enumerate(indeg) if d == 0]
    order = []
    while stack:
        state = stack.pop()
        order.append(state)
        for _, dst in transitions[state]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                stack.append(dst)
    return order if len(order) == len(transitions) else None


def _mark_trimmed(dfa):
    """`dfa`, marked trim and canonically numbered (`Dfa._trimmed`)."""
    dfa._trimmed = True
    return dfa


def trim(dfa):
    """Drop states that are unreachable or cannot reach a final state: the
    `_useful` states that the start reaches, numbered by `_canonical`.  The
    empty language canonicalizes to a single non-accepting start state.
    The result is marked trim, and a DFA already marked so is returned as
    it is.  `minimize`, `intersect`, `reduce_acyclic`, `Chain(dfa)` and
    the readers of a language (`is_empty`, `count_paths`,
    `enumerate_strings`) start from it."""
    if dfa._trimmed:
        return dfa
    useful = _useful(dfa)
    if 0 not in useful:
        return _mark_trimmed(empty_dfa(dfa.alphabet))
    transitions = dfa.transitions
    finals = dfa.finals

    def expand(state):
        return state in finals, [(label, dst) for label, dst in transitions[state] if dst in useful]

    return _mark_trimmed(_canonical(dfa.alphabet, 0, expand))


def minimize(dfa):
    """Partition refinement (Moore) over the trimmed DFA; the result is the
    canonical minimal partial DFA for the language, marked trim.  The
    rounds (`_moore`) start from the final and the non-final states.  Two
    symbols that every state sends to the same target (or neither steps)
    split nothing the other does not, so the rounds run over the distinct
    columns of targets, one per such group of symbols.  Finding the
    columns still takes one pass per symbol the labels hold: callers that
    step wide classes pass an alphabet already grouped into blocks (as
    `grammar.compile_rule` does)."""
    d = trim(dfa)
    if not d.finals:
        return d
    cls, reps = _moore(d._symbol_index(), [1 if s in d.finals else 0 for s in range(d.n_states)])
    # equivalent states have equal merged edges, so any member stands for
    # its class; the quotient of a trim DFA is trim

    def expand(c):
        rep = reps[c]
        return rep in d.finals, _merge_by_class(d.transitions[rep], cls)

    return _mark_trimmed(_canonical(d.alphabet, cls[0], expand))


def _moore(index, cls):
    """`(classes, reps)`: the coarsest refinement of the partition `cls`
    (a non-negative class number per state) that steps each symbol of
    `index` (per state, symbol -> target) from equivalent states into
    equivalent states or nowhere, as a class number per state, and one
    state per class number.  Each round splits the previous round's
    classes by the class each symbol leads to.  `minimize` starts it from
    the final and non-final states, `grammar._obligation_dfa` from what
    each of its left states obliges."""
    n = len(index)
    syms = {sym for row in index for sym in row}
    # a column lists each state's target on one symbol, `n` for none
    columns = {tuple([row.get(sym, n) for row in index]) for sym in syms}
    ncls = len(set(cls))
    while True:
        ext = [*cls, -1]  # class of each target, -1 for no edge
        sigs = {}
        cls = [
            sigs.setdefault(sig, len(sigs))
            for sig in zip(cls, *[map(ext.__getitem__, column) for column in columns])
        ]
        if len(sigs) == ncls:
            break
        ncls = len(sigs)
    reps = {}
    for s in range(n):
        reps.setdefault(cls[s], s)
    return cls, reps


def reduce_acyclic(dfa):
    """Merge suffix-equivalent states of an acyclic DFA in one reverse
    topological pass over `trim(dfa)` (linear in states and edges); the
    result is the minimal DFA, marked trim.  Raises InfiniteLanguageError
    for a useful cycle, as `Chain(dfa)` and `count_paths` do; a dead one
    is trimmed away.  The program reduces with `Chain(dfa)`: this is the
    reduction the benchmark's traced replay times after each `intersect`,
    and the tests' reference for `Chain`."""
    d = trim(dfa)
    order = _topological(d)
    if order is None:
        raise InfiniteLanguageError("automaton accepts an infinite language")
    cls = [0] * d.n_states
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
    return _mark_trimmed(_canonical(d.alphabet, cls[0], classes.__getitem__))


def _product_edges(a, b):
    """For the product of `a` and `b`: a function from a pair of states
    `(sa, sb)` to its edges, a dict from target pair `(da, db)` to label.

    A one-symbol label is looked up in `b` and kept as it is; every wider
    label takes the one bucketing path, one lookup in `b` per symbol with
    the symbols grouped by the state they reach."""
    if a.alphabet is not b.alphabet:
        raise AlphabetMismatchError("a product requires a shared alphabet")
    a_transitions = a.transitions
    b_index = b._symbol_index()

    def edges(sa, sb):
        by_target = {}
        b_table = b_index[sb]
        for label, da in a_transitions[sa]:
            if len(label) == 1:  # most lattice labels: keep their frozenset
                (sym,) = label
                db = b_table.get(sym)
                if db is not None:
                    key = (da, db)
                    got = by_target.get(key)
                    by_target[key] = label if got is None else got | label
                continue
            buckets = {}
            for sym in label:
                db = b_table.get(sym)
                if db is not None:
                    buckets.setdefault(db, []).append(sym)
            for db, syms in buckets.items():
                key = (da, db)
                got = by_target.get(key)
                by_target[key] = frozenset(syms) if got is None else got | frozenset(syms)
        return by_target

    return edges


def intersect(a, b):
    """Product construction; accepts L(a) & L(b).  The pairs that the
    start pair `(0, 0)` reaches are numbered by `_canonical`, and `trim`
    keeps the useful ones, so the result is marked trim."""
    product = _product_edges(a, b)
    a_finals = a.finals
    b_finals = b.finals

    def expand(pair):
        sa, sb = pair
        edges = [(label, target) for target, label in product(sa, sb).items()]
        return sa in a_finals and sb in b_finals, edges

    return trim(_canonical(a.alphabet, (0, 0), expand))


class Chain:
    """An acyclic language on its way through a chain of intersections.

    A chain holds the register's classes in the order they were created:
    `transitions[c]` is the tuple of class `c`'s `(label, successor)`
    edges, as in a `Dfa` (the empty chain is `[()]`), successors have
    smaller ids than `c`, `finals` is the set of accepting
    classes, `start` the start class and `count` the number of strings.  A
    chain is minimal and trim but not canonically numbered; `dfa()`
    numbers it, once, at the end.

    `symbols` holds every symbol on the chain's edges (it may hold more,
    never fewer), collected as the classes are created.  A step
    whose rule has a trigger set (`Dfa.trigger_symbols`) and none of its
    symbols among them is skipped: every string of the chain avoids the
    trigger set, so the rule accepts it.

    `run_syms[c]` is the symbol id of class `c`'s one edge when `c` is not
    final and has one edge whose label holds one symbol, and -1 for every
    other class (the empty chain's is `[-1]`).  Whatever creates a class
    fills its entry, so a later step reads one list entry where it would
    test the class's edges, finality and label size.

    `Chain(dfa)` reduces, trims and counts an acyclic DFA in one register
    pass (Revuz 1992), as `reduce_acyclic` does: the states of `trim(dfa)`
    are registered in reverse topological order, successors first, under
    their finality and their edges merged by class.  A class's count,
    `symbols` and `run_syms` entry are filled as it is created.  Raises
    InfiniteLanguageError for a useful cycle; a dead one is trimmed away.
    A chain is acyclic by construction, so a step's walk looks for none.

    The walk (`_register_product`) steps each unary run of the chain, a
    row of one-edge, non-final classes, in a loop, whatever the size of
    their labels, for as long as the rule sends every live symbol of a
    label to one state.  It opens a stack frame only where the chain
    branches or the rule splits a label, so a step's cost follows the
    branching pairs more than the symbols.  A class with a `run_syms`
    symbol costs one lookup in the rule, in a step's walk and in the
    containment walk (`_contained`) alike.
    """

    __slots__ = ("alphabet", "transitions", "finals", "start", "count", "symbols", "run_syms")

    def __init__(self, dfa):
        d = trim(dfa)  # free for a lattice, which `build_lattice` marks trim
        order = _topological(d)
        if order is None:
            raise InfiniteLanguageError("automaton accepts an infinite language")
        cls = [0] * d.n_states
        register = {}  # (final, frozenset of merged edges) -> class id
        transitions, finals, counts, symbols, run_syms = [], set(), [], set(), []
        for state in reversed(order):
            final = state in d.finals
            edges = tuple(_merge_by_class(d.transitions[state], cls))
            c = cls[state] = register.setdefault((final, frozenset(edges)), len(transitions))
            if c < len(transitions):  # an equivalent state made the class
                continue
            transitions.append(edges)
            count = 1 if final else 0
            for label, succ in edges:
                count += len(label) * counts[succ]
                symbols |= label
            counts.append(count)
            if final:
                finals.add(c)
            one_symbol = not final and len(edges) == 1 and len(edges[0][0]) == 1
            run_syms.append(min(edges[0][0]) if one_symbol else -1)
        start = cls[0]
        self._settle(d.alphabet, (transitions, finals, start, counts[start], symbols, run_syms))

    def _settle(self, alphabet, walked):
        self.alphabet = alphabet
        self.transitions, self.finals, self.start, self.count, self.symbols, self.run_syms = walked
        return self

    def intersect(self, b):
        """`(chain, count)` for L(self) & L(b).  When L(self) is contained
        in L(b), that is this chain itself and its count; otherwise one
        register walk over the product (`_register_product`).  Containment
        is settled without a walk when `b` has a trigger set and no symbol
        of the chain is in it, since `b` accepts every string that avoids
        it, and by a containment walk (`_contained`) otherwise."""
        if b.alphabet is not self.alphabet:
            raise AlphabetMismatchError("intersect requires a shared alphabet")
        trigger = b.trigger_symbols()
        if (trigger is not None and self.symbols.isdisjoint(trigger)) or _contained(self, b):
            return self, self.count
        walked = _register_product(self, b)
        chain = Chain.__new__(Chain)._settle(self.alphabet, walked)
        return chain, chain.count

    def dfa(self):
        """The canonically numbered DFA of the chain's language, marked
        trim (a chain is trim, and so is its empty form)."""
        transitions = self.transitions
        finals = self.finals
        return _mark_trimmed(
            _canonical(self.alphabet, self.start, lambda c: (c in finals, list(transitions[c])))
        )


def _contained(chain, b):
    """True if `b` accepts every string of the trim `chain`: a depth-first
    walk over product pairs that stops at the first symbol `b` cannot step
    or the first accepting class whose pair `b` does not accept.  Each
    symbol of a label is stepped on its own, since `b` may send a label's
    symbols to different states.  A pair `(sa, sb)` is keyed as the int
    `sa * nb + sb`, `nb` the number of `b`'s states.

    A popped pair first steps its class's unary run in a loop, one lookup
    in `b` per class whose `Chain.run_syms` entry holds a symbol, with no
    stack entry for the pairs on it; the run ends at a class with no such
    symbol, which is stepped edge by edge, or at a pair already seen."""
    b_index = b._symbol_index()
    b_finals = b.finals
    nb = len(b_index)
    transitions = chain.transitions
    finals = chain.finals
    run_syms = chain.run_syms
    seen = {chain.start * nb}
    stack = [(chain.start, 0)]
    while stack:
        sa, sb = stack.pop()
        sym = run_syms[sa]
        while sym >= 0:  # a non-final class with one one-symbol edge
            sb = b_index[sb].get(sym)
            if sb is None:
                return False
            sa = transitions[sa][0][1]
            key = sa * nb + sb
            if key in seen:
                break
            seen.add(key)
            sym = run_syms[sa]
        else:  # the run ends at a class that branches, is final or has a wide label
            if sa in finals and sb not in b_finals:
                return False
            b_table = b_index[sb]
            for label, da in transitions[sa]:
                for sym in label:
                    db = b_table.get(sym)
                    if db is None:
                        return False
                    key = da * nb + db
                    if key not in seen:
                        seen.add(key)
                        stack.append((da, db))
    return True


def _register_product(chain, b):
    """`(transitions, finals, start, count, symbols, run_syms)` of the
    chain of L(chain) & L(b), in one product walk from `chain.start`.
    `symbols` is the union of the labels of the classes the walk creates,
    and `run_syms` their `Chain.run_syms`.

    Product pairs are walked depth-first with an explicit stack.  A pair is
    settled once all its successors are: edges into dead pairs are dropped,
    the rest are merged by the successor's class, and `(final, edges)` is
    looked up in a register of classes, so pairs with equal right languages
    share one class (Daciuk, Mihov, Watson & Watson 2000).  A pair with no
    path to a final state dies on the spot.  Each class carries its path
    count.  The resulting chain's `dfa()` equals
    `reduce_acyclic(intersect(chain.dfa(), b))`, and is `empty_dfa` when
    nothing survives.  A chain is acyclic, so its product is too: a pair
    reached again is already settled, and the walk looks for no cycle.

    Most pairs of a lattice-shaped chain sit on unary runs, where the
    class is not final and has one edge.  A run is stepped in a loop, one
    lookup in `b` per label symbol.  A class with a `run_syms` symbol is
    stepped from that entry alone: its edge tuple and one lookup in `b`.
    Any other class is tested for one edge and finality, and its label,
    which then holds several symbols, is looked up symbol by symbol.  The
    run goes on while the symbols `b` can step all reach one state of `b`;
    when some symbols die, the pair's label is narrowed to the rest.  The
    run stops at the first pair whose class branches or is final, whose
    label `b` splits over two or more states, or that is already settled,
    and it dies where `b` can step none of a label's symbols.  Only a pair
    that branches or splits gets a stack frame, which carries the run, and
    the run's pairs are settled after it, last first.  So a step's cost
    follows the branching pairs, plus one lookup per symbol on the runs.
    Wherever it is settled, a non-final class with one merged edge
    `(label, successor class)` is registered under that edge, so equal
    right languages share one class either way, and its edges are
    `(edge,)`: the register key is the edge.  Such a class with a
    one-symbol label shares its successor's count and takes its symbol as
    its `run_syms` entry, which the run already knows.  Every other
    class's edges are a tuple too, and their frozenset, with the class's
    finality, is its register key; its entry is -1.

    A pair `(sa, sb)` is keyed as the int `sa * nb + sb`, `nb` the number
    of `b`'s states, so no pair's key is a tuple to build and hash.
    """
    product = _product_edges(chain, b)
    a_transitions = chain.transitions
    a_finals = chain.finals
    a_run_syms = chain.run_syms
    b_index = b._symbol_index()
    b_finals = b.finals
    nb = len(b_index)
    root = chain.start * nb
    cls = {}  # pair key -> class id, or -1 once dead
    unary = {}  # (label, successor class) -> id of a non-final one-edge class
    register = {}  # (final, frozenset of edges) -> id of other classes
    transitions = []  # the tuple of merged edges of each class, by class id
    finals = set()
    counts = []  # accepted strings from each class, by class id
    symbols = set()  # every symbol on the new classes' edges
    run_syms = []  # `Chain.run_syms` of the new classes, by class id
    stack = []  # frames (pair key, sa, sb, product edges, their iterator, run into pair)
    key, sa, sb = root, chain.start, 0  # a newly reached pair, to be entered
    while True:
        if key is not None:  # step the unary run from the pair
            run = []  # (pair key, label, its one symbol or -1) of each pair stepped, in order
            c = None
            while True:
                sym = a_run_syms[sa]
                if sym >= 0:  # a non-final class with one one-symbol edge
                    label, da = a_transitions[sa][0]
                    db = b_index[sb].get(sym)
                else:
                    a_edges = a_transitions[sa]
                    if len(a_edges) != 1 or sa in a_finals:
                        break
                    label, da = a_edges[0]  # a label of several symbols
                    b_table = b_index[sb]
                    dbs = set(map(b_table.get, label))
                    if None in dbs:  # some symbols die: narrow to the rest
                        dbs.discard(None)
                        if len(dbs) == 1:
                            label = frozenset([s for s in label if s in b_table])
                            if len(label) == 1:
                                (sym,) = label
                    if len(dbs) > 1:  # the label splits: the pair branches
                        break
                    db = dbs.pop() if dbs else None
                run.append((key, label, sym))
                if db is None:  # `b` cannot step the label: the run is dead
                    c = -1
                    break
                sa, sb = da, db
                key = da * nb + db
                c = cls.get(key)
                if c is not None:
                    break
            if c is None:  # the run ends at a pair that branches or splits its label
                edges = product(sa, sb)
                stack.append((key, sa, sb, edges, iter(edges), run))
                key = None
                continue
            key = None
        elif stack:
            top, ta, tb, edges, targets, run = stack[-1]
            for sa, sb in targets:  # enter the first successor not yet reached
                t = sa * nb + sb
                if t not in cls:
                    key = t
                    break
            if key is not None:
                continue
            stack.pop()  # every successor is settled: settle `top`
            merged = {}
            for (da, db), label in edges.items():
                c = cls[da * nb + db]
                if c >= 0:
                    got = merged.get(c)
                    merged[c] = label if got is None else got | label
            final = ta in a_finals and tb in b_finals
            if not final and len(merged) == 1:  # keyed as a run's pair, with the run
                ((c, label),) = merged.items()
                run.append((top, label, min(label) if len(label) == 1 else -1))
            elif not merged and not final:
                c = cls[top] = -1
            else:
                class_edges = tuple(zip(merged.values(), merged))
                signature = (final, frozenset(class_edges))
                c = register.get(signature)
                if c is None:
                    c = register[signature] = len(transitions)
                    count = 1 if final else 0
                    for label, d in class_edges:
                        count += len(label) * counts[d]
                        symbols |= label
                    counts.append(count)
                    if final:
                        finals.add(c)
                    transitions.append(class_edges)
                    run_syms.append(-1)
                cls[top] = c
        else:
            break
        for p, label, sym in reversed(run):  # settle the run into class `c`
            if c >= 0:
                u = (label, c)  # the class's one edge is its register key
                got = unary.get(u)
                if got is None:
                    got = unary[u] = len(transitions)
                    transitions.append((u,))
                    run_syms.append(sym)
                    if sym >= 0:
                        counts.append(counts[c])
                        symbols.add(sym)
                    else:
                        counts.append(len(label) * counts[c])
                        symbols |= label
                c = got
            cls[p] = c
    start = cls[root]
    if start < 0:  # nothing survives: one non-accepting class, as empty_dfa
        return [()], frozenset(), 0, 0, frozenset(), [-1]
    return transitions, finals, start, counts[start], symbols, run_syms


def is_empty(dfa):
    """True iff no accepting path exists."""
    return not trim(dfa).finals


def count_paths(dfa):
    """Exact number of accepted strings, via one pass over a topological
    order of `trim(dfa)`.  Arbitrary precision; never enumerates.

    Raises InfiniteLanguageError if a cycle survives among useful states.
    """
    d = trim(dfa)
    order = _topological(d)
    if order is None:
        raise InfiniteLanguageError("automaton accepts an infinite language")
    transitions = d.transitions
    finals = d.finals
    ways = [0] * d.n_states
    for state in reversed(order):
        total = 1 if state in finals else 0
        for label, dst in transitions[state]:
            total += len(label) * ways[dst]
        ways[state] = total
    return ways[0]


def enumerate_strings(dfa, limit):
    """Up to `limit` accepted strings (tuples of symbol ids) in shortlex
    order over symbol ids.  Works for finite and infinite languages.  The
    search runs over `trim(dfa)`, so it visits only productive prefixes
    and never a part of `dfa` that the start does not reach."""
    if limit <= 0:
        return []
    d = trim(dfa)
    if not d.finals:
        return []
    expanded = []
    for edges in d.transitions:
        pairs = []
        for label, dst in edges:
            pairs.extend((sym, dst) for sym in label)
        pairs.sort()
        expanded.append(tuple(pairs))
    preds = _predecessors(d.transitions)

    # live[n]: the states with an accepted continuation of exactly n symbols
    live = [d.finals]
    out = []
    while len(out) < limit:
        length = len(live) - 1
        if 0 in live[length]:
            out.extend(islice(_strings_of_length(expanded, live, length), limit - len(out)))
        longer = set()
        for dst in live[length]:
            longer.update(preds[dst])
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
