import random

import pytest
from hypothesis import given, settings, strategies as st

from fslat.automata import (
    Alphabet,
    Alt,
    ClassRef,
    Dfa,
    InfiniteLanguageError,
    Lit,
    Nfa,
    OneOf,
    Opt,
    PatternError,
    Seq,
    Star,
    Syms,
    complement,
    count_paths,
    determinize,
    dump,
    empty_dfa,
    enumerate_strings,
    from_pattern,
    intersect,
    intersect_minimal,
    is_empty,
    language_equal,
    minimize,
    reduce_acyclic,
    trim,
)
from .util import (
    exhaustive_strings,
    hand_matcher,
    language_up_to,
    naive_moore_minimal_states,
    random_dfa,
)


@pytest.fixture
def abc():
    alph = Alphabet(["A", "B", "C", "V", "VFIN"])
    alph.define_class("CLB", ["@/", "@<", "@>"])
    return alph


def ids(alph, *texts):
    return [alph.id_of(t) for t in texts]


class TestAlphabet:
    def test_interning_is_bijective(self):
        alph = Alphabet(["X", "Y", "X"])
        assert alph.id_of("X") == alph.id_of("X")
        assert alph.id_of("X") != alph.id_of("Y")
        assert alph.text_of(alph.id_of("Y")) == "Y"

    def test_boundary_symbols_reserved(self):
        alph = Alphabet()
        for text in ("@@", "@", "@/", "@<", "@>"):
            assert text in alph

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Alphabet([""])

    def test_classes_are_subsets(self, abc):
        members = abc.define_class("X", ["A", "B"])
        assert members <= abc.id_set()


class TestFromPattern:
    def test_single_symbol(self, abc):
        d = determinize(from_pattern(Lit("V"), abc))
        assert d.accepts(ids(abc, "V"))
        assert not d.accepts([])
        assert not d.accepts(ids(abc, "A"))

    def test_star(self, abc):
        d = determinize(from_pattern(Star(Lit("A")), abc))
        assert d.accepts([])
        assert d.accepts(ids(abc, "A"))
        assert d.accepts(ids(abc, "A", "A"))
        assert not d.accepts(ids(abc, "B"))

    def test_class_concat_against_hand_matcher(self, abc):
        # concat(class CLB, VFIN) over the boundary symbols
        d = determinize(
            from_pattern(Seq((ClassRef("CLB"), Lit("VFIN"))), abc)
        )
        clb = ["@/", "@<", "@>"]
        five = ["@/", "@<", "@>", "@", "VFIN"]
        for w in exhaustive_strings(five, 2):
            want = hand_matcher(w, *[(c, "VFIN") for c in clb])
            assert d.accepts(ids(abc, *w)) == want, w

    def test_negated_class(self, abc):
        d = determinize(from_pattern(OneOf(frozenset(("A",)), negated=True), abc))
        assert d.accepts(ids(abc, "B"))
        assert not d.accepts(ids(abc, "A"))

    def test_unknown_symbol_reports_location(self, abc):
        with pytest.raises(PatternError) as err:
            from_pattern(Lit("NOPE", line=3, col=7), abc)
        assert "NOPE" in str(err.value)
        assert "line 3" in str(err.value)

    def test_unknown_class(self, abc):
        with pytest.raises(PatternError):
            from_pattern(ClassRef("NOCLASS"), abc)

    def test_option(self, abc):
        d = determinize(from_pattern(Seq((Opt(Lit("A")), Lit("B"))), abc))
        assert d.accepts(ids(abc, "B"))
        assert d.accepts(ids(abc, "A", "B"))
        assert not d.accepts(ids(abc, "A"))


class TestDeterminize:
    def test_a_or_aa(self, abc):
        nfa = from_pattern(Alt((Lit("A"), Seq((Lit("A"), Lit("A"))))), abc)
        d = determinize(nfa)
        for w in exhaustive_strings(["A", "B"], 3):
            assert d.accepts(ids(abc, *w)) == (w in {("A",), ("A", "A")}), w

    def test_empty_language(self, abc):
        d = determinize(from_pattern(Alt(()), abc))
        assert is_empty(d)

    def test_idempotent_on_deterministic_input(self, abc):
        d = determinize(from_pattern(Seq((Lit("A"), Lit("B"))), abc))
        # feed the DFA back through the NFA pipeline
        from fslat.automata import Nfa

        nfa = Nfa(abc)
        for _ in range(d.n_states):
            nfa.add_state()
        for src, edges in enumerate(d.transitions):
            for label, dst in edges:
                nfa.add_edge(src, label, dst)
        nfa.finals = set(d.finals)
        d2 = determinize(nfa)
        assert language_equal(d, d2)


class TestMinimize:
    def test_minimal_input_is_fixed_point(self, abc):
        d = minimize(determinize(from_pattern(Seq((Lit("A"), Lit("B"))), abc)))
        assert minimize(d).n_states == d.n_states

    def test_redundant_states_merge(self, abc):
        # two parallel branches accepting the same string
        d = determinize(
            from_pattern(Alt((Seq((Lit("A"), Lit("B"))), Seq((Lit("A"), Lit("B"))))), abc)
        )
        m = minimize(d)
        assert m.n_states == 3
        assert language_equal(d, m)

    def test_empty_language_canonical(self, abc):
        d = minimize(determinize(from_pattern(Alt(()), abc)))
        assert d.n_states == 1 and not d.finals

    def test_against_partition_refinement_oracle(self, abc):
        rng = random.Random(20230)
        small = Alphabet(["A", "B", "C"])
        for _ in range(120):
            d = random_dfa(rng, small, max_states=6)
            mine = minimize(d)
            assert language_equal(mine, d)
            if is_empty(d):
                assert not mine.finals
            else:
                assert mine.n_states == naive_moore_minimal_states(d)

    def test_reduce_acyclic_matches_minimize(self, abc):
        rng = random.Random(77)
        small = Alphabet(["A", "B"])
        for _ in range(150):
            d = random_dfa(rng, small, max_states=6)
            try:
                count_paths(d)
            except InfiniteLanguageError:
                continue
            r = reduce_acyclic(d)
            m = minimize(d)
            assert language_equal(r, m)
            assert r.n_states == m.n_states


class TestComplement:
    def test_involution(self, abc):
        rng = random.Random(4)
        small = Alphabet(["A", "B"])
        for _ in range(60):
            d = random_dfa(rng, small, max_states=8)
            cc = complement(complement(d, small), small)
            assert language_equal(cc, d)

    def test_accept_all_becomes_empty(self, abc):
        everything = determinize(
            from_pattern(Star(Syms(abc.id_set())), abc)
        )
        assert is_empty(complement(everything, abc))

    def test_single_string(self):
        alph = Alphabet(["A", "B"])
        d = determinize(from_pattern(Lit("A"), alph))
        c = complement(d, alph)
        assert c.accepts([])
        assert c.accepts(ids(alph, "B"))
        assert c.accepts(ids(alph, "A", "A"))
        assert not c.accepts(ids(alph, "A"))


class TestIntersect:
    def test_identity_and_absorbing(self, abc):
        d = determinize(from_pattern(Alt((Lit("A"), Seq((Lit("A"), Lit("B"))))), abc))
        everything = determinize(from_pattern(Star(Syms(abc.id_set())), abc))
        empty = determinize(from_pattern(Alt(()), abc))
        assert language_equal(intersect(d, everything), d)
        assert is_empty(intersect(d, empty))

    def test_enumeration_oracle(self, abc):
        d1 = determinize(from_pattern(Alt((Lit("A"), Seq((Lit("A"), Lit("B"))))), abc))
        d2 = determinize(from_pattern(Alt((Seq((Lit("A"), Lit("B"))), Lit("B"))), abc))
        di = intersect(d1, d2)
        got = language_up_to(di, ids(abc, "A", "B"), 2)
        assert got == {tuple(ids(abc, "A", "B"))}

    def test_commutative_associative(self):
        rng = random.Random(99)
        small = Alphabet(["A", "B"])
        for _ in range(40):
            a, b, c = (random_dfa(rng, small, max_states=5) for _ in range(3))
            assert language_equal(intersect(a, b), intersect(b, a))
            assert language_equal(
                intersect(intersect(a, b), c), intersect(a, intersect(b, c))
            )

    def test_disjoint_singletons_empty(self):
        alph = Alphabet(["A", "B"])
        a = determinize(from_pattern(Seq((Lit("A"), Lit("A"))), alph))
        b = determinize(from_pattern(Seq((Lit("B"), Lit("B"))), alph))
        assert is_empty(intersect(a, b))


class TestIntersectMinimal:
    def test_empty_product_is_empty_dfa(self):
        alph = Alphabet(["A", "B"])
        a = determinize(from_pattern(Seq((Lit("A"), Lit("A"))), alph))
        b = determinize(from_pattern(Seq((Lit("A"), Lit("B"))), alph))
        got, count = intersect_minimal(a, b)
        empty = empty_dfa(alph)
        assert (got.transitions, got.finals, count) == (empty.transitions, empty.finals, 0)

    def test_useful_cycle_raises(self, abc):
        star = determinize(from_pattern(Star(Lit("A")), abc))
        with pytest.raises(InfiniteLanguageError):
            intersect_minimal(star, star)

    def test_long_chain_does_not_recurse(self):
        # deeper than Python's recursion limit: the walk keeps its own stack
        alph = Alphabet(["A", "B"])
        both = frozenset(ids(alph, "A", "B"))
        n = 4999
        chain = Dfa(alph, [((both, i + 1),) for i in range(n)] + [()], (n,))
        sigma_star = complement(empty_dfa(alph), alph)
        got, count = intersect_minimal(chain, sigma_star)
        assert (got.transitions, got.finals) == (chain.transitions, chain.finals)
        assert count == 2**n


class TestIsEmpty:
    def test_cases(self, abc):
        assert is_empty(determinize(from_pattern(Alt(()), abc)))
        assert not is_empty(determinize(from_pattern(Lit("A"), abc)))


class TestCountPaths:
    def test_single_string(self, abc):
        d = determinize(from_pattern(Seq((Lit("A"), Lit("B"))), abc))
        assert count_paths(d) == 1

    def test_grid_closed_form(self):
        alph = Alphabet(["S1", "S2", "S3"])
        all3 = Syms(frozenset(ids(alph, "S1", "S2", "S3")))
        for n in range(1, 5):
            for k in (1, 2, 3):
                label = Syms(frozenset(ids(alph, *[f"S{i+1}" for i in range(k)])))
                d = determinize(from_pattern(Seq((label,) * n), alph))
                assert count_paths(d) == k**n
                assert len(enumerate_strings(d, k**n + 5)) == k**n

    def test_infinite_language_error(self, abc):
        d = determinize(from_pattern(Star(Lit("A")), abc))
        with pytest.raises(InfiniteLanguageError):
            count_paths(d)

    def test_dead_cycle_does_not_hurt(self):
        # a cycle outside the useful subgraph must not trigger the error
        alph = Alphabet(["A", "B"])
        a, b = ids(alph, "A", "B")
        transitions = (
            ((frozenset((a,)), 1), (frozenset((b,)), 2)),
            (),
            ((frozenset((b,)), 2),),  # dead self-loop, no final reachable
        )
        from fslat.automata import Dfa

        d = Dfa(alph, transitions, frozenset((1,)))
        assert count_paths(d) == 1

    def test_big_magnitude_fast(self):
        import time

        alph = Alphabet([f"T{i}" for i in range(70)])
        labels = [
            Syms(frozenset(alph.id_of(f"T{i}") for i in range((pos % 70) + 1)))
            for pos in range(39)
        ]
        d = determinize(from_pattern(Seq(tuple(labels)), alph))
        t0 = time.perf_counter()
        n = count_paths(d)
        assert time.perf_counter() - t0 < 1.0
        assert n >= 10**30


class TestEnumerate:
    def test_empty(self, abc):
        assert enumerate_strings(determinize(from_pattern(Alt(()), abc)), 10) == []

    def test_small_language(self, abc):
        d = determinize(from_pattern(Alt((Lit("A"), Seq((Lit("A"), Lit("B"))))), abc))
        a, b = ids(abc, "A", "B")
        assert enumerate_strings(d, 10) == [(a,), (a, b)]
        assert enumerate_strings(d, 1) == [(a,)]

    def test_limit_zero(self, abc):
        d = determinize(from_pattern(Lit("A"), abc))
        assert enumerate_strings(d, 0) == []

    def test_shortlex_order(self):
        rng = random.Random(5)
        small = Alphabet(["A", "B"])
        for _ in range(40):
            d = random_dfa(rng, small, max_states=5)
            got = enumerate_strings(d, 60)
            expect = sorted(
                (tuple(w) for w in language_up_to(d, sorted(small.id_set()), 5)),
                key=lambda w: (len(w), w),
            )[:60]
            assert got[: len(expect)] == expect

    def test_count_matches_enumeration(self):
        rng = random.Random(6)
        small = Alphabet(["A", "B", "C"])
        checked = 0
        while checked < 60:
            d = random_dfa(rng, small, max_states=6)
            try:
                n = count_paths(d)
            except InfiniteLanguageError:
                continue
            if n <= 10_000:
                assert len(enumerate_strings(d, n + 10)) == n
                checked += 1


class TestDump:
    def test_format(self):
        alph = Alphabet(["A", "B"])
        d = determinize(from_pattern(Alt((Lit("A"), Seq((Lit("A"), Lit("B"))))), alph))
        text = dump(d)
        lines = text.splitlines()
        assert lines[0] == "0\tA\t1"
        assert "final:" in lines
        finals = lines[lines.index("final:") + 1 :]
        assert finals == sorted(finals)
        # deterministic across calls
        assert dump(d) == text


# Property tests over random instances (kernel invariants).


_PROP_ALPHABET = Alphabet(["S0", "S1", "S2"])
_PROP_SYMS = tuple(_PROP_ALPHABET.id_of(f"S{i}") for i in range(3))


@st.composite
def dfas(draw, max_states=8):
    """Random DFAs over three symbols (the reserved boundary symbols stay
    edge-free, so exhaustive checks only need the three)."""
    n = draw(st.integers(1, max_states))
    transitions = []
    for _ in range(n):
        edges = []
        for sym in _PROP_SYMS:
            dst = draw(st.integers(-1, n - 1))
            if dst >= 0:
                edges.append((frozenset((sym,)), dst))
        transitions.append(tuple(edges))
    finals = frozenset(s for s in range(n) if draw(st.booleans()))
    from fslat.automata import Dfa

    return Dfa(_PROP_ALPHABET, transitions, finals)


@settings(max_examples=500, deadline=None)
@given(dfas())
def test_property_complement_involution(d):
    alph = d.alphabet
    assert language_equal(complement(complement(d, alph), alph), d)


@settings(max_examples=500, deadline=None)
@given(dfas(), dfas())
def test_property_intersect_commutes(a, b):
    assert language_equal(intersect(a, b), intersect(b, a))


@settings(max_examples=500, deadline=None)
@given(dfas())
def test_property_minimize_preserves_language(d):
    m = minimize(d)
    for w in exhaustive_strings(_PROP_SYMS, 6):
        assert d.accepts(w) == m.accepts(w)


def _as_nfa(d):
    nfa = Nfa(d.alphabet)
    for _ in range(d.n_states):
        nfa.add_state()
    for src, edges in enumerate(d.transitions):
        for label, dst in edges:
            nfa.add_edge(src, label, dst)
    nfa.finals = set(d.finals)
    return nfa


@settings(max_examples=500, deadline=None)
@given(dfas())
def test_property_determinize_preserves_language(d):
    d2 = determinize(_as_nfa(d))
    for w in exhaustive_strings(_PROP_SYMS, 6):
        assert d.accepts(w) == d2.accepts(w)


def assert_canonical(d):
    """States numbered 0.. in breadth-first discovery order, every state
    reachable, and each state's edges sorted by smallest symbol."""
    order = [0]
    seen = {0}
    for state in order:
        firsts = [min(label) for label, _ in d.transitions[state]]
        assert firsts == sorted(set(firsts)), (state, d.transitions[state])
        for _, dst in d.transitions[state]:
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
    assert order == list(range(d.n_states)), order


#: Every string of at most four symbols; intersecting with it makes any
#: automaton acyclic.
_UP_TO_4 = Dfa(
    _PROP_ALPHABET,
    [((frozenset(_PROP_SYMS), i + 1),) for i in range(4)] + [()],
    range(5),
)


@settings(max_examples=300, deadline=None)
@given(dfas(), dfas())
def test_property_outputs_are_canonical(a, b):
    acyclic = intersect(a, _UP_TO_4)
    reduced = reduce_acyclic(acyclic)
    for d in (
        determinize(_as_nfa(a)),
        trim(a),
        minimize(a),
        reduced,
        intersect(a, b),
        complement(a, a.alphabet),
    ):
        assert_canonical(d)
    minimal = minimize(acyclic)
    assert (reduced.transitions, reduced.finals) == (minimal.transitions, minimal.finals)


@st.composite
def dags(draw, max_states=8):
    """Random acyclic DFAs over the same three symbols: every edge leads to
    a higher-numbered state."""
    n = draw(st.integers(1, max_states))
    transitions = []
    for src in range(n):
        edges = []
        for sym in _PROP_SYMS:
            dst = draw(st.integers(src, n - 1))
            if dst > src:
                edges.append((frozenset((sym,)), dst))
        transitions.append(tuple(edges))
    finals = frozenset(s for s in range(n) if draw(st.booleans()))
    return Dfa(_PROP_ALPHABET, transitions, finals)


@settings(max_examples=500, deadline=None)
@given(dags(), dfas())
def test_property_intersect_minimal_is_reduced_product(a, b):
    got, count = intersect_minimal(a, b)
    want = reduce_acyclic(intersect(a, b))
    assert (got.transitions, got.finals) == (want.transitions, want.finals)
    assert count == count_paths(want)


@settings(max_examples=500, deadline=None)
@given(dfas())
def test_property_count_equals_enumeration(d):
    try:
        n = count_paths(d)
    except InfiniteLanguageError:
        return
    if n <= 10_000:
        assert len(enumerate_strings(d, n + 1)) == n
