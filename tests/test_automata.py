import random

import pytest
from hypothesis import given, settings, strategies as st

from fslat.automata import (
    Alphabet,
    AlphabetMismatchError,
    Alt,
    Chain,
    Dfa,
    InfiniteLanguageError,
    Opt,
    PatternError,
    Seq,
    Star,
    Syms,
    count_paths,
    empty_dfa,
    enumerate_strings,
    expand_blocks,
    intersect,
    is_empty,
    minimize,
    pattern_dfa,
    reduce_acyclic,
    trim,
)
from fslat.automata import _contained, _register_product
from fslat.grammar import _Matcher
from .util import (
    Nfa,
    complement,
    determinize,
    difference,
    dump,
    erase_symbol,
    exhaustive_strings,
    from_pattern,
    hand_matcher,
    language_equal,
    language_up_to,
    naive_moore_minimal_states,
    nfa_accepts,
    nfa_erase_symbol,
    per_symbol_moore,
    random_dfa,
)


@pytest.fixture
def abc():
    return Alphabet(["A", "B", "C", "V", "VFIN"], {"CLB": ["@/", "@<", "@>"]})


def ids(alph, *texts):
    return [alph.id_of(t) for t in texts]


def lit(alph, text):
    """The one-symbol pattern for `text`."""
    return Syms(frozenset({alph.id_of(text)}))


def a_or_ab(alph):
    """The pattern `A | A B`."""
    return Alt((lit(alph, "A"), Seq((lit(alph, "A"), lit(alph, "B")))))


def sigma_star(alph):
    """The DFA accepting every string over `alph`."""
    return complement(empty_dfa(alph))


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
        assert abc.classes["CLB"] == frozenset(ids(abc, "@/", "@<", "@>"))
        assert abc.classes["CLB"] <= abc.id_set()

    def test_class_member_must_be_a_symbol(self):
        with pytest.raises(PatternError) as err:
            Alphabet(["A"], {"K": ["NOPE"]})
        assert "NOPE" in str(err.value)


class TestFromPattern:
    """`pattern_dfa`: a pattern straight to a DFA."""

    def test_single_symbol(self, abc):
        d = pattern_dfa(lit(abc, "V"), abc)
        assert d.accepts(ids(abc, "V"))
        assert not d.accepts([])
        assert not d.accepts(ids(abc, "A"))

    def test_star(self, abc):
        d = pattern_dfa(Star(lit(abc, "A")), abc)
        assert d.accepts([])
        assert d.accepts(ids(abc, "A"))
        assert d.accepts(ids(abc, "A", "A"))
        assert not d.accepts(ids(abc, "B"))

    def test_class_concat_against_hand_matcher(self, abc):
        # concat(class CLB, VFIN) over the boundary symbols
        d = pattern_dfa(Seq((Syms(abc.classes["CLB"]), lit(abc, "VFIN"))), abc)
        clb = ["@/", "@<", "@>"]
        five = ["@/", "@<", "@>", "@", "VFIN"]
        for w in exhaustive_strings(five, 2):
            want = hand_matcher(w, *[(c, "VFIN") for c in clb])
            assert d.accepts(ids(abc, *w)) == want, w

    def test_option(self, abc):
        d = pattern_dfa(Seq((Opt(lit(abc, "A")), lit(abc, "B"))), abc)
        assert d.accepts(ids(abc, "B"))
        assert d.accepts(ids(abc, "A", "B"))
        assert not d.accepts(ids(abc, "A"))


class TestDeterminize:
    """The oracles' subset construction over an NFA with epsilon edges."""

    def test_a_or_aa(self, abc):
        nfa = from_pattern(Alt((lit(abc, "A"), Seq((lit(abc, "A"), lit(abc, "A"))))), abc)
        d = determinize(nfa)
        for w in exhaustive_strings(["A", "B"], 3):
            assert d.accepts(ids(abc, *w)) == (w in {("A",), ("A", "A")}), w

    def test_empty_language(self, abc):
        d = determinize(from_pattern(Alt(()), abc))
        assert is_empty(d)

    def test_idempotent_on_deterministic_input(self, abc):
        d = determinize(from_pattern(Seq((lit(abc, "A"), lit(abc, "B"))), abc))
        # feed the DFA back through the NFA pipeline
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
        d = minimize(pattern_dfa(Seq((lit(abc, "A"), lit(abc, "B"))), abc))
        assert minimize(d).n_states == d.n_states

    def test_redundant_states_merge(self, abc):
        # two parallel branches accepting the same string
        d = pattern_dfa(
            Alt((Seq((lit(abc, "A"), lit(abc, "B"))), Seq((lit(abc, "A"), lit(abc, "B"))))), abc
        )
        m = minimize(d)
        assert m.n_states == 3
        assert language_equal(d, m)

    def test_empty_language_canonical(self, abc):
        d = minimize(pattern_dfa(Alt(()), abc))
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

    def test_reduce_acyclic_raises_on_a_useful_cycle(self):
        # the DFAs of `TestChain.test_dead_cycle_is_trimmed_away`, each once
        # with a final state on its cycle and once with none
        alph = Alphabet(["A", "B"])
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        only_b = pattern_dfa(lit(alph, "B"), alph)
        for transitions, useful_finals, dead_finals in (
            ([((a, 1), (b, 4)), ((b, 2),), ((a, 3),), ((b, 2),), ()], (4, 3), (4,)),
            ([((a, 1), (b, 3)), ((b, 2),), ((a, 1),), ()], (3, 2), (3,)),
        ):
            with pytest.raises(InfiniteLanguageError):
                reduce_acyclic(Dfa(alph, transitions, useful_finals))
            got = reduce_acyclic(Dfa(alph, transitions, dead_finals))
            assert got._trimmed
            assert (got.transitions, got.finals) == (only_b.transitions, only_b.finals)


class TestComplement:
    def test_involution(self, abc):
        rng = random.Random(4)
        small = Alphabet(["A", "B"])
        for _ in range(60):
            d = random_dfa(rng, small, max_states=8)
            cc = complement(complement(d))
            assert language_equal(cc, d)

    def test_accept_all_becomes_empty(self, abc):
        everything = pattern_dfa(Star(Syms(abc.id_set())), abc)
        assert is_empty(complement(everything))

    def test_single_string(self):
        alph = Alphabet(["A", "B"])
        d = pattern_dfa(lit(alph, "A"), alph)
        c = complement(d)
        assert c.accepts([])
        assert c.accepts(ids(alph, "B"))
        assert c.accepts(ids(alph, "A", "A"))
        assert not c.accepts(ids(alph, "A"))


class TestIntersect:
    def test_identity_and_absorbing(self, abc):
        d = pattern_dfa(a_or_ab(abc), abc)
        everything = pattern_dfa(Star(Syms(abc.id_set())), abc)
        empty = pattern_dfa(Alt(()), abc)
        assert language_equal(intersect(d, everything), d)
        assert is_empty(intersect(d, empty))

    def test_enumeration_oracle(self, abc):
        d1 = pattern_dfa(a_or_ab(abc), abc)
        d2 = pattern_dfa(Alt((Seq((lit(abc, "A"), lit(abc, "B"))), lit(abc, "B"))), abc)
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
        a = pattern_dfa(Seq((lit(alph, "A"), lit(alph, "A"))), alph)
        b = pattern_dfa(Seq((lit(alph, "B"), lit(alph, "B"))), alph)
        assert is_empty(intersect(a, b))


class TestDifference:
    def test_b_empty_keeps_a(self, abc):
        d = pattern_dfa(a_or_ab(abc), abc)
        got = difference(d, empty_dfa(abc))
        assert (got.transitions, got.finals) == (d.transitions, d.finals)

    def test_b_sigma_star_leaves_nothing(self, abc):
        d = pattern_dfa(a_or_ab(abc), abc)
        got = difference(d, sigma_star(abc))
        assert (got.transitions, got.finals) == (((),), frozenset())

    def test_a_empty_leaves_nothing(self, abc):
        d = pattern_dfa(a_or_ab(abc), abc)
        got = difference(empty_dfa(abc), d)
        assert (got.transitions, got.finals) == (((),), frozenset())

    def test_alphabet_mismatch(self, abc):
        other = Alphabet(["A", "B"])
        with pytest.raises(AlphabetMismatchError):
            difference(sigma_star(abc), sigma_star(other))
        with pytest.raises(AlphabetMismatchError):
            language_equal(sigma_star(abc), sigma_star(other))


def intersect_minimal(a, b):
    """The minimal DFA of L(a) & L(b) and its count, by one chain step."""
    chain, count = Chain(a).intersect(b)
    return chain.dfa(), count


class TestIntersectMinimal:
    def test_empty_product_is_empty_dfa(self):
        alph = Alphabet(["A", "B"])
        a = pattern_dfa(Seq((lit(alph, "A"), lit(alph, "A"))), alph)
        b = pattern_dfa(Seq((lit(alph, "A"), lit(alph, "B"))), alph)
        got, count = intersect_minimal(a, b)
        empty = empty_dfa(alph)
        assert (got.transitions, got.finals, count) == (empty.transitions, empty.finals, 0)

    def test_useful_cycle_raises(self, abc):
        star = pattern_dfa(Star(lit(abc, "A")), abc)
        with pytest.raises(InfiniteLanguageError):
            intersect_minimal(star, star)

    def test_long_chain_does_not_recurse(self):
        # deeper than Python's recursion limit: the walk keeps its own stack
        alph = Alphabet(["A", "B"])
        both = frozenset(ids(alph, "A", "B"))
        n = 4999
        chain = Dfa(alph, [((both, i + 1),) for i in range(n)] + [()], (n,))
        sigma_star = complement(empty_dfa(alph))
        got, count = intersect_minimal(chain, sigma_star)
        assert (got.transitions, got.finals) == (chain.transitions, chain.finals)
        assert count == 2**n

    def test_long_unary_run_does_not_recurse(self):
        # one single-symbol edge a state: stepped as one run, with no frames
        alph = Alphabet(["A", "B"])
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        n = 100_000
        run = [((a, i + 1),) for i in range(n)]
        chain = Chain(Dfa(alph, run + [((a | b, n + 1),), ()], (n + 1,)))
        assert chain.count == 2
        a_star = Dfa(alph, [((a, 0),)], (0,))
        got, count = chain.intersect(a_star)
        assert count == 1
        assert len(got.transitions) == n + 2

    def test_unary_cycle_raises(self):
        # 2 -A-> 3 -B-> 2, entered from 1 by a run; 3 is final, so the
        # cycle is useful
        alph = Alphabet(["A", "B"])
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        dfa = Dfa(alph, [((a, 1), (b, 4)), ((b, 2),), ((a, 3),), ((b, 2),), ()], (4, 3))
        with pytest.raises(InfiniteLanguageError):
            Chain(dfa)

    def test_one_symbol_cycle_entered_from_a_branch_raises(self):
        # 1 -B-> 2 -A-> 1, entered straight from the branching start; 2 is
        # final, so the cycle is useful
        alph = Alphabet(["A", "B"])
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        dfa = Dfa(alph, [((a, 1), (b, 3)), ((b, 2),), ((a, 1),), ()], (3, 2))
        with pytest.raises(InfiniteLanguageError):
            Chain(dfa)

    def test_dead_cycle_is_trimmed_away(self):
        # the two DFAs above with no state of the cycle final: no accepting
        # path enters the cycle, and each accepts only B
        alph = Alphabet(["A", "B"])
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        for dfa in (
            Dfa(alph, [((a, 1), (b, 4)), ((b, 2),), ((a, 3),), ((b, 2),), ()], (4,)),
            Dfa(alph, [((a, 1), (b, 3)), ((b, 2),), ((a, 1),), ()], (3,)),
        ):
            assert Chain(dfa).count == count_paths(dfa) == 1


class TestContainedRuns:
    """A unary run of one-symbol classes is stepped in a loop by the
    containment walk, with no stack entry per pair."""

    def test_long_one_symbol_run_does_not_recurse(self):
        alph = Alphabet(["A", "B"])
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        (sym_a,) = a
        n = 100_000
        chain = Chain(Dfa(alph, [((a, i + 1),) for i in range(n)] + [()], (n,)))
        assert chain.run_syms[chain.start] == sym_a
        assert chain.run_syms.count(sym_a) == n
        a_star = Dfa(alph, [((a, 0),)], (0,))
        assert _contained(chain, a_star)
        # the rule steps every symbol of the run but rejects at its end
        a_star_rejecting = Dfa(alph, [((a | b, 0),)], ())
        assert not _contained(chain, a_star_rejecting)
        got, count = chain.intersect(a_star_rejecting)
        assert count == 0
        assert not _contained(chain, Dfa(alph, [((a, 1),), ((b, 1),)], (1,)))


class TestRunLabels:
    """A run steps through a one-edge class whose label holds several
    symbols: on when they all reach one rule state, narrowed to the live
    ones when some die, dead when all die, and a branch when they reach
    two states."""

    @pytest.fixture
    def alph(self):
        return Alphabet(["A", "B", "C", "W", "X", "Y", "Z"])

    def _rule(self, alph, *strings):
        """The DFA of the strings, each a space-separated list of symbol
        sets such as `A WX B`."""
        pats = tuple(
            Seq(tuple(Syms(frozenset(ids(alph, *part))) for part in string.split()))
            for string in strings
        )
        return pattern_dfa(Alt(pats), alph)

    def _chain(self, alph):
        """`A {W,X,Y,Z} B | B`: class after `A` has one edge with a
        four-symbol label, so a step that keeps `A ? B` runs through it."""
        wxyz = frozenset(ids(alph, "W", "X", "Y", "Z"))
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        chain = Chain(Dfa(alph, [((a, 1), (b, 3)), ((wxyz, 2),), ((b, 3),), ()], (3,)))
        assert chain.count == 5
        return chain

    @pytest.mark.parametrize(
        "strings, count",
        [
            (("A WXYZ B",), 4),  # (a) all four symbols reach one state
            (("A WX B",), 2),  # (b) Y and Z die: the label is narrowed
            (("A C B", "B"), 1),  # (c) all four die: the run is dead
            (("A C B",), 0),  # (c) and nothing survives
            (("A WX B", "A YZ B B"), 2),  # (d) split over two states, one rejects later
            (("A WX B", "A YZ B", "A YZ B B"), 4),  # (d) split, both accept
        ],
        ids=["one-state", "some-die", "all-die", "all-die-empty", "split-rejects", "split"],
    )
    def test_step_matches_reduced_product(self, alph, strings, count):
        chain = self._chain(alph)
        rule = self._rule(alph, *strings)
        got, got_count = chain.intersect(rule)
        want = reduce_acyclic(intersect(chain.dfa(), rule))
        assert got_count == count == count_paths(want)
        assert (got.dfa().transitions, got.dfa().finals) == (want.transitions, want.finals)

    @pytest.mark.parametrize(
        "strings, contained, count",
        [
            (("A WX B", "A YZ B", "B"), True, 5),  # two states, both accept
            (("A WX B", "A YZ B B", "B"), False, 3),  # two states, one rejects after B
            (("A WXY B", "B"), False, 4),  # Z cannot step
        ],
        ids=["split", "split-rejects", "one-dies"],
    )
    def test_contained_steps_every_label_symbol(self, alph, strings, contained, count):
        chain = self._chain(alph)
        got, got_count = chain.intersect(self._rule(alph, *strings))
        assert (got is chain) == contained
        assert got_count == count

    def test_long_run_of_two_symbol_labels_does_not_recurse(self, alph):
        # 100,000 one-edge classes labelled {A, B}, stepped as one run
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        n = 100_000
        run = Dfa(alph, [((a | b, i + 1),) for i in range(n)] + [()], (n,))
        a_star = Dfa(alph, [((a, 0),)], (0,))
        transitions, finals, start, count, symbols, run_syms = _register_product(
            Chain(run), a_star
        )
        assert count == 1  # every label narrowed to {A}
        assert symbols == a
        assert len(transitions) == n + 1
        assert transitions[start] == ((a, start - 1),)
        (sym_a,) = a
        assert run_syms == [-1] + [sym_a] * n  # the final class, then the narrowed run
        dead_end = Chain(Dfa(alph, [((a | b, i + 1),) for i in range(n)] + [()], ()))
        assert dead_end.count == 0  # every symbol steps Sigma*, and the end is not final


class TestChain:
    def _dfa(self, alph, pat):
        return pattern_dfa(pat, alph)

    def _stepped(self, alph):
        """A chain of `A | A B`."""
        chain = Chain(self._dfa(alph, a_or_ab(alph)))
        assert chain.count == 2
        return chain

    def test_contained_step_returns_same_chain(self, abc):
        chain = self._stepped(abc)
        for rule in (sigma_star(abc), self._dfa(abc, a_or_ab(abc))):
            again, count = chain.intersect(rule)
            assert again is chain
            assert count == 2

    def _redundant(self, alph):
        """`A | B` with two equivalent final states, so not minimal."""
        a, b = (frozenset(ids(alph, t)) for t in ("A", "B"))
        return Dfa(alph, [((a, 1), (b, 2)), (), ()], (1, 2))

    def test_start_is_reduced_and_counted(self, abc):
        redundant = self._redundant(abc)
        start = Chain(redundant)
        assert start.count == count_paths(redundant) == 2
        assert len(start.transitions) == 2
        chain, count = start.intersect(sigma_star(abc))
        assert chain is start
        assert count == 2

    def test_zero_steps_give_the_reduced_dfa(self, abc):
        redundant = self._redundant(abc)
        got, want = Chain(redundant).dfa(), reduce_acyclic(redundant)
        assert want.n_states == 2
        assert (got.n_states, got.transitions, got.finals) == (
            want.n_states, want.transitions, want.finals,
        )

    @pytest.mark.parametrize(
        "rule_texts, count",
        [
            ((("A", "B"),), 1),  # every symbol steps, but the pair after A is not final
            ((("A",),), 1),  # B cannot step
            ((("B",),), 0),
        ],
    )
    def test_step_that_cuts_runs_the_product(self, abc, rule_texts, count):
        chain = self._stepped(abc)
        rule = self._dfa(
            abc, Alt(tuple(Seq(tuple(lit(abc, t) for t in texts)) for texts in rule_texts))
        )
        got, got_count = chain.intersect(rule)
        assert got is not chain
        assert got_count == count
        want = reduce_acyclic(intersect(chain.dfa(), rule))
        assert (got.dfa().transitions, got.dfa().finals) == (want.transitions, want.finals)

    def test_alphabet_mismatch_raises_before_any_walk(self, abc):
        other = Alphabet(["A", "B"])
        with pytest.raises(AlphabetMismatchError):
            self._stepped(abc).intersect(sigma_star(other))


class TestTriggerSymbols:
    """`Dfa.trigger_symbols`: the DFA accepts every string with no symbol
    of the set; None when it rejects the empty string."""

    def test_sigma_star_has_none(self, abc):
        assert sigma_star(abc).trigger_symbols() == frozenset()

    def test_rejecting_the_empty_string_has_no_trigger_set(self, abc):
        assert empty_dfa(abc).trigger_symbols() is None
        assert pattern_dfa(lit(abc, "A"), abc).trigger_symbols() is None

    def test_only_the_empty_string_triggers_on_every_symbol(self, abc):
        assert Dfa(abc, [()], (0,)).trigger_symbols() == abc.id_set()

    def test_reject_rule_triggers_on_the_symbol_that_completes_it(self, abc):
        # ! A B: after A, only B leaves the language; A and every other
        # symbol return to an accepting state
        anything = Star(Syms(abc.id_set()))
        ab = Seq((anything, lit(abc, "A"), lit(abc, "B"), anything))
        rule = minimize(complement(pattern_dfa(ab, abc)))
        assert rule.trigger_symbols() == frozenset(ids(abc, "B"))

    def test_free_symbol_into_a_state_that_rejects_is_dropped(self, abc):
        # A leads to an accepting state that steps only C, so only C is free
        sigma = abc.id_set()
        a, b, c = (frozenset(ids(abc, t)) for t in "ABC")
        rule = Dfa(abc, [((sigma - a, 0), (a, 1)), ((c, 0),)], (0, 1))
        assert rule.trigger_symbols() == sigma - c

    def test_expand_blocks_expands_the_trigger_set(self, abc):
        # abc's ten symbols in seven blocks: the five boundary symbols, then
        # {A, B} as block 5 and {C, V, VFIN} as block 6
        blocks = tuple(frozenset((s,)) for s in range(5))
        blocks += (frozenset(ids(abc, "A", "B")), frozenset(ids(abc, "C", "V", "VFIN")))
        block_alph = Alphabet(["b5", "b6"])
        rest = block_alph.id_set() - {6}
        block_dfa = Dfa(block_alph, [((rest, 0), (frozenset((6,)), 1)), ((frozenset((5,)), 0),)], (0, 1))
        assert block_dfa.trigger_symbols() == block_alph.id_set() - {5}
        expanded = expand_blocks(block_dfa, blocks, abc)
        fresh = Dfa(abc, expanded.transitions, expanded.finals)
        assert expanded.trigger_symbols() == fresh.trigger_symbols()
        assert expanded.trigger_symbols() == abc.id_set() - set(ids(abc, "A", "B"))


class TestIsEmpty:
    def test_cases(self, abc):
        assert is_empty(pattern_dfa(Alt(()), abc))
        assert not is_empty(pattern_dfa(lit(abc, "A"), abc))


class TestUnreachablePart:
    """Counting, enumeration and the emptiness test see only what the start
    reaches: a part off it, here a useful cycle through an extra final
    state, must change none of them."""

    @pytest.fixture
    def alph(self):
        return Alphabet(["A", "B"])

    def _with_unreachable_cycle(self, alph, start_edges):
        # states 1 and 2 form a cycle through the final state 2, and state 2
        # steps into state 3; nothing leads to 1 or 2 from the start
        a, b = (frozenset(ids(alph, t)) for t in "AB")
        transitions = (start_edges, ((a, 2),), ((b, 1), (a, 3)), ())
        finals = (2, 3) if start_edges else (2,)
        return Dfa(alph, transitions, finals)

    def test_reachable_language_of_one_string(self, alph):
        a = frozenset(ids(alph, "A"))
        d = self._with_unreachable_cycle(alph, ((a, 3),))
        assert not is_empty(d)
        assert count_paths(d) == 1
        assert enumerate_strings(d, 10) == [tuple(a)]

    def test_empty_reachable_language(self, alph):
        d = self._with_unreachable_cycle(alph, ())
        assert is_empty(d)
        assert count_paths(d) == 0
        assert enumerate_strings(d, 10) == []


class TestCountPaths:
    def test_single_string(self, abc):
        d = pattern_dfa(Seq((lit(abc, "A"), lit(abc, "B"))), abc)
        assert count_paths(d) == 1

    def test_grid_closed_form(self):
        alph = Alphabet(["S1", "S2", "S3"])
        all3 = Syms(frozenset(ids(alph, "S1", "S2", "S3")))
        for n in range(1, 5):
            for k in (1, 2, 3):
                label = Syms(frozenset(ids(alph, *[f"S{i+1}" for i in range(k)])))
                d = pattern_dfa(Seq((label,) * n), alph)
                assert count_paths(d) == k**n
                assert len(enumerate_strings(d, k**n + 5)) == k**n

    def test_infinite_language_error(self, abc):
        d = pattern_dfa(Star(lit(abc, "A")), abc)
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
        d = pattern_dfa(Seq(tuple(labels)), alph)
        t0 = time.perf_counter()
        n = count_paths(d)
        assert time.perf_counter() - t0 < 1.0
        assert n >= 10**30


class TestEnumerate:
    def test_empty(self, abc):
        assert enumerate_strings(pattern_dfa(Alt(()), abc), 10) == []

    def test_small_language(self, abc):
        d = pattern_dfa(a_or_ab(abc), abc)
        a, b = ids(abc, "A", "B")
        assert enumerate_strings(d, 10) == [(a,), (a, b)]
        assert enumerate_strings(d, 1) == [(a,)]

    def test_limit_zero(self, abc):
        d = pattern_dfa(lit(abc, "A"), abc)
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
        d = pattern_dfa(a_or_ab(alph), alph)
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
def dfas(draw, max_states=8, alphabet=_PROP_ALPHABET, syms=_PROP_SYMS):
    """Random DFAs over three symbols, or over `syms` of `alphabet` (the
    reserved boundary symbols stay edge-free, so exhaustive checks only
    need the three)."""
    n = draw(st.integers(1, max_states))
    transitions = []
    for _ in range(n):
        edges = []
        for sym in syms:
            dst = draw(st.integers(-1, n - 1))
            if dst >= 0:
                edges.append((frozenset((sym,)), dst))
        transitions.append(tuple(edges))
    finals = frozenset(s for s in range(n) if draw(st.booleans()))
    return Dfa(alphabet, transitions, finals)


@settings(max_examples=500, deadline=None)
@given(dfas())
def test_property_complement_involution(d):
    assert language_equal(complement(complement(d)), d)


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


@st.composite
def nfas(draw, max_states=6):
    """Random NFAs over the three symbols with epsilon edges and labels of
    one to three symbols that overlap, within a state and across states."""
    n = draw(st.integers(1, max_states))
    nfa = Nfa(_PROP_ALPHABET)
    for _ in range(n):
        nfa.add_state()
    label = st.none() | st.frozensets(st.sampled_from(_PROP_SYMS), min_size=1)
    for src in range(n):
        for _ in range(draw(st.integers(0, 4))):
            nfa.add_edge(src, draw(label), draw(st.integers(0, n - 1)))
    nfa.start = draw(st.integers(0, n - 1))
    nfa.finals = {s for s in range(n) if draw(st.booleans())}
    return nfa


@settings(max_examples=300, deadline=None)
@given(nfas())
def test_property_determinize_matches_nfa(nfa):
    d = determinize(nfa)
    assert_canonical(d)
    for w in exhaustive_strings(_PROP_SYMS, 5):
        assert d.accepts(w) == nfa_accepts(nfa, w), w


#: Random patterns over the three symbols: labels of zero to three symbols
#: that overlap, empty sequences and unions, and nested stars and options.
patterns = st.recursive(
    st.builds(Syms, st.frozensets(st.sampled_from(_PROP_SYMS))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda parts: Seq(tuple(parts))),
        st.lists(inner, max_size=3).map(lambda parts: Alt(tuple(parts))),
        st.builds(Star, inner),
        st.builds(Opt, inner),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(patterns)
def test_property_pattern_dfa_matches_the_referee(pat):
    d = pattern_dfa(pat, _PROP_ALPHABET)
    assert_canonical(d)
    for w in exhaustive_strings(_PROP_SYMS, 5):
        assert d.accepts(w) == (len(w) in _Matcher(w).ends(pat, 0)), (pat, w)


_WIDE_ALPHABET = Alphabet([f"W{i}" for i in range(6)])
_WIDE_SYMS = tuple(_WIDE_ALPHABET.id_of(f"W{i}") for i in range(6))


@st.composite
def wide_dfas(draw, max_states=4, max_copies=3):
    """Random DFAs over six symbols whose labels hold several symbols, with
    many equivalent states: a random DFA (acyclic when `acyclic` is drawn:
    every edge leads to a higher-numbered state) is blown up into copies
    of each state, and each edge's label is split in two, each part into
    any copy of the target."""
    n = draw(st.integers(1, max_states))
    copies = draw(st.integers(1, max_copies))
    acyclic = draw(st.booleans())
    small = []
    for src in range(n):
        labels = {}
        for sym in _WIDE_SYMS:
            dst = draw(st.integers(src + 1 if acyclic else 0, n))  # n: no edge
            if dst < n:
                labels.setdefault(dst, set()).add(sym)
        small.append(labels)
    small_finals = {q for q in range(n) if draw(st.booleans())}
    transitions = []  # state q + n * c is copy c of state q
    for _ in range(copies):
        for labels in small:
            edges = {}
            for dst, syms in labels.items():
                for sym in syms:
                    part = draw(st.integers(0, 1))
                    copy = draw(st.integers(0, copies - 1))
                    edges.setdefault((dst + n * copy, part), set()).add(sym)
            transitions.append(tuple((frozenset(syms), dst) for (dst, _), syms in edges.items()))
    finals = frozenset(q + n * c for q in small_finals for c in range(copies))
    return Dfa(_WIDE_ALPHABET, transitions, finals)


@settings(max_examples=300, deadline=None)
@given(wide_dfas())
def test_property_minimize_wide_labels(d):
    m = minimize(d)
    assert_canonical(m)
    assert m.n_states == naive_moore_minimal_states(d)
    assert language_equal(m, d)
    try:
        count_paths(d)
    except InfiniteLanguageError:
        return
    reduced = reduce_acyclic(d)
    assert (reduced.transitions, reduced.finals) == (m.transitions, m.finals)


#: `random_dfa`s over `_PROP_ALPHABET`, which step the boundary symbols too.
boundary_dfas = st.randoms(use_true_random=False).map(
    lambda rng: random_dfa(rng, _PROP_ALPHABET, max_states=6)
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(dfas(), wide_dfas(), boundary_dfas))
def test_property_minimize_matches_per_symbol_moore(d):
    m = minimize(d)
    want = per_symbol_moore(d)
    assert (m.transitions, m.finals) == (want.transitions, want.finals)


#: Every string of at most four symbols; intersecting with it makes any
#: automaton acyclic.
_UP_TO_4 = Dfa(
    _PROP_ALPHABET,
    [((frozenset(_PROP_SYMS), i + 1),) for i in range(4)] + [()],
    range(5),
)


def has_empty_leaf(pat):
    """True if some leaf of `pat` denotes the empty language: a `Syms`
    with no symbol, or a union of nothing."""
    if isinstance(pat, Syms):
        return not pat.ids
    if isinstance(pat, Alt) and not pat.parts:
        return True
    if isinstance(pat, (Seq, Alt)):
        return any(has_empty_leaf(p) for p in pat.parts)
    return has_empty_leaf(pat.inner)


@settings(max_examples=300, deadline=None)
@given(st.one_of(dfas(), boundary_dfas), st.one_of(dfas(), boundary_dfas), patterns)
def test_property_trim_mark_never_lies(a, b, pat):
    assert not a._trimmed and not b._trimmed  # built by hand
    assert not erase_symbol(a, _PROP_SYMS[0])._trimmed
    positions = pattern_dfa(pat, _PROP_ALPHABET)
    assert positions._trimmed == (not has_empty_leaf(pat)), pat
    acyclic = intersect(a, _UP_TO_4)
    built = (trim(a), minimize(a), complement(a), difference(a, b), intersect(a, b))
    marked_positions = (positions,) if positions._trimmed else ()
    for x in (*built, reduce_acyclic(acyclic), Chain(acyclic).dfa(), *marked_positions):
        assert x._trimmed
        assert trim(x) is x
        again = trim(Dfa(x.alphabet, x.transitions, x.finals))  # an unmarked copy
        assert (again.transitions, again.finals) == (x.transitions, x.finals)


@settings(max_examples=300, deadline=None)
@given(dfas(), dfas())
def test_property_outputs_are_canonical(a, b):
    acyclic = intersect(a, _UP_TO_4)
    reduced = reduce_acyclic(acyclic)
    for d in (
        erase_symbol(a, _PROP_SYMS[0]),
        trim(a),
        minimize(a),
        reduced,
        intersect(a, b),
        complement(a),
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


#: The symbols of `lattices()` and of the rules stepped over them.
_RUN_SYMS = _WIDE_SYMS[:4]


@st.composite
def lattices(draw):
    """Random lattice-shaped acyclic DFAs over four symbols: branch states
    joined by one to three runs of one-edge states.  Most run labels hold
    one symbol and some hold two to four, and some run states are final.
    A run ends at the next branch state, which every run after the first
    rejoins, or now and then in a dead state."""
    transitions = [[]]
    finals = set()
    branch = 0
    for _ in range(draw(st.integers(1, 4))):
        join = len(transitions)
        transitions.append([])
        firsts = draw(st.permutations(_RUN_SYMS))[: draw(st.integers(1, 3))]
        for first in firsts:
            src, label = branch, frozenset((first,))
            for _ in range(draw(st.integers(0, 12))):
                transitions.append([])
                transitions[src].append((label, len(transitions) - 1))
                src = len(transitions) - 1
                if draw(st.integers(0, 9)) == 0:
                    finals.add(src)
                size = 1 if draw(st.integers(0, 4)) else draw(st.integers(2, 4))
                label = frozenset(draw(st.permutations(_RUN_SYMS))[:size])
            dst = join
            if draw(st.integers(0, 5)) == 0:
                dst = len(transitions)
                transitions.append([])
            transitions[src].append((label, dst))
        branch = join
    finals.add(branch)
    return Dfa(_WIDE_ALPHABET, transitions, finals)


def merge_targets(d):
    """`d` with the labels of each state's edges into one target merged
    into one wider label."""
    transitions = []
    for edges in d.transitions:
        by_target = {}
        for label, dst in edges:
            by_target[dst] = by_target.get(dst, frozenset()) | label
        transitions.append([(label, dst) for dst, label in by_target.items()])
    return Dfa(d.alphabet, transitions, d.finals)


@settings(max_examples=500, deadline=None)
@given(dfas() | dags(), dfas() | dags(), st.booleans(), st.booleans())
def test_property_difference_is_intersect_with_complement(a, b, merge_a, merge_b):
    if merge_a:
        a = merge_targets(a)
    if merge_b:
        b = merge_targets(b)
    got = difference(a, b)
    want = intersect(a, complement(b))
    assert dump(got) == dump(want)
    assert (got.transitions, got.finals) == (want.transitions, want.finals)
    assert_canonical(got)


#: Every string of at most four symbols over all of `_PROP_ALPHABET`,
#: boundary symbols included, which `boundary_dfas` step.
_PROBES_UP_TO_4 = tuple(exhaustive_strings(sorted(_PROP_ALPHABET.id_set()), 4))


@settings(max_examples=150, deadline=None)
@given(st.one_of(dfas(), boundary_dfas), st.one_of(dfas(), boundary_dfas))
def test_property_intersect_and_difference_accept_by_their_operands(a, b):
    both = intersect(a, b)
    a_not_b = difference(a, b)
    for w in _PROBES_UP_TO_4:
        in_a, in_b = a.accepts(w), b.accepts(w)
        assert both.accepts(w) == (in_a and in_b), w
        assert a_not_b.accepts(w) == (in_a and not in_b), w


@settings(max_examples=500, deadline=None)
@given(dfas() | dags(), st.sampled_from(_PROP_SYMS), st.booleans())
def test_property_erase_symbol_matches_the_nfa_oracle(d, sym, merge):
    if merge:  # so some labels hold `sym` and other symbols
        d = merge_targets(d)
    got = erase_symbol(d, sym)
    want = determinize(nfa_erase_symbol(d, sym))
    assert (got.transitions, got.finals) == (want.transitions, want.finals)


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


_SIGMA_STAR = sigma_star(_PROP_ALPHABET)


@st.composite
def rule_lists(draw):
    """Zero to five rule DFAs: random ones, Sigma*, an empty language, and
    repeats of an earlier rule, so that chains take the containment
    shortcut and can become empty partway."""
    rules = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("random", "sigma_star", "empty", "repeat")))
        if kind == "sigma_star":
            rules.append(_SIGMA_STAR)
        elif kind == "empty":
            rules.append(empty_dfa(_PROP_ALPHABET))
        elif kind == "repeat" and rules:
            rules.append(draw(st.sampled_from(rules)))
        else:
            rules.append(draw(dfas()))
    return rules


def _assert_chain_is_minimal(chain, want):
    """`chain` has as many classes as the minimal `want`; each class's
    edges are a tuple of edges into lower class ids, with non-empty,
    pairwise-disjoint labels; and its `run_syms` entry is the symbol of its
    one edge when it is not final and that edge's label has one symbol,
    and -1 otherwise."""
    assert len(chain.transitions) == want.n_states
    assert len(chain.run_syms) == len(chain.transitions)
    for c, edges in enumerate(chain.transitions):
        assert type(edges) is tuple, (c, edges)
        seen = set()
        for label, d in edges:
            assert 0 <= d < c, (c, edges)
            assert label and seen.isdisjoint(label), (c, edges)
            seen |= label
        one_symbol = c not in chain.finals and len(edges) == 1 and len(edges[0][0]) == 1
        assert chain.run_syms[c] == (min(edges[0][0]) if one_symbol else -1), (c, edges)


def _assert_chain_fold_is_reduced_product_fold(a, rules):
    chain = Chain(a)
    want = reduce_acyclic(a)
    assert chain.count == count_paths(a)
    _assert_chain_is_minimal(chain, want)
    for rule in rules:
        before = list(chain.transitions)
        stepped, count = chain.intersect(rule)
        assert chain.transitions == before  # a step leaves its input as it was
        chain = stepped
        want = reduce_acyclic(intersect(want, rule))
        assert count == count_paths(want)
        _assert_chain_is_minimal(chain, want)
    got = chain.dfa()
    assert (got.n_states, got.transitions, got.finals) == (
        want.n_states, want.transitions, want.finals,
    )


@settings(max_examples=500, deadline=None)
@given(dfas())
def test_property_chain_raises_only_for_a_useful_cycle(d):
    # `dfas()` hold cycles, dead ones among them, which trimming removes
    try:
        count = count_paths(d)
    except InfiniteLanguageError:
        with pytest.raises(InfiniteLanguageError):
            Chain(d)
        return
    chain = Chain(d)
    want = minimize(d)
    assert chain.count == count
    _assert_chain_is_minimal(chain, want)
    got = chain.dfa()
    assert (got.transitions, got.finals) == (want.transitions, want.finals)


@settings(max_examples=500, deadline=None)
@given(dags(), rule_lists())
def test_property_chain_fold_is_reduced_product_fold(a, rules):
    _assert_chain_fold_is_reduced_product_fold(a, rules)


@settings(max_examples=500, deadline=None)
@given(
    lattices(),
    st.lists(dfas(alphabet=_WIDE_ALPHABET, syms=_RUN_SYMS), min_size=1, max_size=5),
)
def test_property_chain_runs_fold_is_reduced_product_fold(a, rules):
    _assert_chain_fold_is_reduced_product_fold(a, rules)


_ABC = Alphabet(["A", "B", "C"])


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from((0.7, 0.9, 1.0)),
    st.sampled_from((0.4, 0.8, 1.0)),
)
def test_property_trigger_symbols_leave_every_free_string_accepted(rng, density, final_p):
    # `random_dfa` steps the boundary symbols too, so all eight are checked
    d = random_dfa(rng, _ABC, max_states=4, density=density, final_p=final_p)
    trigger = d.trigger_symbols()
    if 0 not in d.finals:
        assert trigger is None
        return
    stepped = {sym for edges in d.transitions for label, _ in edges for sym in label}
    free = sorted(stepped - trigger)
    for w in exhaustive_strings(free, 4):
        assert d.accepts(w), (free, w)


#: Dense `random_dfa`s over `_ABC`, which step the boundary symbols too;
#: some of them accept every string.
dense_boundary_dfas = st.builds(
    lambda rng, density, final_p: random_dfa(rng, _ABC, 4, density, final_p),
    st.randoms(use_true_random=False),
    st.sampled_from((0.7, 0.9, 1.0)),
    st.sampled_from((0.4, 0.8, 1.0)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(dfas(), dfas().map(complement), dense_boundary_dfas))
def test_property_empty_trigger_set_iff_sigma_star(d):
    # `check-grammar` reads an empty trigger set as a vacuous rule
    assert (d.trigger_symbols() == frozenset()) == is_empty(complement(d))


def _assert_contained_iff_count_kept(a, rule):
    """`_contained(chain, rule)` holds iff intersecting with `rule` keeps the
    chain's count, for the chain of `a` and for that chain stepped by
    `rule`, which `rule` contains."""
    chain = Chain(a)
    stepped, count = chain.intersect(rule)
    assert count == count_paths(intersect(chain.dfa(), rule))
    assert _contained(chain, rule) == (count == chain.count)
    assert _contained(stepped, rule)
    assert stepped.intersect(rule) == (stepped, count)


@settings(max_examples=500, deadline=None)
@given(dags(), dfas())
def test_property_contained_iff_the_step_keeps_the_count(a, rule):
    _assert_contained_iff_count_kept(a, rule)


@settings(max_examples=500, deadline=None)
@given(lattices(), dfas(alphabet=_WIDE_ALPHABET, syms=_RUN_SYMS))
def test_property_contained_runs_iff_the_step_keeps_the_count(a, rule):
    # one-symbol runs, multi-symbol labels and final one-edge classes occur
    _assert_contained_iff_count_kept(a, rule)


def _label_union(transitions):
    return frozenset().union(*(label for edges in transitions for label, _ in edges))


@settings(max_examples=200, deadline=None)
@given(
    lattices(),
    st.lists(dfas(alphabet=_WIDE_ALPHABET, syms=_RUN_SYMS), min_size=1, max_size=5),
)
def test_property_chain_symbols_are_its_labels(a, rules):
    chain = Chain(a)
    for rule in [sigma_star(_WIDE_ALPHABET), *rules]:
        assert chain.symbols == _label_union(chain.transitions)
        assert chain.symbols >= _label_union(chain.dfa().transitions)
        chain, count = chain.intersect(rule)
        if not count:
            assert chain.symbols == frozenset()
    assert chain.symbols == _label_union(chain.transitions)


_WIDER_ALPHABET = Alphabet([f"V{i}" for i in range(32)])
_WIDER_SYMS = tuple(_WIDER_ALPHABET.id_of(f"V{i}") for i in range(32))


@st.composite
def wide_label_dags(draw):
    """Random acyclic DFAs over 32 symbols whose every edge is labelled
    with 9 to 16 of them.  Each state but the last has one or two edges to
    later states, so wide labels sit at states that branch and on runs."""
    n = draw(st.integers(2, 4))
    transitions = []
    for src in range(n - 1):
        syms = draw(st.permutations(_WIDER_SYMS))
        edges = []
        for k in range(draw(st.integers(1, 2))):
            label = frozenset(syms[16 * k : 16 * k + draw(st.integers(9, 16))])
            edges.append((label, draw(st.integers(src + 1, n - 1))))
        transitions.append(tuple(edges))
    transitions.append(())
    finals = {n - 1} | {s for s in range(n - 1) if draw(st.booleans())}
    return Dfa(_WIDER_ALPHABET, transitions, finals)


@st.composite
def splitting_rules(draw):
    """Random DFAs over the same 32 symbols with two or three states, each
    sending every symbol to a state of its own drawing or nowhere, so a
    wide label's symbols are split over several states."""
    n = draw(st.integers(2, 3))
    transitions = []
    for _ in range(n):
        targets = draw(st.lists(st.integers(-1, n - 1), min_size=32, max_size=32))
        labels = {}
        for sym, dst in zip(_WIDER_SYMS, targets):
            if dst >= 0:
                labels.setdefault(dst, set()).add(sym)
        transitions.append(tuple((frozenset(syms), dst) for dst, syms in labels.items()))
    finals = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Dfa(_WIDER_ALPHABET, transitions, finals)


@settings(max_examples=100, deadline=None)
@given(wide_label_dags(), splitting_rules())
def test_property_products_split_wide_labels(a, rule):
    # the oracle steps the rule one string at a time, so it shares no code
    # with the product kernels under test
    want = [s for s in enumerate_strings(a, count_paths(a) + 1) if rule.accepts(s)]
    product = intersect(a, rule)
    chain, count = Chain(a).intersect(rule)
    assert count == count_paths(product) == len(want)
    for got in (product, chain.dfa()):
        assert enumerate_strings(got, len(want) + 1) == want
