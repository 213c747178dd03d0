"""Workloads, correctness referees and measurements for the fslat benchmark.

Everything here calls fslat only through its public functions.  Each
sentence goes tokens -> `Pipeline.parse_sentence` -> `cli.render_table` or
`cli.render_records` (or, on `reject`, to the diagnosis), and every output
is checked against a reference that does not come from the code under test
where one exists: the committed goldens, survivor counts pinned at the
commit that introduced the benchmark, and the culprit rule the benchmark
itself appended.

`run_plain` gives the end-to-end metrics; `run_traced` gives the per-layer
metrics from a separate, instrumented pass (see tracer.py).
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import fslat
from fslat import automata, cli, data, engine, grammar, lattice, lexicon

from tracer import Tracer, duration, self_times, totals_by_root

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("short", "long", "reject")

#: `--seed` when none is given.
DEFAULT_SEED = 1
#: Set-ups per untraced run; `setup_s` is the best of them.
SETUP_REPEATS = 12
#: Set-ups per traced run, traced and untraced each.
TRACED_SETUP_REPEATS = 3
#: Least passes of the traced run, each sentence untraced and traced once
#: per pass: the tracing overhead needs a few pairs on `long` and `reject`,
#: whose passes take many seconds.
TRACED_MIN_PASSES = 3
#: Sweeps over the stress-sentence prefixes; each prefix keeps its best time.
SCALING_SWEEPS = 2
#: Stress-sentence prefix lengths of the scaling curve start at 3 tokens
#: and grow by this step.
SCALING_STEP = 8
#: `cli.main` runs per `--jobs` value in the traced run.
CLI_REPEATS = 3
#: Readings decoded per sentence: the default of `parse_sentence` and of
#: `fslat parse --limit`, which the goldens were made with.
READING_LIMIT = 16

#: Appended to the demo grammar on `reject`: every reading starts with
#: `@@` and a word symbol, so every reading dies, and this rule alone is
#: to blame.  Its name is the rule's source text after `! `.
REJECT_RULE_TEXT = "! @@ WORD ;"
REJECT_RULE = "! @@ WORD"

#: Golden file stems of the bundled sample sentences.
GOLDEN_NAMES = {
    "I see a bird.": "isee",
    "Henry dislikes her leaving so early.": "henry",
    "What makes them acceptable is that they have different verbal regents.": "whatmakes",
    "Pushkin was Russia's greatest poet, and Tolstoy her greatest novelist.": "pushkin",
    "Providing the pin has been fully inserted into the connect rod, final "
    "centralization can, if necessary, be done on a press using the support "
    "stop button and driver.": "providing",
    "They established networks of state and local societies.": "societies",
    "What are you talking about?": "whatabout",
    "Smoking cigarettes inspires the fat butcher's wife and daughters.": "smoking",
}
#: The seven 5-12 token sample sentences.
SHORT_NAMES = ("isee", "henry", "whatmakes", "pushkin", "societies", "whatabout", "smoking")

#: Survivor counts of the stress sentence and of the stress text doubled
#: into one sentence, pinned when the benchmark was introduced.
STRESS_SURVIVORS = {"stress43": 128770560, "stress85": 171586173704601600}


@dataclass(frozen=True)
class Item:
    """One sentence of a workload and the reference its output must meet."""

    name: str
    text: str
    render: str  # "table", "records" or "diagnosis"
    golden: str = None
    survivors: int = None


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple  # timed, in every pass
    grammar_text: str
    lexicon_text: str
    map_text: str
    checked: tuple = ()  # refereed once per run, untimed


def _golden(stem, kind):
    return (GOLDEN / f"{stem}_{kind}.txt").read_text(encoding="utf-8")


def _sample_sentences():
    """{golden stem: text}; every sentence must still be bundled."""
    bundled = {line.strip() for line in data.read("sample_sentences.txt").splitlines()}
    missing = [text for text in GOLDEN_NAMES if text not in bundled]
    if missing:
        raise RuntimeError(f"sample sentences no longer bundled: {missing}")
    return {stem: text for text, stem in GOLDEN_NAMES.items()}


def short_items():
    texts = _sample_sentences()
    return tuple(
        Item(stem, texts[stem], "table", golden=_golden(stem, "table"))
        for stem in SHORT_NAMES
    )


def make_workload(name, max_sentences=None):
    """The workload's sentences and grammar; `max_sentences` keeps only the
    shortest ones (for smoke tests)."""
    demo = data.read("demo.fsg")
    checked = ()
    if name == "short":
        items, grammar_text = short_items(), demo
    elif name == "long":
        stress = data.read("stress39.txt").strip()
        doubled = stress[:-1].rstrip() + " " + stress  # one sentence, one final stop
        providing = _sample_sentences()["providing"]
        items = (Item("stress43", stress, "records", survivors=STRESS_SURVIVORS["stress43"]),)
        # About 2 s and 5 s a run: timed beside the stress sentence, each
        # fits too few times in a run for a steady best time on a shared
        # host, so they are checked but not timed.
        checked = (
            Item("providing", providing, "records", golden=_golden("providing", "records")),
            Item("stress85", doubled, "records", survivors=STRESS_SURVIVORS["stress85"]),
        )
        grammar_text = demo
    elif name == "reject":
        items = tuple(Item(i.name, i.text, "diagnosis") for i in short_items())
        grammar_text = demo.rstrip("\n") + "\n" + REJECT_RULE_TEXT + "\n"
    else:
        raise ValueError(f"unknown workload {name!r}")
    if max_sentences is not None:
        items = tuple(sorted(items, key=lambda i: len(i.text.split()))[:max_sentences])
    return Workload(
        name, items, grammar_text, data.read("demo.lex"), data.read("demo.map"), checked
    )


def pass_orders(workload, seed):
    """Endless seeded passes, each a permutation of every item: the seed
    sets the order, every pass has the same mix."""
    rng = random.Random(seed)
    while True:
        order = list(workload.items)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# Set-up and one sentence
# ---------------------------------------------------------------------------


def build_pipeline(workload):
    """Text parsing, alphabet and rule compilation: what `setup_s` times."""
    registry = lattice.default_registry()
    lex = lexicon.parse_lexicon(workload.lexicon_text)
    smap = lattice.parse_syntactic_map(workload.map_text, registry)
    gram = grammar.parse_grammar(workload.grammar_text)
    return engine.Pipeline.build(lex, smap, gram, registry)


def process(pipeline, item):
    """Tokens to rendered text (or to the diagnosis, which has no rendering)."""
    tokens = lexicon.tokenize(item.text)
    result = pipeline.parse_sentence(tokens)
    if item.render == "table":
        out = cli.render_table(result)
    elif item.render == "records":
        out = cli.render_records(result, 1)
    else:
        out = None
    return tokens, result, out


# ---------------------------------------------------------------------------
# Referees
# ---------------------------------------------------------------------------


def check(pipeline, item, tokens, result, out):
    """Problems with one sentence's output; empty when it is correct."""
    problems = []
    if item.render == "diagnosis":
        if result.status != "empty" or result.readings:
            problems.append(f"status {result.status!r}, expected a total rejection")
        if tuple(result.diagnosis) != (REJECT_RULE,):
            problems.append(f"diagnosis {result.diagnosis!r}, expected ({REJECT_RULE!r},)")
    if item.golden is not None and out != item.golden:
        problems.append("output differs from the golden")
    if item.survivors is not None:
        if result.trace.final != item.survivors:
            problems.append(f"{result.trace.final} survivors, expected {item.survivors}")
        problems.extend(
            check_records(pipeline, tokens, out, min(READING_LIMIT, item.survivors))
        )
    return problems


def check_records(pipeline, tokens, records, expected):
    """Rebuild each rendered reading as a symbol string and require that the
    sentence lattice and every compiled rule accept it."""
    alphabet = pipeline.alphabet
    paths = {}
    try:
        for line in records.splitlines():
            _, reading, token, surface, morph, ftag, ctag, boundary = line.split("\t")
            word_text = tokens[int(token) - 1]
            if surface != word_text:
                return [f"reading {reading}: surface {surface!r} for token {word_text!r}"]
            word = f"<{word_text.lower()}>"
            if word not in alphabet:
                word = lattice.UNKNOWN_WORD_SYMBOL
            texts = [word, *morph.split(), ftag, *([ctag] if ctag else []), boundary]
            paths.setdefault(reading, ["@@"]).extend(texts)
        strings = {r: tuple(alphabet.id_of(t) for t in texts) for r, texts in paths.items()}
    except (ValueError, IndexError, automata.AutomataError) as exc:
        return [f"unreadable records: {exc}"]
    problems = []
    if len(strings) != expected or len(set(strings.values())) != expected:
        problems.append(f"{len(strings)} readings rendered, expected {expected} distinct")
    lattice_dfa = pipeline.lattice_for(tokens).automaton
    for reading, string in strings.items():
        if not lattice_dfa.accepts(string):
            problems.append(f"reading {reading} is not in the sentence lattice")
        rejecting = [r.name for r in pipeline.rules if not r.automaton.accepts(string)]
        if rejecting:
            problems.append(f"reading {reading} violates {rejecting[0]!r}")
    return problems


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    """Per-sentence wall times and outcomes of whole passes.

    A sentence's time is the best of its runs in the run, taken part by
    part: each rule step as `parse_sentence` times it in its trace, and the
    rest of the sentence (tokens, lattice, decoding, rendering) as one part;
    the best time of each part, summed.  Contention from other tenants of a
    shared host only ever adds time and comes in bursts shorter than a long
    sentence, so the best run of each part is the steadiest estimate of
    what the code costs.  A set-up's time is the best of its runs."""

    times: dict = field(default_factory=dict)  # item name -> seconds per pass
    parts: dict = field(default_factory=dict)  # item name -> (rest, *steps) per pass
    tokens: dict = field(default_factory=dict)  # item name -> token count
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    kept: list = field(default_factory=list)  # (item, tokens, result, out) if asked

    def best(self):
        return {name: sum(map(min, zip(*runs))) for name, runs in self.parts.items()}

    def tokens_per_s(self):
        """Tokens of one pass over the sum of each sentence's best time."""
        return sum(self.tokens.values()) / sum(self.best().values())

    def percentile_ms(self, p):
        """Nearest-rank percentile over the sentences' best times."""
        ordered = sorted(self.best().values())
        return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1] * 1000


def run_sentence(pipeline, workload, item, stats, tracer=None, keep=False, timed=True):
    """Time one sentence into `stats` (unless not `timed`) and referee its
    output; with a tracer, every call into fslat is traced.  A full
    collection first, untimed, so that the collector runs at the same points
    of the sentence every time."""
    gc.collect()
    with instrumented(tracer) if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            with tracer.span("sentence", item.name) if tracer else nullcontext():
                tokens, result, out = process(pipeline, item)
            problems = None
        except Exception:  # a sentence that raises is a failed sentence
            tokens = result = out = None
            problems = [traceback.format_exc()]
        elapsed = time.perf_counter() - t0
    if timed:
        stats.times.setdefault(item.name, []).append(elapsed)
        steps = [step.micros / 1e6 for step in result.trace.steps] if result else []
        stats.parts.setdefault(item.name, []).append((elapsed - sum(steps), *steps))
    stats.attempted += 1
    if problems is None:
        if timed:
            stats.tokens[item.name] = len(tokens)
        problems = check(pipeline, item, tokens, result, out)
    if problems:
        stats.failed += 1
        print(f"FAIL {workload.name}/{item.name}: {'; '.join(problems)}", file=sys.stderr)
    if keep:
        stats.kept.append((item, tokens, result, out))


def measure(pipeline, workload, seed, seconds, min_passes=1, tracer=None, keep=False,
            between=None):
    """Run at least `min_passes` whole seeded passes, then go on sentence by
    sentence while the next one, at its last time, still ends within
    `seconds`.  `between(busy)` runs after every sentence; its own time
    counts neither in `busy` nor in `seconds`.

    Returns [untraced] Measured, or, given a tracer, [untraced, traced]: each
    sentence then runs both ways back to back, the order swapped every pass,
    so that both see the same host."""
    tracers = [None] if tracer is None else [None, tracer]
    stats = [Measured() for _ in tracers]
    busy = 0.0  # time spent running sentences, without `between`
    last = {}  # item name -> seconds its last run (both ways) took
    for order in pass_orders(workload, seed):
        modes = list(range(len(tracers)))
        if stats[0].passes % 2:
            modes.reverse()
        for item in order:
            if stats[0].passes >= min_passes and busy + last[item.name] > seconds:
                return stats
            t0 = time.perf_counter()
            for mode in modes:
                run_sentence(pipeline, workload, item, stats[mode], tracers[mode], keep)
            last[item.name] = time.perf_counter() - t0
            busy += last[item.name]
            if between:
                between(busy)
        for s in stats:
            s.passes += 1


def timed_setups(workload, repeats, tracer=None):
    """Build the pipeline `repeats` times; returns the last and the times.
    With a tracer, set-ups alternate untraced and traced, starting
    untraced, and the times are [untraced, traced] lists."""
    times = [[], []] if tracer else [[]]
    pipeline = None
    for i in range(repeats * len(times)):
        mode = i % len(times)
        pipeline = None  # one build at a time, or peak_rss_mb counts two
        gc.collect()
        with instrumented(tracer) if mode else nullcontext():
            t0 = time.perf_counter()
            with tracer.span("setup") if mode else nullcontext():
                pipeline = build_pipeline(workload)
            times[mode].append(time.perf_counter() - t0)
    return pipeline, times if tracer else times[0]


def end_to_end(setup_times, stats):
    return {
        "setup_s": min(setup_times),
        "tokens_per_s": stats.tokens_per_s(),
        "sentence_ms.p50": stats.percentile_ms(50),
        "sentence_ms.p90": stats.percentile_ms(90),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_plain(workload_name, seed, seconds, max_sentences=None):
    """The untraced run: (end-to-end metrics, Measured).

    The set-ups are spread over the run, one whenever another share of the
    passes' time has gone by.  Their time and that of the untimed sentences
    count in `seconds`, so that the run lasts about `seconds` in all."""
    workload = make_workload(workload_name, max_sentences)
    pipeline, setup_times = timed_setups(workload, 1)
    t0 = time.perf_counter()
    checked = Measured()
    for item in workload.checked:
        run_sentence(pipeline, workload, item, checked, timed=False)
    budget = max(0.0, seconds - (time.perf_counter() - t0) - SETUP_REPEATS * setup_times[0])

    def setups_due(busy):
        due = min(SETUP_REPEATS, 1 + int(busy * SETUP_REPEATS / budget)) if budget else 1
        setup_times.extend(timed_setups(workload, due - len(setup_times))[1])

    [stats] = measure(pipeline, workload, seed, budget, between=setups_due)
    stats.attempted += checked.attempted
    stats.failed += checked.failed
    setup_times.extend(timed_setups(workload, SETUP_REPEATS - len(setup_times))[1])
    metrics = end_to_end(setup_times, stats)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, stats


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

MODULES = (fslat, automata, cli, engine, grammar, lattice, lexicon)

#: (module, function, span name, label of the call) for every traced call.
TRACED_FUNCTIONS = (
    (lexicon, "parse_lexicon", "lexicon.parse_lexicon", None),
    (lexicon, "tokenize", "lexicon.tokenize", None),
    (lexicon, "lookup", "lexicon.lookup", None),
    (lattice, "parse_syntactic_map", "lattice.parse_syntactic_map", None),
    (lattice, "map_syntax", "lattice.map_syntax", None),
    (lattice, "build_lattice", "lattice.build_lattice", None),
    (grammar, "parse_grammar", "grammar.parse_grammar", None),
    (grammar, "compile_rule", "grammar.compile_rule", lambda rule, *_: rule.name),
    (engine, "build_alphabet", "engine.build_alphabet", None),
    (engine, "apply_grammar", "engine.apply_grammar", None),
    (engine, "decode_readings", "engine.decode_readings", None),
    (engine, "diagnose_empty", "engine.diagnose_empty", None),
    (cli, "render_table", "cli.render_table", None),
    (cli, "render_records", "cli.render_records", None),
)
TRACED_METHODS = (
    (engine.Pipeline, "build", "engine.Pipeline.build"),
    (engine.Pipeline, "parse_sentence", "engine.Pipeline.parse_sentence"),
)


def instrumented(tracer):
    return tracer.instrument(MODULES, TRACED_FUNCTIONS, TRACED_METHODS)


def _log10(n):
    return math.log10(n + 1)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _slope(xs, ys):
    """Least-squares slope of ys against xs."""
    mx, my = _mean(xs), _mean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var if var else 0.0


def same_outcome(a, b):
    """Equal readings, status, diagnosis, survivor count and rendering."""
    (_, _, ra, oa), (_, _, rb, ob) = a, b
    if ra is None or rb is None:
        return False
    return (ra.readings, ra.status, ra.diagnosis, ra.trace.final, oa) == (
        rb.readings, rb.status, rb.diagnosis, rb.trace.final, ob,
    )


def replay(tracer, pipeline, tokens, result):
    """Re-run the as-written chain with the public automata functions, timing
    each call.  Returns (sizes, problems); the chain's final DFA and per-step
    counts must equal what `apply_grammar` produced for `result`."""
    lat = pipeline.lattice_for(tokens)
    sizes = {
        "states": lat.automaton.n_states,
        "edges": lat.automaton.n_edges,
        "readings": lattice.reading_count(lat),
        "product_states": [],
        "reduced_states": [],
    }
    current = lat.automaton
    with tracer.span("automata.count_paths"):
        before = automata.count_paths(current)
    steps = []
    for rule in pipeline.rules:
        with tracer.span("automata.intersect", rule.name):
            product = automata.intersect(current, rule.automaton)
        with tracer.span("automata.reduce_acyclic", rule.name):
            current = automata.reduce_acyclic(product)
        if current.n_states > engine.MINIMIZE_THRESHOLD:
            with tracer.span("automata.minimize", rule.name):
                current = automata.minimize(current)
        with tracer.span("automata.count_paths", rule.name):
            after = automata.count_paths(current)
        sizes["product_states"].append(product.n_states)
        sizes["reduced_states"].append(current.n_states)
        steps.append((rule.name, before, after))
        before = after
    problems = []
    expected = result.lattice.automaton
    if (current.n_states, current.transitions, current.finals) != (
        expected.n_states, expected.transitions, expected.finals,
    ):
        problems.append("replayed DFA differs from apply_grammar's result")
    if steps != [(s.rule, s.before, s.after) for s in result.trace.steps]:
        problems.append("replayed per-rule counts differ from the trace")
    return sizes, problems


def cli_main_run(tracer, jobs, text):
    """`fslat parse --jobs N` in-process over `text` on stdin; (s, code, out)."""
    argv = ["parse", "--jobs", str(jobs)]
    for flag, name in (("--lexicon", "demo.lex"), ("--map", "demo.map"), ("--grammar", "demo.fsg")):
        argv += [flag, str(data.path(name))]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        gc.collect()
        with tracer.span("cli.main", f"jobs{jobs}"), redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - t0
    finally:
        sys.stdin = stdin
    return elapsed, code, out.getvalue()


def scaling(tracer, pipeline, max_tokens=None):
    """Apply time against stress-sentence prefix length and reading count,
    each prefix the best of SCALING_SWEEPS sweeps."""
    tokens = lexicon.tokenize(data.read("stress39.txt").strip())
    lengths = range(3, min(len(tokens), max_tokens or len(tokens)) + 1, SCALING_STEP)
    lattices = {n: pipeline.lattice_for(tokens[:n]) for n in lengths}
    best = {}
    for _ in range(SCALING_SWEEPS):
        for n, lat in lattices.items():
            with tracer.span("scaling.apply_grammar", n) as record:
                engine.apply_grammar(lat, pipeline.rules)
            best[n] = min(best.get(n, math.inf), duration(record))
    return [
        {"tokens": n, "readings_log10": _log10(lattice.reading_count(lat)), "apply_ms": best[n] * 1000}
        for n, lat in lattices.items()
    ]


@dataclass
class Tally:
    """Outcomes of everything the traced run checks."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def setup_layers(tracer, pipeline):
    """Per-layer set-up metrics: the best over the traced set-ups, which
    must be all that has been traced so far."""
    per_setup = totals_by_root(
        tracer.spans,
        "setup",
        {"lexicon.parse_lexicon", "lattice.parse_syntactic_map", "grammar.parse_grammar",
         "engine.build_alphabet", "grammar.compile_rule"},
    ).values()
    compiles = [r for r in tracer.spans if r[3] == "grammar.compile_rule"]
    compile_max = [
        max(duration(r) for r in compiles if r[2] == root)
        for root in {r[2] for r in compiles}
    ]

    def best_ms(name):
        return min(1000 * s.get(name, 0.0) for s in per_setup)

    return {
        "lexicon.parse_ms": best_ms("lexicon.parse_lexicon"),
        "lattice.map_parse_ms": best_ms("lattice.parse_syntactic_map"),
        "grammar.parse_ms": best_ms("grammar.parse_grammar"),
        "grammar.alphabet_ms": best_ms("engine.build_alphabet"),
        "grammar.compile_ms": best_ms("grammar.compile_rule"),
        "grammar.compile_ms.max": 1000 * min(compile_max),
        "grammar.rule_states": sum(r.automaton.n_states for r in pipeline.rules),
        "grammar.rule_edges": sum(r.automaton.n_edges for r in pipeline.rules),
        "grammar.sigma": len(pipeline.alphabet),
    }


def compile_top5(tracer):
    """The five costliest rules by best traced compile time, in ms (over all
    spans, so only while the set-ups are all that has been traced)."""
    per_rule = {}
    for record in tracer.spans:
        if record[3] == "grammar.compile_rule":
            per_rule.setdefault(record[6], []).append(duration(record) * 1000)
    best = ((name, min(values)) for name, values in per_rule.items())
    return sorted(best, key=lambda pair: -pair[1])[:5]


def sentence_layers(tracer, first):
    """Per-layer sentence metrics: means (and one max) per traced sentence."""
    per_sentence = totals_by_root(
        tracer.spans,
        "sentence",
        {"lexicon.tokenize", "lexicon.lookup", "lattice.map_syntax", "lattice.build_lattice",
         "engine.apply_grammar", "engine.decode_readings", "engine.diagnose_empty",
         "cli.render_table", "cli.render_records"},
        first,
    ).values()

    def ms(*names):
        return [1000 * sum(s.get(n, 0.0) for n in names) for s in per_sentence]

    apply_ms, diagnose_ms = ms("engine.apply_grammar"), ms("engine.diagnose_empty")
    return {
        "lexicon.tokenize_ms": _mean(ms("lexicon.tokenize")),
        "lexicon.lookup_ms": _mean(ms("lexicon.lookup")),
        "lattice.map_ms": _mean(ms("lattice.map_syntax")),
        "lattice.build_ms": _mean(ms("lattice.build_lattice")),
        "engine.apply_ms": _mean(apply_ms),
        "engine.apply_ms.max": max(apply_ms, default=0.0),
        "engine.decode_ms": _mean(ms("engine.decode_readings")),
        "engine.diagnose_ms": _mean(diagnose_ms),
        "engine.diagnose_ratio": sum(diagnose_ms) / sum(apply_ms) if sum(apply_ms) else 0.0,
        "cli.render_ms": _mean(ms("cli.render_table", "cli.render_records")),
    }


def replay_layers(tracer, pipeline, kept, tally):
    """Replay each kept sentence on the automata layer; returns the metrics,
    the share of replay time per automata function, and the results."""
    first = len(tracer.spans)
    sizes, results = [], []
    for item, tokens, result, _ in kept:
        if result is None:
            tally.record([f"{item.name}: no result to replay"])
            continue
        with tracer.span("replay", item.name):
            sentence_sizes, problems = replay(tracer, pipeline, tokens, result)
        tally.record([f"{item.name}: {p}" for p in problems])
        sizes.append(sentence_sizes)
        results.append(result)
    per_sentence = totals_by_root(
        tracer.spans,
        "replay",
        {"automata.intersect", "automata.reduce_acyclic", "automata.count_paths"},
        first,
    ).values()
    replay_ms = {
        name: [1000 * s.get(name, 0.0) for s in per_sentence]
        for name in ("automata.intersect", "automata.reduce_acyclic", "automata.count_paths")
    }
    total = sum(map(sum, replay_ms.values()))
    split = {name: sum(values) / total if total else 0.0 for name, values in replay_ms.items()}
    steps = [s for r in results for s in r.trace.steps]
    metrics = {
        "lattice.states": _mean([s["states"] for s in sizes]),
        "lattice.edges": _mean([s["edges"] for s in sizes]),
        "lattice.readings_log10": _mean([_log10(s["readings"]) for s in sizes]),
        "engine.rule_steps": len(steps),
        "engine.pruning_ratio": (
            sum(s.after < s.before for s in steps) / len(steps) if steps else 0.0
        ),
        "engine.result_states": _mean([r.lattice.automaton.n_states for r in results]),
        "engine.survivors_log10": _mean([_log10(r.trace.final) for r in results]),
        "automata.intersect_ms": _mean(replay_ms["automata.intersect"]),
        "automata.reduce_ms": _mean(replay_ms["automata.reduce_acyclic"]),
        "automata.count_ms": _mean(replay_ms["automata.count_paths"]),
        "automata.product_states.sum": sum(sum(s["product_states"]) for s in sizes),
        "automata.product_states.max": max((max(s["product_states"]) for s in sizes), default=0),
        "automata.reduced_states.max": max((max(s["reduced_states"]) for s in sizes), default=0),
    }
    return metrics, split, results


def cli_layers(tracer, seed, max_sentences, tally):
    """`fslat parse` over one pass of the short sentences, --jobs 1 and 2,
    alternating; the output must equal the goldens."""
    deck = next(pass_orders(make_workload("short", max_sentences), seed))
    text = "\n".join(item.text for item in deck) + "\n"
    expected = "\n".join(item.golden for item in deck)
    times = {1: [], 2: []}
    for _ in range(1 if max_sentences else CLI_REPEATS):
        for jobs in times:
            elapsed, code, out = cli_main_run(tracer, jobs, text)
            times[jobs].append(elapsed)
            ok = code == cli.EXIT_OK and out == expected
            tally.record([] if ok else [f"fslat parse --jobs {jobs}: exit {code}, output differs"])
    jobs1, jobs2 = min(times[1]), min(times[2])
    return {"cli.main_s.jobs1": jobs1, "cli.main_s.jobs2": jobs2, "cli.jobs_speedup": jobs1 / jobs2}


def scaling_layers(rows):
    """Log-log slopes of apply time against prefix length and reading count."""
    log_ms = [math.log10(row["apply_ms"]) for row in rows]
    return {
        "scaling.apply_ms.max": max(row["apply_ms"] for row in rows),
        "scaling.length_exponent": _slope([math.log10(row["tokens"]) for row in rows], log_ms),
        "scaling.count_exponent": _slope([row["readings_log10"] for row in rows], log_ms),
    }


def run_traced(workload_name, seed, seconds, max_sentences=None):
    """The traced run: (per-layer metrics, attempted, failed, report path).

    Set-ups and sentences each run untraced and traced back to back, so
    the difference of the two is the tracing overhead; the traced results
    must equal the untraced ones.  Then the automata replay, `fslat parse
    --jobs 1|2` and the stress-prefix scaling curve.  Spans and a report go
    to OUT_DIR."""
    workload = make_workload(workload_name, max_sentences)
    tracer = Tracer()
    tally = Tally()

    pipeline, (plain_setup, traced_setup) = timed_setups(workload, TRACED_SETUP_REPEATS, tracer)
    metrics = setup_layers(tracer, pipeline)
    top5 = compile_top5(tracer)

    first = len(tracer.spans)
    plain, traced = measure(
        pipeline, workload, seed, seconds / 4,
        min_passes=1 if max_sentences else TRACED_MIN_PASSES, tracer=tracer, keep=True,
    )
    metrics.update(sentence_layers(tracer, first))
    for item in workload.checked:
        run_sentence(pipeline, workload, item, plain, timed=False)
    tally.attempted += plain.attempted + traced.attempted
    tally.failed += plain.failed + traced.failed
    for a, b in zip(plain.kept, traced.kept):
        if not same_outcome(a, b):
            tally.failed += 1
            tally.problems.append(f"{b[0].name}: traced result differs from the untraced one")

    replayed, split, results = replay_layers(
        tracer, pipeline, traced.kept[: len(workload.items)], tally
    )
    metrics.update(replayed)
    metrics.update(cli_layers(tracer, seed, max_sentences, tally))
    scale = scaling(tracer, pipeline, max_tokens=11 if max_sentences else None)
    metrics.update(scaling_layers(scale))

    plain_e2e, traced_e2e = end_to_end(plain_setup, plain), paired_end_to_end(
        plain_setup, traced_setup, plain, traced
    )
    for name in plain_e2e:
        metrics[f"trace.overhead.{name}"] = traced_e2e[name] - plain_e2e[name]
    metrics["trace.spans"] = len(tracer.spans)

    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "metrics": metrics,
        "end_to_end": {"untraced": plain_e2e, "traced": traced_e2e, "passes": plain.passes},
        "problems": tally.problems,
        "automata_split": split,
        "self_ms": {name: s * 1000 for name, s in sorted(self_times(tracer.spans).items())},
        "compile_top5_ms": top5,
        "rule_profile": rule_profile(results),
        "scaling": scale,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace_{workload_name}_{seed}"
    tracer.write(stem.with_suffix(".spans.jsonl"))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    for problem in tally.problems:
        print(f"FAIL {workload_name}: {problem}", file=sys.stderr)
    return metrics, tally.attempted, tally.failed, stem.with_suffix(".json")


def paired_end_to_end(plain_setup, traced_setup, plain, traced):
    """End-to-end metrics of the traced runs, each time taken as the best
    untraced one plus the median difference of the back-to-back untraced
    and traced pairs, so that host drift between pairs cancels."""

    def shifted(best, untraced, traced_times):
        return best + statistics.median(t - u for u, t in zip(untraced, traced_times))

    best = plain.best()
    times = {name: shifted(best[name], ts, traced.times[name]) for name, ts in plain.times.items()}
    return end_to_end(
        [shifted(min(plain_setup), plain_setup, traced_setup)],
        Measured(parts={name: [(t,)] for name, t in times.items()}, tokens=plain.tokens),
    )


def rule_profile(results):
    """Per rule over the replayed sentences: how often it pruned, the
    readings it cut (log10 of before/after, summed) and its apply time."""
    rows = {}
    for result in results:
        for step in result.trace.steps:
            row = rows.setdefault(step.rule, {"rule": step.rule, "pruned": 0, "cut_log10": 0.0, "micros": 0})
            row["micros"] += step.micros
            if step.after < step.before:
                row["pruned"] += 1
                row["cut_log10"] += _log10(step.before) - _log10(step.after)
    return sorted(rows.values(), key=lambda row: -row["micros"])


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
