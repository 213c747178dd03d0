"""Command-line front end.

    fslat parse --lexicon PATH --map PATH --grammar PATH
          [--limit N] [--format table|records] [--unknown open|closed]
          [--jobs N] [INPUT...]
    fslat count|trace --lexicon PATH --map PATH --grammar PATH
          [--unknown open|closed] [--jobs N] [INPUT...]
    fslat check-grammar --grammar PATH [--lexicon PATH]

Each command accepts only the flags shown for it.  Input files (or stdin)
are tokenized, split into sentences at . ? ! and run one sentence at a
time, each one's output flushed before the next is read, so output streams
for every `--jobs` value.  `--jobs N` must be at least 1 and has no other
effect.  Exit codes: 0 success; 1 usage or resource error, an unknown word
under `--unknown closed`, a lexicon tag that collides with a registered
function, clause or boundary tag, or a closed stdout; 2 grammar error; 3 at
least one sentence lost all readings.

Table output prints one row per token (surface, morphology, function tag,
clause-function tag, following boundary) separated by single TABs, with a
leading and trailing sentence-boundary row; readings that survive
under-determined are collapsed per column as `[a --or-- b]` over the first
`--limit` readings (at least 1; default 16).  Records output prints one
tab-separated line per (sentence, reading, token):

    sentence reading token surface morphology ftag ctag boundary

Trace output is one `rule TAB before TAB after TAB micros` line per rule
under a `# rule...` header; timings appear only in this mode, all other
output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from .automata import is_empty
from .engine import Pipeline, apply_grammar
from .grammar import GrammarError, parse_grammar
from .lattice import PUNCT_TAG, MapError, TagError, default_registry, parse_syntactic_map
from .lexicon import (
    Lexicon,
    LexiconError,
    UnknownWordError,
    parse_lexicon,
    split_sentences,
    tokenize,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GRAMMAR = 2
EXIT_EMPTY = 3


@dataclass
class RunConfig:
    command: str
    lexicon: str = None
    map: str = None
    grammar: str = None
    inputs: tuple = ()
    limit: int = 16
    format: str = "table"
    unknown: str = "open"
    jobs: int = 1


def _build_argparser():
    def at_least_one(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="fslat",
        description="Reductionistic finite-state parsing over ambiguity lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("parse", "count", "trace", "check-grammar"):
        reads_sentences = name != "check-grammar"
        p = sub.add_parser(name)
        p.add_argument("--lexicon")
        if reads_sentences:
            p.add_argument("--map")
        p.add_argument("--grammar")
        if name == "parse":
            p.add_argument("--limit", type=at_least_one, default=16)
            p.add_argument("--format", choices=("table", "records"), default="table")
        if reads_sentences:
            p.add_argument("--unknown", choices=("open", "closed"), default="open")
            p.add_argument("--jobs", type=at_least_one, default=1)
            p.add_argument("inputs", nargs="*", metavar="INPUT")
    return parser


def parse_args(argv):
    """A RunConfig from the command line; flags a command does not take
    keep their RunConfig defaults."""
    config = RunConfig(**vars(_build_argparser().parse_args(argv)))
    config.inputs = tuple(config.inputs)
    return config


def _read(path, err):
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        print(f"fslat: cannot read {path}: {exc}", file=err)
        return None


def _load_pipeline(config, err):
    """The command's Pipeline and EXIT_OK, or None and an exit code after
    `fslat` lines on `err`.  `check-grammar` requires only `--grammar`;
    without `--lexicon` or `--map` it builds over an empty lexicon and no
    map."""
    paths = {"--lexicon": config.lexicon, "--map": config.map, "--grammar": config.grammar}
    required = ("--grammar",) if config.command == "check-grammar" else tuple(paths)
    missing = [flag for flag in required if paths[flag] is None]
    if missing:
        print(
            f"fslat {config.command}: missing required {', '.join(missing)}", file=err
        )
        return None, EXIT_USAGE
    texts = {flag: _read(path, err) for flag, path in paths.items() if path is not None}
    if None in texts.values():
        return None, EXIT_USAGE
    registry = default_registry()
    try:
        lexicon = Lexicon({})
        if "--lexicon" in texts:
            lexicon = parse_lexicon(texts["--lexicon"], policy=config.unknown)
        smap = None
        if "--map" in texts:
            smap = parse_syntactic_map(texts["--map"], registry)
        grammar = parse_grammar(texts["--grammar"])
        return Pipeline.build(lexicon, smap, grammar, registry), EXIT_OK
    except LexiconError as exc:
        print(f"fslat: lexicon error: {exc}", file=err)
        return None, EXIT_USAGE
    except MapError as exc:
        print(f"fslat: map error: {exc}", file=err)
        return None, EXIT_USAGE
    except GrammarError as exc:
        print(f"fslat: grammar error: {exc}", file=err)
        return None, EXIT_GRAMMAR


def _input_tokens(config, err):
    """Tokens of the input files, or of stdin read one line at a time.  A
    byte-order mark that starts stdin is dropped, as in a file."""
    if not config.inputs:
        for number, line in enumerate(sys.stdin):
            yield from tokenize(line if number else line.removeprefix("\ufeff"))
        return
    for path in config.inputs:
        text = _read(path, err)
        if text is None:
            raise FileNotFoundError(path)
        yield from tokenize(text)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _column_values(readings, index, field):
    values = []
    for analysis in readings:
        token = analysis.tokens[index]
        value = field(token)
        if value not in values:
            values.append(value)
    return values


def _collapse(values):
    if len(values) == 1:
        return values[0]
    return "[" + " --or-- ".join(values) + "]"


def render_table(result):
    """Collapsed per-token table for one sentence; @PUNCT prints blank."""
    lines = ["\t\t\t\t@@"]
    readings = result.readings
    n_tokens = len(readings[0].tokens)
    for index in range(n_tokens):
        surface = readings[0].tokens[index].surface
        morph = _collapse(_column_values(readings, index, lambda t: " ".join(t.morph)))
        ftag = _collapse(
            _column_values(
                readings, index, lambda t: "" if t.function_tag == PUNCT_TAG else t.function_tag
            )
        )
        ctag = _collapse(_column_values(readings, index, lambda t: t.clause_tag or ""))
        boundary = _collapse(_column_values(readings, index, lambda t: t.boundary))
        lines.append(f"{surface}\t{morph}\t{ftag}\t{ctag}\t{boundary}")
    return "\n".join(lines) + "\n"


def render_records(result, sentence_index):
    """One line per (sentence, reading, token), tab separated."""
    lines = []
    for r, analysis in enumerate(result.readings, start=1):
        for t, token in enumerate(analysis.tokens, start=1):
            lines.append(
                "\t".join(
                    (
                        str(sentence_index),
                        str(r),
                        str(t),
                        token.surface,
                        " ".join(token.morph),
                        token.function_tag,
                        token.clause_tag or "",
                        token.boundary,
                    )
                )
            )
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _run_sentences(config, out, err, step):
    """Run `step(index, tokens)` on each input sentence in turn, flushing
    `out` after each; `step` returns False for a sentence that lost every
    reading.  The only place where bad input becomes an exit code."""
    exit_code = EXIT_OK
    try:
        sentences = split_sentences(_input_tokens(config, err))
        for index, tokens in enumerate(sentences, start=1):
            if not step(index, tokens):
                exit_code = EXIT_EMPTY
            out.flush()
    except FileNotFoundError:
        return EXIT_USAGE
    except (UnknownWordError, TagError) as exc:
        print(f"fslat: {exc}", file=err)
        return EXIT_USAGE
    return exit_code


def run_parse(config, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    pipeline, status = _load_pipeline(config, err)
    if pipeline is None:
        return status
    first = True

    def step(index, tokens):
        nonlocal first
        result = pipeline.parse_sentence(tokens, limit=config.limit)
        if result.status == "empty":
            names = ", ".join(result.diagnosis) or "(no single rule responsible)"
            print(
                f"fslat: sentence {index} rejected every reading;"
                f" implicated rules: {names}",
                file=err,
            )
            return False
        if config.format == "table":
            if not first:
                print(file=out)
            out.write(render_table(result))
        else:
            out.write(render_records(result, index))
        first = False
        return True

    return _run_sentences(config, out, err, step)


def run_count(config, out=None, err=None):
    """Per sentence: readings with morphology only, with four-way
    boundaries, with candidate tags, and after the grammar; full decimal."""
    out = out or sys.stdout
    err = err or sys.stderr
    pipeline, status = _load_pipeline(config, err)
    if pipeline is None:
        return status
    print("# sentence\tmorph\t+boundaries\t+syntax\tafter-grammar", file=out)

    def step(index, tokens):
        lattice = pipeline.lattice_for(tokens)
        morph = math.prod(readings for readings, _ in lattice.per_token_ambiguity)
        with_boundaries = morph * 4 ** (len(lattice.cohorts) - 1)
        _, trace = apply_grammar(lattice, pipeline.rules)
        # the lattice's own count is the first step's `before`
        with_syntax = trace.steps[0].before if trace.steps else trace.final
        print(index, morph, with_boundaries, with_syntax, trace.final, sep="\t", file=out)
        return trace.final != 0

    return _run_sentences(config, out, err, step)


def run_trace(config, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    pipeline, status = _load_pipeline(config, err)
    if pipeline is None:
        return status

    def step(index, tokens):
        _, trace = apply_grammar(pipeline.lattice_for(tokens), pipeline.rules)
        print(f"# sentence {index}: {' '.join(tokens)}", file=out)
        for line in trace.lines():
            print(line, file=out)
        print(f"# final\t{trace.final}", file=out)
        return trace.final != 0

    return _run_sentences(config, out, err, step)


def run_check_grammar(config, out=None, err=None):
    """Parse, expand and compile every rule; report sizes, vacuous rules
    (language = sigma*) and unsatisfiable rules (language = empty).  A
    rule is vacuous when its trigger set (`Dfa.trigger_symbols`) is
    empty: it accepts every string, since every string avoids the empty
    set."""
    out = out or sys.stdout
    err = err or sys.stderr
    pipeline, status = _load_pipeline(config, err)
    if pipeline is None:
        return status
    print(f"rules: {len(pipeline.rules)}", file=out)
    flagged = 0
    for rule in pipeline.rules:
        dfa = rule.automaton
        notes = []
        if is_empty(dfa):
            notes.append("UNSATISFIABLE")
        elif dfa.trigger_symbols() == frozenset():
            notes.append("VACUOUS")
        flagged += bool(notes)
        suffix = "\t" + ",".join(notes) if notes else ""
        print(f"{rule.name}\t{dfa.n_states} states\t{dfa.n_edges} edges{suffix}", file=out)
    print(f"flagged: {flagged}", file=out)
    return EXIT_OK


def main(argv=None):
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = {
        "parse": run_parse,
        "count": run_count,
        "trace": run_trace,
        "check-grammar": run_check_grammar,
    }[config.command]
    try:
        return handler(config)
    except BrokenPipeError:
        # the reader of stdout has gone: point its descriptor at the null
        # device, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
