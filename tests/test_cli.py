import gc
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fslat
from fslat import data
from fslat.cli import (
    EXIT_EMPTY,
    EXIT_GRAMMAR,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    parse_args,
    run_check_grammar,
    run_count,
    run_parse,
    run_trace,
)
from fslat.lattice import default_registry

GOLDEN = Path(__file__).parent / "golden"

SENTENCES = {
    "isee": "I see a bird.",
    "henry": "Henry dislikes her leaving so early.",
    "whatmakes": "What makes them acceptable is that they have different verbal regents.",
    "pushkin": "Pushkin was Russia's greatest poet, and Tolstoy her greatest novelist.",
    "providing": "Providing the pin has been fully inserted into the connect rod, final centralization can, if necessary, be done on a press using the support stop button and driver.",
    "societies": "They established networks of state and local societies.",
    "whatabout": "What are you talking about?",
    "smoking": "Smoking cigarettes inspires the fat butcher's wife and daughters.",
}


@pytest.fixture(scope="module")
def resources():
    return {
        "lexicon": str(data.path("demo.lex")),
        "map": str(data.path("demo.map")),
        "grammar": str(data.path("demo.fsg")),
    }


def write_input(tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def parse_config(resources, inputs, **kw):
    return RunConfig(command="parse", inputs=tuple(inputs), **resources, **kw)


def run_to_string(fn, config):
    out, err = io.StringIO(), io.StringIO()
    code = fn(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestTableGoldens:
    @pytest.mark.parametrize("name", sorted(SENTENCES))
    def test_golden_table(self, resources, tmp_path, name):
        path = write_input(tmp_path, SENTENCES[name] + "\n")
        code, out, err = run_to_string(run_parse, parse_config(resources, [path]))
        assert code == EXIT_OK, err
        assert out == (GOLDEN / f"{name}_table.txt").read_text()

    def test_collapsed_alternatives_notation(self, resources, tmp_path):
        path = write_input(tmp_path, SENTENCES["societies"] + "\n")
        _, out, _ = run_to_string(run_parse, parse_config(resources, [path]))
        assert "societies\tN NOM PL\t[@OBJ --or-- @P<<]\t\t@" in out

    def test_two_tag_main_verb_rows(self, resources, tmp_path):
        path = write_input(tmp_path, SENTENCES["isee"] + "\n")
        _, out, _ = run_to_string(run_parse, parse_config(resources, [path]))
        assert "see\t<SVO> V PRES -SG3 VFIN\t@MV\tMAINC@\t@" in out

    def test_byte_identical_across_runs(self, resources, tmp_path):
        path = write_input(tmp_path, "I see a bird.\nWhat are you talking about?\n")
        first = run_to_string(run_parse, parse_config(resources, [path]))
        second = run_to_string(run_parse, parse_config(resources, [path]))
        assert first == second


class TestRecords:
    @pytest.mark.parametrize("name", sorted(SENTENCES))
    def test_golden_records(self, resources, tmp_path, name):
        path = write_input(tmp_path, SENTENCES[name] + "\n")
        code, out, _ = run_to_string(
            run_parse, parse_config(resources, [path], format="records")
        )
        assert code == EXIT_OK
        assert out == (GOLDEN / f"{name}_records.txt").read_text()

    def test_records_render_back_to_table(self, resources, tmp_path):
        """The two formats carry identical information: re-rendering the
        records as a collapsed table reproduces the table output."""
        from fslat.lattice import PUNCT_TAG

        for name, sentence in SENTENCES.items():
            path = write_input(tmp_path, sentence + "\n")
            _, table, _ = run_to_string(run_parse, parse_config(resources, [path]))
            _, records, _ = run_to_string(
                run_parse, parse_config(resources, [path], format="records")
            )
            readings = {}
            n_tokens = 0
            for line in records.splitlines():
                s, r, t, surface, morph, ftag, ctag, boundary = line.split("\t")
                readings.setdefault(int(r), {})[int(t)] = (
                    surface, morph, ftag, ctag, boundary,
                )
                n_tokens = max(n_tokens, int(t))
            lines = ["\t\t\t\t@@"]
            for t in range(1, n_tokens + 1):
                surface = readings[1][t][0]
                columns = []
                for pick, blank_punct in ((1, False), (2, True), (3, False), (4, False)):
                    seen = []
                    for r in sorted(readings):
                        value = readings[r][t][pick]
                        if blank_punct and value == PUNCT_TAG:
                            value = ""
                        if value not in seen:
                            seen.append(value)
                    columns.append(
                        seen[0] if len(seen) == 1 else "[" + " --or-- ".join(seen) + "]"
                    )
                lines.append("\t".join([surface] + columns))
            assert "\n".join(lines) + "\n" == table, name


class TestCount:
    def test_golden_counts(self, resources, tmp_path):
        path = write_input(tmp_path, SENTENCES["isee"] + "\n")
        config = RunConfig(command="count", inputs=(path,), **resources)
        code, out, _ = run_to_string(run_count, config)
        assert code == EXIT_OK
        assert out == (GOLDEN / "isee_count.txt").read_text()

    def test_counts_escalate_then_drop(self, resources, tmp_path):
        path = write_input(tmp_path, SENTENCES["isee"] + "\n")
        config = RunConfig(command="count", inputs=(path,), **resources)
        _, out, _ = run_to_string(run_count, config)
        row = out.splitlines()[1].split("\t")
        morph, plus_b, plus_s, after = map(int, row[1:])
        assert morph == 40
        assert plus_b == morph * 4**4
        assert plus_s > plus_b
        assert after == 1

    def test_full_decimal_output(self, resources, tmp_path):
        path = write_input(tmp_path, data.read("stress39.txt"))
        config = RunConfig(command="count", inputs=(path,), **resources)
        _, out, _ = run_to_string(run_count, config)
        plus_s = int(out.splitlines()[1].split("\t")[3])
        assert plus_s >= 10**30
        assert "e" not in out.splitlines()[1]


class TestTrace:
    def test_trace_format(self, resources, tmp_path):
        path = write_input(tmp_path, SENTENCES["isee"] + "\n")
        config = RunConfig(command="trace", inputs=(path,), **resources)
        code, out, _ = run_to_string(run_trace, config)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# sentence 1:")
        assert lines[1] == "# rule\tbefore\tafter\tmicros"
        data_lines = [l for l in lines[2:] if not l.startswith("#")]
        for line in data_lines:
            rule, before, after, micros = line.split("\t")
            assert int(after) <= int(before)
            int(micros)
        assert lines[-1].startswith("# final\t")


class TestCheckGrammar:
    def test_demo_grammar_clean(self, resources):
        config = RunConfig(command="check-grammar", **resources)
        code, out, _ = run_to_string(run_check_grammar, config)
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("rules: ")
        assert "VACUOUS" not in out
        assert "UNSATISFIABLE" not in out
        assert out.splitlines()[-1] == "flagged: 0"

    def test_vacuous_rule_flagged(self, resources, tmp_path):
        gpath = tmp_path / "g.fsg"
        gpath.write_text("@/ => _ ... ;\n")
        config = RunConfig(command="check-grammar", grammar=str(gpath),
                           lexicon=resources["lexicon"])
        code, out, _ = run_to_string(run_check_grammar, config)
        assert code == EXIT_OK
        assert "VACUOUS" in out

    def test_syntax_error_exit_two(self, resources, tmp_path):
        gpath = tmp_path / "bad.fsg"
        gpath.write_text("@/ => VFIN .. ;\n")
        config = RunConfig(command="check-grammar", grammar=str(gpath))
        code, _, err = run_to_string(run_check_grammar, config)
        assert code == EXIT_GRAMMAR
        assert "line" in err

    @pytest.mark.parametrize(
        "text",
        [
            "A => " + "( " * 300 + "B" + " )" * 300 + " _ ;\n",
            "".join(f"C{i} = C{i - 1} ;\n" for i in range(1, 401)) + "A => C400 _ ;\n",
        ],
        ids=["groups", "constants"],
    )
    def test_deep_grammar_is_one_error_line(self, tmp_path, text):
        gpath = tmp_path / "deep.fsg"
        gpath.write_text(text)
        config = RunConfig(command="check-grammar", grammar=str(gpath))
        code, out, err = run_to_string(run_check_grammar, config)
        assert code == EXIT_GRAMMAR
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("fslat: grammar error: ")
        assert "line" in err

    def test_many_stars_are_one_star(self, tmp_path):
        gpath = tmp_path / "stars.fsg"
        gpath.write_text("A => B" + "*" * 1200 + " _ ;\n")
        config = RunConfig(command="check-grammar", grammar=str(gpath))
        code, out, err = run_to_string(run_check_grammar, config)
        assert (code, err) == (EXIT_OK, "")
        assert "VACUOUS" in out  # B* licenses every A


def _mask_micros(trace):
    """`fslat trace` output with each rule line's timing column blanked."""
    return "".join(
        line if line.startswith("#") else line[: line.rindex("\t") + 1] + "-\n"
        for line in trace.splitlines(keepends=True)
    )


class TestOutputPins:
    """sha256 of whole `count` and `trace` runs over the bundled inputs:
    per-rule counts and survivor totals of every sentence stay as they
    were recorded."""

    PINS = {
        ("sample_sentences.txt", "count"): "118fe073333a03e54dbcf4394019e01aea42aab2f8b30e73cc777be507055e06",
        ("sample_sentences.txt", "trace"): "b8918a7c0b88a02eec24eb8710d20de8fb68166a6fdeedde39b750ba885f7e56",
        ("stress39.txt", "count"): "c3ebd890d22ac09a1968ea41755cd6956322058e1befe8e066cd02d8a5f7d88c",
        ("stress39.txt", "trace"): "19396c17be972b19b6c443aa5c2c9823206e591b0e603b9d48f913c1e1c5dbed",
    }

    @pytest.mark.parametrize("name, command", sorted(PINS))
    def test_output_is_pinned(self, resources, name, command):
        run = {"count": run_count, "trace": run_trace}[command]
        config = RunConfig(command=command, inputs=(str(data.path(name)),), **resources)
        code, out, err = run_to_string(run, config)
        assert (code, err) == (EXIT_OK, "")
        if command == "trace":
            out = _mask_micros(out)
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[name, command]

    CHECK_GRAMMAR_PINS = {
        True: "d93584d2c1e7dda5d3bcf8d80494d089b2f9ce90a87b4832bb8f00a22c44cf68",
        False: "14dea5ca85a2d88259528d30342133d62f5ee50d8ea47f0f8b2ff5220c7916e2",
    }

    @pytest.mark.parametrize("with_lexicon", [True, False], ids=["lexicon", "no-lexicon"])
    def test_check_grammar_is_pinned(self, resources, with_lexicon):
        # rule names, state and edge counts and the VACUOUS/UNSATISFIABLE flags
        lexicon = resources["lexicon"] if with_lexicon else None
        config = RunConfig(command="check-grammar", grammar=resources["grammar"], lexicon=lexicon)
        code, out, err = run_to_string(run_check_grammar, config)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.CHECK_GRAMMAR_PINS[with_lexicon]


class TestExitCodes:
    def test_empty_input_is_success(self, resources, tmp_path):
        path = write_input(tmp_path, "")
        code, out, err = run_to_string(run_parse, parse_config(resources, [path]))
        assert code == EXIT_OK
        assert out == ""

    def test_missing_resource_usage_error(self, resources, tmp_path):
        config = RunConfig(command="parse", lexicon=resources["lexicon"],
                           map=None, grammar=resources["grammar"])
        code, _, err = run_to_string(run_parse, config)
        assert code == EXIT_USAGE
        assert "--map" in err

    def test_unreadable_file_usage_error(self, resources):
        config = RunConfig(command="parse", lexicon="/nonexistent.lex",
                           map=resources["map"], grammar=resources["grammar"])
        code, _, err = run_to_string(run_parse, config)
        assert code == EXIT_USAGE

    def test_grammar_error_exit_two(self, resources, tmp_path):
        gpath = tmp_path / "bad.fsg"
        gpath.write_text("oops (")
        config = RunConfig(command="parse", lexicon=resources["lexicon"],
                           map=resources["map"], grammar=str(gpath))
        code, _, err = run_to_string(run_parse, config)
        assert code == EXIT_GRAMMAR

    def test_empty_parse_exit_three(self, resources, tmp_path):
        gpath = tmp_path / "killall.fsg"
        gpath.write_text("! ... ;\n")
        path = write_input(tmp_path, "I see a bird.\n")
        config = RunConfig(command="parse", lexicon=resources["lexicon"],
                           map=resources["map"], grammar=str(gpath),
                           inputs=(path,))
        code, out, err = run_to_string(run_parse, config)
        assert code == EXIT_EMPTY
        assert "rejected every reading" in err

    def test_main_usage(self):
        assert main(["parse"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE


def _cannot_read(name):
    path = "{tmp}/" + name
    return f"fslat: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"


#: fault -> (flags replaced, exit code, stderr); `None` drops a flag
LOADER_FAULTS = {
    "missing-flags": (
        {"lexicon": None, "grammar": None},
        EXIT_USAGE,
        "fslat {command}: missing required {required}\n",
    ),
    "unreadable": ({"lexicon": "{tmp}/absent.lex"}, EXIT_USAGE, _cannot_read("absent.lex")),
    "two-unreadable": (
        {"lexicon": "{tmp}/absent.lex", "grammar": "{tmp}/absent.fsg"},
        EXIT_USAGE,
        _cannot_read("absent.lex") + _cannot_read("absent.fsg"),
    ),
    "empty-path": (
        {"lexicon": ""},
        EXIT_USAGE,
        "fslat: cannot read : [Errno 2] No such file or directory: ''\n",
    ),
    "bad-lexicon": (
        {"lexicon": "{tmp}/bad.lex"},
        EXIT_USAGE,
        "fslat: lexicon error: expected ')', found '' (line 3)\n",
    ),
    "bad-map": (
        {"map": "{tmp}/bad.map"},
        EXIT_USAGE,
        "fslat: map error: expected 'PATTERN -> TAGS' (line 1)\n",
    ),
    "bad-grammar": (
        {"grammar": "{tmp}/bad.fsg"},
        EXIT_GRAMMAR,
        "fslat: grammar error: expected RPAR, found '' (line 2, column 1)\n",
    ),
}


class TestLoaderFaults:
    """All four commands load through one loader, so a fault in their flags
    or files gives one exit code and one stderr, pinned whole."""

    FILES = {
        "bad.lex": '("<bird>"\n  ("bird" N)\n',
        "bad.map": "FULLSTOP @PUNCT\n",
        "bad.fsg": "oops (\n",
    }
    CASES = [
        (command, fault)
        for command in ("parse", "count", "trace", "check-grammar")
        for fault in sorted(LOADER_FAULTS)
        if (command, fault) != ("check-grammar", "bad-map")  # it takes no --map
    ]

    @pytest.mark.parametrize("command, fault", CASES)
    def test_fault_is_pinned(self, resources, tmp_path, capsys, command, fault):
        changes, code, stderr = LOADER_FAULTS[fault]
        checks_grammar = command == "check-grammar"
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        flags = dict(resources, **changes)
        argv = [command]
        for flag, value in flags.items():
            if value is not None and not (checks_grammar and flag == "map"):
                argv += [f"--{flag}", value.format(tmp=tmp_path)]
        if not checks_grammar:
            argv.append(write_input(tmp_path, "I see a bird.\n"))
        required = "--grammar" if checks_grammar else "--lexicon, --grammar"
        expected = stderr.format(tmp=tmp_path, command=command, required=required)
        assert (main(argv), *capsys.readouterr()) == (code, "", expected)


class TestArgs:
    def test_defaults(self):
        config = parse_args(["parse", "--lexicon", "a", "--map", "b", "--grammar", "c"])
        assert config.limit == 16
        assert config.format == "table"
        assert config.unknown == "open"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_limit_below_one_usage_error(self, resources, tmp_path, capsys, value):
        path = write_input(tmp_path, "I see a bird.\n")
        for option in ("--limit", "--jobs"):
            argv = ["parse", option, value, path]
            for flag in ("lexicon", "map", "grammar"):
                argv += [f"--{flag}", resources[flag]]
            assert main(argv) == EXIT_USAGE
            assert f"argument {option}: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--format", "records"],
            ["trace", "--limit", "3"],
            ["check-grammar", "--jobs", "2"],
        ],
        ids=["count-format", "trace-limit", "check-grammar-jobs"],
    )
    def test_flag_of_another_command_usage_error(self, resources, tmp_path, capsys, argv):
        argv = argv + ["--grammar", resources["grammar"], "--lexicon", resources["lexicon"]]
        if argv[0] != "check-grammar":
            argv += ["--map", resources["map"], write_input(tmp_path, "I see a bird.\n")]
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


#: A one-rule grammar and a map giving every reading two candidate tags keep
#: a pipeline over a one-word lexicon cheap to build.
TINY_GRAMMAR = "! @OBJ @OBJ ;\n"
TINY_MAP = "FULLSTOP -> @PUNCT\n* -> @OBJ @SUBJ\n"


def tiny_resources(directory, tags):
    """A lexicon with one entry, "bird", whose one reading has `tags`."""
    paths = {}
    for name, text in (
        ("lexicon", f'("<bird>"\n  ("bird" {" ".join(tags)}))\n("<$.>")\n'),
        ("map", TINY_MAP),
        ("grammar", TINY_GRAMMAR),
    ):
        paths[name] = os.path.join(directory, name)
        Path(paths[name]).write_text(text, encoding="utf-8")
    return paths


class TestInputErrors:
    """Bad input is exit 1 with an `fslat:` line on stderr, never a raise."""

    @pytest.mark.parametrize("run", [run_parse, run_count, run_trace])
    @pytest.mark.parametrize(
        "tags, text, unknown",
        [
            (("N",), "bird zorblax.", "closed"),
            (("N", "@SUBJ"), "bird bird.", "open"),
            (("N", "MAINC@"), "bird bird.", "open"),
            (("N", "@"), "bird bird.", "open"),
        ],
        ids=["unknown-word", "function-tag", "clause-tag", "boundary-tag"],
    )
    def test_error_is_usage_exit(self, tmp_path, run, tags, text, unknown):
        config = RunConfig(
            command=run.__name__[4:],
            inputs=(write_input(tmp_path, text + "\n"),),
            unknown=unknown,
            **tiny_resources(tmp_path, tags),
        )
        code, _, err = run_to_string(run, config)
        assert code == EXIT_USAGE
        assert err.startswith("fslat: ")


_REGISTRY = default_registry()
_TAGS = st.lists(
    st.sampled_from(
        _REGISTRY.function_tags + _REGISTRY.clause_tags + _REGISTRY.boundary_tags
    )
    | st.text(alphabet="NV@-", min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("command", ["parse", "count", "trace"])
@settings(max_examples=40, deadline=None)
@given(
    tags=_TAGS,
    words=st.lists(st.sampled_from(["bird", "zorblax"]), min_size=1, max_size=3),
    unknown=st.sampled_from(["open", "closed"]),
)
def test_property_no_lexicon_tag_or_word_raises(command, tags, words, unknown):
    with tempfile.TemporaryDirectory() as directory:
        paths = tiny_resources(directory, tags)
        path = os.path.join(directory, "input.txt")
        Path(path).write_text(" ".join(words) + ".\n", encoding="utf-8")
        argv = [command, "--unknown", unknown, path]
        for flag, value in paths.items():
            argv += [f"--{flag}", value]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_EMPTY)
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("fslat")


class TestByteOrderMark:
    @pytest.mark.parametrize("name", ["lexicon", "map", "grammar", "input"])
    def test_bom_file_reads_as_plain(self, resources, tmp_path, name):
        paths = dict(resources, input=write_input(tmp_path, "I see a bird.\n"))
        plain = run_to_string(run_parse, parse_config(resources, [paths["input"]]))
        bom = tmp_path / f"bom-{name}"
        bom.write_text("\ufeff" + Path(paths[name]).read_text(encoding="utf-8"), encoding="utf-8")
        paths[name] = str(bom)
        inputs = [paths.pop("input")]
        assert run_to_string(run_parse, parse_config(paths, inputs)) == plain
        assert plain[0] == EXIT_OK

    def test_bom_stdin_reads_as_plain(self, resources, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("I see a bird.\n"))
        plain = run_to_string(run_parse, parse_config(resources, []))
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeffI see a bird.\n"))
        assert run_to_string(run_parse, parse_config(resources, [])) == plain
        assert plain[0] == EXIT_OK


class TestParallel:
    def test_jobs_output_order_stable(self, resources, tmp_path):
        text = "I see a bird.\nWhat are you talking about?\nHenry dislikes her leaving so early.\n"
        path = write_input(tmp_path, text)
        _, sequential, _ = run_to_string(run_parse, parse_config(resources, [path]))
        _, parallel, _ = run_to_string(
            run_parse, parse_config(resources, [path], jobs=3)
        )
        assert parallel == sequential


class FlushRecorder(io.StringIO):
    """A writer that keeps what had been written at each flush."""

    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue())


class HeapRecorder:
    """A writer that drops what is written and counts its flushes, one per
    sentence.  At the flushes numbered in `at` it records the heap that
    `tracemalloc` traces, after a full collection.  Tracing starts at the
    first of them, since it makes a sentence about ten times slower: what
    a later sentence leaves behind is traced all the same."""

    def __init__(self, at):
        self.at = at
        self.flushes = 0
        self.heap = {}

    def write(self, text):
        return len(text)

    def flush(self):
        self.flushes += 1
        if self.flushes in self.at:
            gc.collect()
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            self.heap[self.flushes] = tracemalloc.get_traced_memory()[0]


class TestStreaming:
    def test_flushed_after_each_sentence(self, resources, tmp_path):
        text = "I see a bird.\nWhat are you talking about?\nHenry dislikes her leaving so early.\n"
        path = write_input(tmp_path, text)
        out = FlushRecorder()
        assert run_parse(parse_config(resources, [path]), out=out, err=io.StringIO()) == EXIT_OK
        assert len(out.flushed) == 3
        assert out.flushed[-1] == out.getvalue()
        tables = [written.split("\n").count("\t\t\t\t@@") for written in out.flushed]
        assert tables == [1, 2, 3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_sentence_flushed_before_next_line_is_read(self, resources, monkeypatch, jobs):
        out = FlushRecorder()
        flushes_before_read = []

        def stdin():
            for line in ("I see a bird.\n", "What are you talking about?\n"):
                flushes_before_read.append(len(out.flushed))
                yield line

        monkeypatch.setattr(sys, "stdin", stdin())
        config = parse_config(resources, [], jobs=jobs)
        assert run_parse(config, out=out, err=io.StringIO()) == EXIT_OK
        assert flushes_before_read == [0, 1]

    def test_heap_stays_flat_over_many_sentences(self, resources, monkeypatch):
        # nothing a sentence leaves behind may pile up: the heap after the
        # last of 196 sentences is within a fixed slack of the heap after
        # the first quarter of them
        short = [line for line in data.read("sample_sentences.txt").splitlines()
                 if len(line.split()) <= 12]
        assert len(short) == 7
        n = 28 * len(short)
        monkeypatch.setattr(sys, "stdin", iter([f"{short[i % 7]}\n" for i in range(n)]))
        out = HeapRecorder(at={n // 4, n})
        try:
            assert run_parse(parse_config(resources, []), out=out, err=io.StringIO()) == EXIT_OK
        finally:
            tracemalloc.stop()
        assert out.flushes == n
        assert out.heap[n] <= out.heap[n // 4] + 64 * 1024, out.heap

    def test_closed_stdout_is_exit_one_without_traceback(self, resources):
        argv = [sys.executable, "-m", "fslat.cli", "parse"]
        for flag in ("lexicon", "map", "grammar"):
            argv += [f"--{flag}", resources[flag]]
        src = str(Path(fslat.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        proc.stdin.write(b"I see a bird.\n")
        proc.stdin.flush()
        assert proc.stdout.readline() == b"\t\t\t\t@@\n"
        proc.stdout.close()  # the reader goes, as `| head -1` does
        proc.stdin.write(b"What are you talking about?\n")
        proc.stdin.close()
        assert proc.wait(timeout=120) == EXIT_USAGE
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestCountSingleToken:
    def test_one_token_counts_closed_form(self, resources, tmp_path):
        # single noun: 1 reading, no boundaries, 9 candidate tags per the
        # bundled map, and the grammar rejects a verbless fragment
        path = write_input(tmp_path, "wife\n")
        config = RunConfig(command="count", inputs=(path,), **resources)
        code, out, _ = run_to_string(run_count, config)
        row = out.splitlines()[1].split("\t")
        assert row[1:] == ["1", "1", "9", "0"]
        assert code == EXIT_EMPTY

    def test_grammar_without_rules_counts_the_lattice(self, resources, tmp_path):
        # a class definition alone: no rule step, so +syntax is the final count
        path = write_input(tmp_path, "I see a bird.\nWhat are you talking about?\n")
        gpath = tmp_path / "classes.fsg"
        gpath.write_text("K := N ;\n")
        config = RunConfig(command="count", inputs=(path,), **{**resources, "grammar": str(gpath)})
        code, out, _ = run_to_string(run_count, config)
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert len(rows) == 2
        assert [row[3] for row in rows] == [row[4] for row in rows]
        _, demo_out, _ = run_to_string(run_count, RunConfig(command="count", inputs=(path,), **resources))
        demo_rows = [line.split("\t") for line in demo_out.splitlines()[1:]]
        assert [row[3] for row in rows] == [row[3] for row in demo_rows]
        assert code == EXIT_OK
