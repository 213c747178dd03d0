"""Lexicon parsing, tokenization and cohort lookup.

The lexicon file is UTF-8 text of parenthesized entries:

    ("<see>"
      ("see" <SVO> V PRES -SG3 VFIN))

The quoted headword carries angle brackets; a leading `*` inside them is a
capitalization flag (normalized away from the key, the readings keep their
`<*>` marker) and a leading `$` marks punctuation.  An entry with no
reading lines, like ("<$.>"), synthesizes one reading whose single tag is
the punctuation category of the surface character.  Two entries with the
same key are an error.  `#` starts a comment where a token may start; inside
a tag, as in `D#1`, it is text.  `fslat` reads files as `utf-8-sig`, so a
file may start with a byte-order mark.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass


class LexiconError(Exception):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class UnknownWordError(LexiconError):
    pass


class DuplicateReadingWarning(UserWarning):
    pass


PUNCT_CATEGORIES = {
    ".": "FULLSTOP",
    ",": "COMMA",
    "?": "QUESTION",
    "!": "EXCLAMATION",
    ";": "SEMICOLON",
}

#: Every tag a punctuation reading can carry: the categories above, then
#: the fallback for any other punctuation.
PUNCT_TAGS = (*PUNCT_CATEGORIES.values(), "PUNCT")

#: Splittable sentence punctuation and the subset that ends a sentence.
SPLIT_PUNCT = ".?!,;"
SENTENCE_END = ".?!"

#: Readings synthesized for unknown words under the open-class-guess policy.
OPEN_CLASS_GUESSES = (("N", "NOM", "SG"), ("V", "INF"), ("A", "ABS"), ("ADV",))


@dataclass(frozen=True)
class MorphReading:
    """One morphological analysis: base form, lexical markers (with their
    angle brackets, in file order) and the tag sequence."""

    base: str
    markers: tuple
    tags: tuple


@dataclass(frozen=True)
class Cohort:
    """A surface token with all its alternative readings."""

    surface: str
    readings: tuple


@dataclass(frozen=True)
class Entry:
    headword: str  # raw text inside the angle brackets, e.g. "*i" or "$."
    readings: tuple
    synthesized: bool = False


class Lexicon:
    """Immutable after parse; lookups are read-only."""

    def __init__(self, entries, policy="open"):
        if policy not in ("open", "closed"):
            raise ValueError(f"unknown policy {policy!r}")
        self.entries = dict(entries)
        self.policy = policy


def surface_key(headword):
    """Normalize a headword to its lookup key: drop the capitalization flag
    and the punctuation escape."""
    key = headword
    if key.startswith("*"):
        key = key[1:]
    if key.startswith("$"):
        key = key[1:]
    return key


def _punct_reading(key):
    tag = PUNCT_CATEGORIES.get(key, PUNCT_TAGS[-1])
    return MorphReading(key, (), (tag,))


_TOKENS = re.compile(
    r"""
      (?P<SPACE>[ \t\r\n]+ | \#[^\n]*)
    | (?P<LPAR>\() | (?P<RPAR>\))
    | (?P<QUOTED>"[^"\n]*") | (?P<OPENQUOTE>")
    | (?P<MARKER><[^>\n]*>) | (?P<OPENMARKER><)
    | (?P<TAG>[^ \t\r\n()"<]+)
    """,
    re.VERBOSE,
)


def _lex(text):
    """(kind, text, line) for each token, then ("EOF", "", line).  Every character
    is in some token: an unterminated quote or marker is a token of its own."""
    line = 1
    for match in _TOKENS.finditer(text):
        kind, word = match.lastgroup, match.group()
        if kind == "SPACE":
            line += word.count("\n")
        else:
            yield kind, word, line
    yield "EOF", "", line


def _expect(token, kind, shown):
    """The text and line of `token`, which must be of `kind`."""
    found, word, line = token
    if found == "OPENQUOTE" and kind == "QUOTED":
        raise LexiconError("missing closing quote", line)
    if found != kind:
        raise LexiconError(f"expected {shown!r}, found {word[:1]!r}", line)
    return word, line


def parse_lexicon(text, policy="open"):
    """Parse the parenthesized lexicon format into a Lexicon.

    One entry per top-level group; the quoted headword is the surface key;
    each inner group is one reading.  Duplicate identical readings within
    an entry collapse with a warning; a second entry for a key is an error.
    """
    tokens = _lex(text)  # pulled one at a time, so the first error is the one raised
    entries = {}
    token = next(tokens)
    while token[0] != "EOF":
        _expect(token, "LPAR", "(")
        quoted, line = _expect(next(tokens), "QUOTED", '"')
        if not (quoted.startswith('"<') and quoted.endswith('>"')):
            raise LexiconError(
                f"headword {quoted[1:-1]!r} must be written inside angle brackets", line
            )
        headword = quoted[2:-2]
        if not headword:
            raise LexiconError("empty headword", line)
        key = surface_key(headword)
        if key in entries:
            raise LexiconError(f"duplicate entry for {key!r}", line)
        readings = []
        token = next(tokens)
        while token[0] == "LPAR":
            base = _expect(next(tokens), "QUOTED", '"')[0][1:-1]
            markers, tags = [], []
            for kind, word, line in tokens:
                if kind == "TAG":
                    tags.append(word)
                elif kind in ("RPAR", "EOF"):
                    break
                elif kind not in ("MARKER", "OPENMARKER"):
                    raise LexiconError("malformed reading", line)
                elif tags:
                    raise LexiconError("markers must precede tags in a reading", line)
                elif kind == "OPENMARKER":
                    raise LexiconError("missing closing '>' in marker", line)
                else:
                    markers.append(word)
            _expect((kind, word, line), "RPAR", ")")
            if not tags:
                raise LexiconError(f"reading for {base!r} has no tags", token[2])
            reading = MorphReading(base, tuple(markers), tuple(tags))
            if reading in readings:
                message = f"duplicate reading for <{headword}> collapsed: {reading}"
                warnings.warn(message, DuplicateReadingWarning, stacklevel=2)
            else:
                readings.append(reading)
            token = next(tokens)
        _expect(token, "RPAR", ")")
        synthesized = not readings
        entries[key] = Entry(headword, tuple(readings or [_punct_reading(key)]), synthesized)
        token = next(tokens)
    if not entries:
        raise LexiconError("empty lexicon file", token[2])
    return Lexicon(entries, policy)


def serialize_lexicon(lexicon):
    """Render a lexicon back to its file format.  Entries parsed from a
    file in this format round-trip byte-exactly."""
    chunks = []
    for entry in lexicon.entries.values():
        if entry.synthesized:
            chunks.append(f'("<{entry.headword}>")\n')
            continue
        lines = [f'("<{entry.headword}>"']
        for reading in entry.readings:
            bits = [f'"{reading.base}"']
            bits.extend(reading.markers)
            bits.extend(reading.tags)
            lines.append("  (" + " ".join(bits) + ")")
        chunks.append("\n".join(lines) + ")\n")
    return "".join(chunks)


def tokenize(text):
    """Whitespace tokenization with sentence punctuation (. ? ! , ;) split
    off the end of words into tokens of their own; case is preserved."""
    tokens = []
    for chunk in text.split():
        trailing = []
        while len(chunk) > 1 and chunk[-1] in SPLIT_PUNCT:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


def split_sentences(tokens):
    """Group a token iterable into sentences delimited by . ? ! tokens,
    yielding each as soon as its terminator is read; a trailing fragment
    without a terminator is kept as a sentence."""
    current = []
    for token in tokens:
        current.append(token)
        if token in SENTENCE_END:
            yield current
            current = []
    if current:
        yield current


def lookup(lexicon, token):
    """Cohort for a surface token: exact key match first, then the
    lowercased key; unknown tokens follow the lexicon's policy."""
    if not token:
        raise ValueError("token must be non-empty")
    entry = lexicon.entries.get(token)
    if entry is None:
        entry = lexicon.entries.get(token.lower())
    if entry is not None:
        return Cohort(token, entry.readings)
    if lexicon.policy == "closed":
        raise UnknownWordError(f"unknown word {token!r}")
    base = token.lower()
    guesses = tuple(MorphReading(base, (), tags) for tags in OPEN_CLASS_GUESSES)
    return Cohort(token, guesses)
