"""Lexicon parsing, tokenization and cohort lookup.

The lexicon file is UTF-8 text of parenthesized entries:

    ("<see>"
      ("see" <SVO> V PRES -SG3 VFIN))

The quoted headword carries angle brackets; a leading `*` inside them is a
capitalization flag (normalized away from the key, the readings keep their
`<*>` marker) and a leading `$` marks punctuation.  An entry with no
reading lines, like ("<$.>"), synthesizes one reading whose single tag is
the punctuation category of the surface character.  Lines starting with
`#` are comments.
"""

from __future__ import annotations

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


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1

    def skip_space(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "\n":
                self.line += 1
                self.pos += 1
            elif ch in " \t\r":
                self.pos += 1
            elif ch == "#":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self.pos += 1
            else:
                return

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise LexiconError(f"expected {ch!r}, found {self.peek()!r}", self.line)
        self.pos += 1

    def quoted(self):
        self.take('"')
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in '"\n':
            self.pos += 1
        if self.peek() != '"':
            raise LexiconError("missing closing quote", self.line)
        value = self.text[start : self.pos]
        self.pos += 1
        return value

    def marker(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ">\n":
            self.pos += 1
        if self.peek() != ">":
            raise LexiconError("missing closing '>' in marker", self.line)
        self.pos += 1
        return self.text[start : self.pos]

    def tag(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ' \t\r\n()"<':
            self.pos += 1
        return self.text[start : self.pos]


def parse_lexicon(text, policy="open"):
    """Parse the parenthesized lexicon format into a Lexicon.

    One entry per top-level group; the quoted headword is the surface key;
    each inner group is one reading.  Duplicate identical readings within
    an entry collapse with a warning.
    """
    scanner = _Scanner(text)
    entries = {}
    scanner.skip_space()
    if not scanner.peek():
        raise LexiconError("empty lexicon file", scanner.line)
    while scanner.peek():
        scanner.take("(")
        scanner.skip_space()
        quoted = scanner.quoted()
        if not (quoted.startswith("<") and quoted.endswith(">")):
            raise LexiconError(
                f"headword {quoted!r} must be written inside angle brackets",
                scanner.line,
            )
        headword = quoted[1:-1]
        if not headword:
            raise LexiconError("empty headword", scanner.line)
        readings = []
        scanner.skip_space()
        while scanner.peek() == "(":
            line = scanner.line
            scanner.take("(")
            scanner.skip_space()
            base = scanner.quoted()
            markers = []
            tags = []
            scanner.skip_space()
            while scanner.peek() and scanner.peek() != ")":
                if scanner.peek() == "<":
                    if tags:
                        raise LexiconError(
                            "markers must precede tags in a reading", scanner.line
                        )
                    markers.append(scanner.marker())
                else:
                    tag = scanner.tag()
                    if not tag:
                        raise LexiconError("malformed reading", scanner.line)
                    tags.append(tag)
                scanner.skip_space()
            scanner.take(")")
            if not tags:
                raise LexiconError(
                    f"reading for {base!r} has no tags", line
                )
            reading = MorphReading(base, tuple(markers), tuple(tags))
            if reading in readings:
                warnings.warn(
                    f"duplicate reading for <{headword}> collapsed: {reading}",
                    DuplicateReadingWarning,
                    stacklevel=2,
                )
            else:
                readings.append(reading)
            scanner.skip_space()
        scanner.take(")")
        key = surface_key(headword)
        if readings:
            entry = Entry(headword, tuple(readings))
        else:
            entry = Entry(headword, (_punct_reading(key),), synthesized=True)
        entries[key] = entry
        scanner.skip_space()
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
