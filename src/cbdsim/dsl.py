"""Textual model format: tokenizer, parser, validator, printer.

The grammar, in EBNF::

    model     := { definition } ;
    definition:= "cbd" NAME "(" [ports] ")" "{" { item } "}" ;
    ports     := portdecl { ";" portdecl } ;
    portdecl  := ("in"|"out") NAME { "," NAME } ;
    item      := blockdecl | link ;
    blockdecl := "block" NAME "=" KIND "(" [ args ] ")" ";" ;
    args      := (NUMBER | NAME "=" NUMBER) { "," ... } ;
    link      := endpoint "->" endpoint ";" ;
    endpoint  := NAME [ "." NAME ] ;

``//`` starts a comment running to the end of the line.  NUMBER is a
decimal real with optional sign and exponent.  The scanner is one pattern
matched once per token, with the blanks, newlines and comments before the
token ahead of its one group, the token's text; a character that starts
no token is an ERROR token.  One ``findall`` gives every text, each
distinct text is typed once, and the parser keeps token numbers: a line
and column are found only for a diagnostic, by one positional pass
(:func:`tokenize`).  An item that starts with ``block`` followed by ``.``
or ``->`` is a link, so a block or an input port may be named ``block``.
Parsing never raises on bad input; every problem becomes a
:class:`Diagnostic`, always an error, carrying its source position.

There is one representation of a model: the parser builds each
:class:`graph.Definition` while it reads it, records the first token of
every item a :class:`graph.Problem` can locate, and checks each rule that
only text can break where its text is read:

- a number out of range, in the argument list (a syntax error);
- a duplicate block name and the parameter list against the kind, in the
  block;
- parameters on a composite block, at the end of the text, since the
  composite may be defined later;
- a duplicate definition: the first wins, and the later one is reported
  and not checked further.

A bare block name as a link target becomes a link into that block with
no port, which :func:`graph.check_model` reports like any other broken
rule.  :func:`validate` reports the parser's diagnostics, then every
structural rule of :func:`graph.check_model` located back in the text:
all violations rather than the first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .blocks import KINDS
from .graph import (NAME, BlockDecl, Definition, Endpoint, Link, Model,
                    _endpoint_str, check_model)


class Span(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Span

    def __str__(self) -> str:
        return f"{self.span}: error: {self.message}"


@dataclass
class SourceModel(Model):
    """The model a text defines, with what :func:`validate` needs of the
    text: by definition, the first token of every locator a
    :class:`graph.Problem` can name, as its number in the text's scan,
    and the diagnostics of the rules only text can break."""
    spans: dict[str, dict[tuple | None, int]] = field(default_factory=dict)
    rule_diagnostics: list[Diagnostic] = field(default_factory=list)
    text: str = field(default="", repr=False)

    def span(self, token: int) -> Span:
        """Tokenizes the text the first time a diagnostic needs a span."""
        return self._tokenized[0][token].span

    @cached_property
    def _tokenized(self) -> tuple[list[Token], list[Diagnostic]]:
        return tokenize(self.text)


@dataclass
class ParseResult:
    model: SourceModel
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# --- scanner -----------------------------------------------------------------

# The pattern of each token type, tried in order; the type of an arrow or a
# punctuation token is its text.  EOF, the empty text at the end, keeps a
# trailing comment from being rescanned as ERROR characters.
_TYPES = {
    "NUMBER": r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?",
    "IDENT": NAME,
    "PUNCT": r"->|[(){};,.=]",
    "ERROR": r".",
    "EOF": r"\Z",
}
# One match per token: the blanks, newlines and comments before a token are
# the prefix of its match, and its one group is the token's text.
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*("
                       + "|".join(_TYPES.values()) + ")")
_TYPE_RE = re.compile("|".join(
    f"(?P<{type_}>{pattern})" for type_, pattern in _TYPES.items()))


class Token(NamedTuple):
    type: str  # IDENT, NUMBER, punctuation literal, EOF, ERROR
    text: str
    span: Span


def _types(texts: list[str]) -> list[str]:
    """The type of each token text, found once per distinct text."""
    types = {}
    for text in set(texts):
        type_ = _TYPE_RE.fullmatch(text).lastgroup
        types[text] = text if type_ == "PUNCT" else type_
    return list(map(types.__getitem__, texts))


def scan(text: str) -> tuple[list[str], list[str]]:
    """The type and the text of every token of ``text``, EOF last, from
    one ``findall`` of the token pattern."""
    texts = _TOKEN_RE.findall(text)
    if len(texts) > 1 and not texts[-2]:  # a second, empty match at the end
        del texts[-1]
    return _types(texts), texts


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    """The tokens of :func:`scan` with their spans, from one positional
    pass of the token pattern, and a diagnostic for each ERROR token."""
    texts: list[str] = []
    spans: list[Span] = []
    line = 1
    for match in _TOKEN_RE.finditer(text):
        start = match.start(1)
        line += text.count("\n", match.start(), start)
        texts.append(match[1])
        spans.append(Span(line, start - text.rfind("\n", 0, start)))
        if start == len(text):  # EOF
            break
    tokens = list(map(Token, _types(texts), texts, spans))
    return tokens, [Diagnostic(f"unexpected character {token.text!r}",
                               token.span)
                    for token in tokens if token.type == "ERROR"]


# --- parser ------------------------------------------------------------------

# A block argument: its name (None if positional), value and first token.
_Arg = tuple[str | None, float, int]


class _Parser:
    # Reads the token types and texts by index; a token is its number.
    def __init__(self, text: str):
        self.types, self.texts = scan(text)
        self.pos = 0
        self.model = SourceModel(text=text)
        self.diagnostics = list(self.model._tokenized[1]) \
            if "ERROR" in self.types else []
        self.duplicates: list[Diagnostic] = []
        # The text-rule diagnostics of the definitions kept, each with the
        # composite kind it stands on (None: it stands).
        self.notes: list[tuple[str | None, Diagnostic]] = []

    def error(self, expected: str) -> None:
        text = self.texts[self.pos]
        got = repr(text) if text else "end of input"
        self.diagnostics.append(Diagnostic(
            f"expected {expected}, got {got}", self.model.span(self.pos)
        ))

    def expect(self, type_: str, expected: str | None = None) -> int | None:
        """The next token, consumed, if it is a ``type_``."""
        pos = self.pos
        if self.types[pos] == type_:
            self.pos = pos + 1
            return pos
        self.error(expected or f"'{type_}'")
        return None

    def synchronize(self, *stop: str) -> None:
        """Skip tokens until one of the stop types (consumed) or a '}' / EOF."""
        types, pos = self.types, self.pos
        while types[pos] not in stop:
            if types[pos] in ("}", "EOF"):
                self.pos = pos
                return
            pos += 1
        self.pos = pos + 1

    def note(self, message: str, token: int, kind: str | None = None) -> None:
        self.defn_notes.append(
            (kind, Diagnostic(message, self.model.span(token))))

    # grammar productions; a definition's items go straight into its
    # Definition, their first tokens into ``spans`` and their text-rule
    # diagnostics into ``defn_notes``

    def parse_model(self) -> SourceModel:
        model, types, texts = self.model, self.types, self.texts
        while (type_ := types[self.pos]) != "EOF":
            if type_ == "IDENT" and texts[self.pos] == "cbd":
                self.parse_definition()
            else:
                self.error("'cbd'")
                self.pos += 1
        # A composite kind's diagnostic stands once the kind is defined.
        model.rule_diagnostics = self.duplicates + [
            diagnostic for kind, diagnostic in self.notes
            if kind is None or kind in model.definitions
        ]
        return model

    def parse_definition(self) -> None:
        types, texts = self.types, self.texts
        start = self.pos  # 'cbd'
        self.pos += 1
        name = self.expect("IDENT", "definition name")
        if name is None or self.expect("(") is None:
            self.synchronize("}")
            return
        self.spans: dict[tuple | None, int] = {None: start}
        self.defn_notes: list[tuple[str | None, Diagnostic]] = []
        self.port_names: set[str] = set()
        ports: dict[str, list[str]] = {"in": [], "out": []}
        if types[self.pos] != ")":
            self.parse_ports(ports)
        self.expect(")")
        if self.expect("{") is None:
            self.synchronize("}")
            return
        defn = self.defn = Definition(texts[name], tuple(ports["in"]),
                                      tuple(ports["out"]))
        while (type_ := types[self.pos]) not in ("}", "EOF"):
            if type_ != "IDENT":
                self.error("'block' or a link")
                self.synchronize(";")
            # A link may start at a block or input port named 'block'.
            elif texts[self.pos] == "block" and \
                    types[self.pos + 1] not in (".", "->"):
                self.parse_block()
            else:
                self.parse_link()
        self.expect("}")

        model = self.model
        if defn.name in model.definitions:
            self.duplicates.append(Diagnostic(
                f"duplicate definition {defn.name!r}", model.span(start)))
            return
        model.definitions[defn.name] = defn
        model.spans[defn.name] = self.spans
        self.notes += self.defn_notes

    def parse_ports(self, ports: dict[str, list[str]]) -> None:
        types, texts = self.types, self.texts
        while True:
            if types[self.pos] != "IDENT" or texts[self.pos] not in ports:
                self.error("'in' or 'out'")
                self.synchronize(";", ")")
                if types[self.pos] != "IDENT" or texts[self.pos] not in ports:
                    return
            names = ports[texts[self.pos]]
            self.pos += 1
            while True:
                name = self.expect("IDENT", "port name")
                if name is not None:
                    self.port_names.add(texts[name])
                    names.append(texts[name])
                    self.spans["port", texts[name]] = name
                if types[self.pos] != ",":
                    break
                self.pos += 1
            if types[self.pos] != ";":
                return
            self.pos += 1

    def parse_block(self) -> None:
        start = self.pos  # 'block'
        self.pos += 1
        name = self.expect("IDENT", "block name")
        ok = name is not None and self.expect("=") is not None
        kind = self.expect("IDENT", "block kind") if ok else None
        ok = kind is not None and self.expect("(") is not None
        args: list[_Arg] = []
        if ok and self.types[self.pos] != ")":
            ok = self.parse_args(args)
        ok = ok and self.expect(")") is not None
        ok = ok and self.expect(";") is not None
        if not ok:
            self.synchronize(";")
            return
        name, kind = self.texts[name], self.texts[kind]
        blocks = self.defn.blocks
        # check_model states the rule for a block named like a port.
        if name in blocks and name not in self.port_names:
            self.note(f"duplicate name {name!r}", start)
        params: dict[str, float] = {}
        if kind in KINDS:
            params = self.bind_params(kind, args)
        elif args:
            self.note(f"composite block {kind!r} takes no parameters",
                      args[0][2], kind)
        blocks[name] = BlockDecl(kind, params)
        self.spans["block", name] = start

    def parse_args(self, args: list[_Arg]) -> bool:
        types, texts = self.types, self.texts
        while True:
            pos = self.pos
            if types[pos] == "NUMBER":
                self.pos = pos + 1
                args.append((None, self.number(pos), pos))
            elif types[pos] == "IDENT":
                self.pos = pos + 1
                if self.expect("=") is None:
                    return False
                number = self.expect("NUMBER", "a number")
                if number is None:
                    return False
                args.append((texts[pos], self.number(number), pos))
            else:
                self.error("a number or NAME '=' NUMBER")
                return False
            if types[self.pos] != ",":
                return True
            self.pos += 1

    def number(self, token: int) -> float:
        text = self.texts[token]
        value = float(text)
        if math.isinf(value):
            self.diagnostics.append(Diagnostic(
                f"number {text!r} is out of range", self.model.span(token)))
        return value

    def bind_params(self, kind: str, args: list[_Arg]) -> dict[str, float]:
        declared = KINDS[kind].params
        params: dict[str, float] = {}
        for position, (name, value, token) in enumerate(args):
            if name is None:
                if position < len(declared):
                    params[declared[position]] = value
                else:
                    self.note(f"{kind} takes at most {len(declared)} "
                              f"parameter(s)", token)
            elif name in declared:
                params[name] = value
            else:
                self.note(f"{kind} has no parameter {name!r}", token)
        return params

    def parse_endpoint(self, bare: str | None) -> tuple[int, Endpoint] | None:
        """The first token of an endpoint and the endpoint ``name[.port]``
        names, None after a syntax error; a bare block name stands for its
        port ``bare``."""
        name = self.expect("IDENT", "an endpoint")
        if name is None:
            return None
        text = self.texts[name]
        if self.types[self.pos] != ".":
            if text in self.port_names:
                return name, (None, text)
            return name, (text, bare)
        self.pos += 1
        port = self.expect("IDENT", "port name")
        return None if port is None else (name, (text, self.texts[port]))

    def parse_link(self) -> None:
        # A bare source is the block's single output; a bare target names
        # no port, which check_model reports.
        src = self.parse_endpoint("out")
        ok = src is not None and self.expect("->") is not None
        dst = self.parse_endpoint(None) if ok else None
        ok = dst is not None and self.expect(";") is not None
        if not ok:
            self.synchronize(";")
            return
        links = self.defn.links
        i = len(links)
        self.spans["src", i] = src[0]
        self.spans["dst", i] = dst[0]
        links.append(Link(src[1], dst[1]))


def parse(text: str) -> ParseResult:
    """Parse model source text into the model it defines; problems become
    diagnostics, never raises."""
    parser = _Parser(text)
    return ParseResult(parser.parse_model(), parser.diagnostics)


# --- validation --------------------------------------------------------------

def validate(source: SourceModel) -> tuple[Model | None, list[Diagnostic]]:
    """Report every broken rule of a parsed model; return the model only
    when there is none.

    The diagnostics of the rules only text can break, which :func:`parse`
    found, come first, then every structural problem
    :func:`graph.check_model` finds, at the span of its locator's token.
    The model returned is a plain :class:`Model` of the parsed definitions.
    """
    spans = source.spans
    diagnostics = source.rule_diagnostics + [
        Diagnostic(problem.message,
                   source.span(spans[problem.definition][problem.where]))
        for problem in check_model(source)]
    if diagnostics:
        return None, diagnostics
    return Model(source.definitions), diagnostics


# --- pretty printer -----------------------------------------------------------

def print_model(model: Model) -> str:
    """Canonical text of ``model``: ports as ``in ...; out ...``, named
    parameters and ``block.port`` endpoints.  :func:`load_model` of the
    text gives back an equal model whenever the model flattens, for a model
    read from text and one built in code alike."""
    chunks: list[str] = []
    for name, defn in model.definitions.items():
        ports = "; ".join(
            f"{direction} {', '.join(map(str, names))}" for direction, names
            in (("in", defn.in_ports), ("out", defn.out_ports)) if names
        )
        chunks.append(f"cbd {name}({ports}) {{")
        for bname, decl in defn.blocks.items():
            args = ", ".join(f"{k}={v!r}" for k, v in decl.params.items())
            chunks.append(f"  block {bname} = {decl.kind}({args});")
        for link in defn.links:
            chunks.append(f"  {_endpoint_str(link.src)} -> "
                          f"{_endpoint_str(link.dst)};")
        chunks.append("}\n")
    return "\n".join(chunks)


def load_model(text: str) -> Model:
    """Parse and validate in one call, raising on any diagnostic error."""
    result = parse(text)
    if not result.ok:
        raise ModelTextError(result.diagnostics)
    model, diagnostics = validate(result.model)
    if model is None:
        raise ModelTextError(diagnostics)
    return model


class ModelTextError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("\n".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics
