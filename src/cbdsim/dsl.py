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
decimal real with optional sign and exponent.  The tokenizer is one master
regular expression with a named group per token class, matched in order
(the "Writing a Tokenizer" idiom of the :mod:`re` docs), one match per
token: the blanks and comment before a token belong to its match, ahead of
its group, so its span is still that of its own first character.  Any
other character becomes an ERROR token.  An item that starts with
``block`` followed by ``.`` or ``->`` is a link, so a block or an input
port may be named ``block``.  Parsing never raises on bad input; every
problem becomes a :class:`Diagnostic`, always an error, carrying its
source position.

There is one representation of a model: the parser builds each
:class:`graph.Definition` while it reads it, records the span of every
item a :class:`graph.Problem` can locate, and checks each rule that only
text can break where its text is read:

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
    text: by definition, the span of every locator a :class:`graph.Problem`
    can name, and the diagnostics of the rules only text can break."""
    spans: dict[str, dict[tuple | None, Span]] = field(default_factory=dict)
    rule_diagnostics: list[Diagnostic] = field(default_factory=list)


@dataclass
class ParseResult:
    model: SourceModel
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# --- tokenizer --------------------------------------------------------------

# One match per token: the blanks and the comment before a token are the
# prefix of its match, so only newlines and tokens are matched, and END,
# at the end of the text, ends the scan (without it a trailing comment
# would be rescanned as ERROR characters).
_TOKEN_RE = re.compile(rf"""
    [ \t\r]*(?://[^\n]*)?
    (?:
        (?P<NEWLINE>\n)
      | (?P<ARROW>->)
      | (?P<NUMBER>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<IDENT>{NAME})
      | (?P<PUNCT>[(){{}};,.=])
      | (?P<END>\Z)
      | (?P<ERROR>.)
    )
""", re.VERBOSE)


class Token(NamedTuple):
    type: str  # IDENT, NUMBER, punctuation literal, EOF, ERROR
    text: str
    span: Span


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    new = tuple.__new__  # a Span or Token without the NamedTuple __new__
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
            continue
        if kind == "END":
            break
        value = match[kind]
        span = new(Span, (line, match.end() - len(value) - line_start + 1))
        if kind == "ARROW" or kind == "PUNCT":
            kind = value
        elif kind == "ERROR":
            diagnostics.append(Diagnostic(
                f"unexpected character {value!r}", span))
        tokens.append(new(Token, (kind, value, span)))
    tokens.append(Token("EOF", "", Span(line, len(text) - line_start + 1)))
    return tokens, diagnostics


# --- parser ------------------------------------------------------------------

# A block argument: its name (None if positional), value and span.
_Arg = tuple[str | None, float, Span]


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics
        self.model = SourceModel()
        self.duplicates: list[Diagnostic] = []
        # The text-rule diagnostics of the definitions kept, each with the
        # composite kind it stands on (None: it stands).
        self.notes: list[tuple[str | None, Diagnostic]] = []

    def error(self, expected: str) -> None:
        _, text, span = self.tokens[self.pos]
        got = repr(text) if text else "end of input"
        self.diagnostics.append(Diagnostic(
            f"expected {expected}, got {got}", span
        ))

    def expect(self, type_: str, expected: str | None = None) -> Token | None:
        token = self.tokens[self.pos]
        if token.type == type_:
            self.pos += 1
            return token
        self.error(expected or f"'{type_}'")
        return None

    def synchronize(self, *stop: str) -> None:
        """Skip tokens until one of the stop types (consumed) or a '}' / EOF."""
        tokens, pos = self.tokens, self.pos
        while tokens[pos].type not in stop:
            if tokens[pos].type in ("}", "EOF"):
                self.pos = pos
                return
            pos += 1
        self.pos = pos + 1

    def note(self, message: str, span: Span, kind: str | None = None) -> None:
        self.defn_notes.append((kind, Diagnostic(message, span)))

    # grammar productions; a definition's items go straight into its
    # Definition, their spans into ``spans`` and their text-rule diagnostics
    # into ``defn_notes``

    def parse_model(self) -> SourceModel:
        model, tokens = self.model, self.tokens
        while (token := tokens[self.pos]).type != "EOF":
            if token.type == "IDENT" and token.text == "cbd":
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
        tokens = self.tokens
        start = tokens[self.pos].span  # 'cbd'
        self.pos += 1
        name = self.expect("IDENT", "definition name")
        if name is None or self.expect("(") is None:
            self.synchronize("}")
            return
        self.spans: dict[tuple | None, Span] = {None: start}
        self.defn_notes: list[tuple[str | None, Diagnostic]] = []
        self.port_names: set[str] = set()
        ports: dict[str, list[str]] = {"in": [], "out": []}
        if tokens[self.pos].type != ")":
            self.parse_ports(ports)
        self.expect(")")
        if self.expect("{") is None:
            self.synchronize("}")
            return
        defn = self.defn = Definition(name.text, tuple(ports["in"]),
                                      tuple(ports["out"]))
        while (token := tokens[self.pos]).type not in ("}", "EOF"):
            if token.type != "IDENT":
                self.error("'block' or a link")
                self.synchronize(";")
            # A link may start at a block or input port named 'block'.
            elif token.text == "block" and \
                    tokens[self.pos + 1].type not in (".", "->"):
                self.parse_block()
            else:
                self.parse_link()
        self.expect("}")

        model = self.model
        if defn.name in model.definitions:
            self.duplicates.append(Diagnostic(
                f"duplicate definition {defn.name!r}", start))
            return
        model.definitions[defn.name] = defn
        model.spans[defn.name] = self.spans
        self.notes += self.defn_notes

    def parse_ports(self, ports: dict[str, list[str]]) -> None:
        tokens = self.tokens
        while True:
            direction = tokens[self.pos]
            if direction.type != "IDENT" or direction.text not in ports:
                self.error("'in' or 'out'")
                self.synchronize(";", ")")
                direction = tokens[self.pos]
                if direction.type != "IDENT" or direction.text not in ports:
                    return
            self.pos += 1
            while True:
                name = self.expect("IDENT", "port name")
                if name is not None:
                    self.port_names.add(name.text)
                    ports[direction.text].append(name.text)
                    self.spans["port", name.text] = name.span
                if tokens[self.pos].type != ",":
                    break
                self.pos += 1
            if tokens[self.pos].type != ";":
                return
            self.pos += 1

    def parse_block(self) -> None:
        start = self.tokens[self.pos].span  # 'block'
        self.pos += 1
        name = self.expect("IDENT", "block name")
        ok = name is not None and self.expect("=") is not None
        kind = self.expect("IDENT", "block kind") if ok else None
        ok = kind is not None and self.expect("(") is not None
        args: list[_Arg] = []
        if ok and self.tokens[self.pos].type != ")":
            ok = self.parse_args(args)
        ok = ok and self.expect(")") is not None
        ok = ok and self.expect(";") is not None
        if not ok:
            self.synchronize(";")
            return
        name, kind = name.text, kind.text
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
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.type == "NUMBER":
                self.pos += 1
                args.append((None, self.number(token), token.span))
            elif token.type == "IDENT":
                self.pos += 1
                if self.expect("=") is None:
                    return False
                number = self.expect("NUMBER", "a number")
                if number is None:
                    return False
                args.append((token.text, self.number(number), token.span))
            else:
                self.error("a number or NAME '=' NUMBER")
                return False
            if tokens[self.pos].type != ",":
                return True
            self.pos += 1

    def number(self, token: Token) -> float:
        value = float(token.text)
        if math.isinf(value):
            self.diagnostics.append(Diagnostic(
                f"number {token.text!r} is out of range", token.span))
        return value

    def bind_params(self, kind: str, args: list[_Arg]) -> dict[str, float]:
        declared = KINDS[kind].params
        params: dict[str, float] = {}
        for position, (name, value, span) in enumerate(args):
            if name is None:
                if position < len(declared):
                    params[declared[position]] = value
                else:
                    self.note(f"{kind} takes at most {len(declared)} "
                              f"parameter(s)", span)
            elif name in declared:
                params[name] = value
            else:
                self.note(f"{kind} has no parameter {name!r}", span)
        return params

    def parse_endpoint(self, bare: str | None) -> tuple[Span, Endpoint] | None:
        """The span of an endpoint's name and the endpoint ``name[.port]``
        names, None after a syntax error; a bare block name stands for its
        port ``bare``."""
        name = self.expect("IDENT", "an endpoint")
        if name is None:
            return None
        if self.tokens[self.pos].type != ".":
            if name.text in self.port_names:
                return name.span, (None, name.text)
            return name.span, (name.text, bare)
        self.pos += 1
        port = self.expect("IDENT", "port name")
        return None if port is None else (name.span, (name.text, port.text))

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
    tokens, diagnostics = tokenize(text)
    model = _Parser(tokens, diagnostics).parse_model()
    return ParseResult(model, diagnostics)


# --- validation --------------------------------------------------------------

def validate(source: SourceModel) -> tuple[Model | None, list[Diagnostic]]:
    """Report every broken rule of a parsed model; return the model only
    when there is none.

    The diagnostics of the rules only text can break, which :func:`parse`
    found, come first, then every structural problem
    :func:`graph.check_model` finds, at the span recorded for its locator.
    The model returned is a plain :class:`Model` of the parsed definitions.
    """
    diagnostics = source.rule_diagnostics + [
        Diagnostic(problem.message,
                   source.spans[problem.definition][problem.where])
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
