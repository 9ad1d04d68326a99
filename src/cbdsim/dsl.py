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
regular expression with a named group per token class, matched in order at
each position (the "Writing a Tokenizer" idiom of the :mod:`re` docs); any
other character becomes an ERROR token.  Parsing never raises on bad
input; every problem becomes a :class:`Diagnostic`, always an error,
carrying its source position, and validation reports all violations rather
than the first.
Validation checks here only what a :class:`graph.Model` cannot express;
the structural rules are :func:`graph.check_model`'s, located back in the
text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .blocks import INTEGRATOR_ORDERS, KINDS
from .graph import BlockDecl, Definition, Endpoint, Link, Model, check_model


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
class SourcePort:
    direction: str
    name: str
    span: Span


@dataclass
class SourceArg:
    name: str | None
    value: float
    span: Span


@dataclass
class SourceBlock:
    name: str
    kind: str
    args: list[SourceArg]
    span: Span


@dataclass
class SourceEndpoint:
    block: str
    port: str | None
    span: Span


@dataclass
class SourceLink:
    src: SourceEndpoint
    dst: SourceEndpoint
    span: Span


@dataclass
class SourceDefinition:
    name: str
    ports: list[SourcePort]
    blocks: list[SourceBlock]
    links: list[SourceLink]
    span: Span


@dataclass
class SourceModel:
    definitions: list[SourceDefinition] = field(default_factory=list)


@dataclass
class ParseResult:
    model: SourceModel
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# --- tokenizer --------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<NEWLINE>\n)
  | (?P<SKIP>[ \t\r]+|//[^\n]*)
  | (?P<ARROW>->)
  | (?P<NUMBER>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<PUNCT>[(){};,.=])
  | (?P<ERROR>.)
""", re.VERBOSE)


class Token(NamedTuple):
    type: str  # IDENT, NUMBER, punctuation literal, EOF, ERROR
    text: str
    span: Span


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
        elif kind != "SKIP":
            value = match.group()
            span = Span(line, match.start() - line_start + 1)
            if kind == "ERROR":
                diagnostics.append(Diagnostic(
                    f"unexpected character {value!r}", span))
            elif kind in ("ARROW", "PUNCT"):
                kind = value
            tokens.append(Token(kind, value, span))
    tokens.append(Token("EOF", "", Span(line, len(text) - line_start + 1)))
    return tokens, diagnostics


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.type != "EOF":
            self.pos += 1
        return token

    def check(self, type_: str, text: str | None = None) -> bool:
        token = self.current
        return token.type == type_ and (text is None or token.text == text)

    def error(self, expected: str) -> None:
        token = self.current
        got = repr(token.text) if token.text else "end of input"
        self.diagnostics.append(Diagnostic(
            f"expected {expected}, got {got}", token.span
        ))

    def expect(self, type_: str, expected: str | None = None) -> Token | None:
        if self.check(type_):
            return self.advance()
        self.error(expected or f"'{type_}'")
        return None

    def synchronize(self, *stop: str) -> None:
        """Skip tokens until one of the stop types (consumed) or a '}' / EOF."""
        while not self.check("EOF"):
            token = self.current
            if token.type in stop:
                self.advance()
                return
            if token.type == "}":
                return
            self.advance()

    # grammar productions

    def parse_model(self) -> SourceModel:
        model = SourceModel()
        while not self.check("EOF"):
            if self.check("IDENT", "cbd"):
                definition = self.parse_definition()
                if definition is not None:
                    model.definitions.append(definition)
            else:
                self.error("'cbd'")
                self.advance()
        return model

    def parse_definition(self) -> SourceDefinition | None:
        start = self.advance().span  # 'cbd'
        name = self.expect("IDENT", "definition name")
        if name is None:
            self.synchronize("}")
            return None
        if self.expect("(") is None:
            self.synchronize("}")
            return None
        ports: list[SourcePort] = []
        if not self.check(")"):
            self.parse_ports(ports)
        self.expect(")")
        if self.expect("{") is None:
            self.synchronize("}")
            return None
        blocks: list[SourceBlock] = []
        links: list[SourceLink] = []
        while not self.check("}") and not self.check("EOF"):
            if self.check("IDENT", "block"):
                block = self.parse_block()
                if block is not None:
                    blocks.append(block)
            elif self.check("IDENT"):
                link = self.parse_link()
                if link is not None:
                    links.append(link)
            else:
                self.error("'block' or a link")
                self.synchronize(";")
        self.expect("}")
        return SourceDefinition(name.text, ports, blocks, links, start)

    def parse_ports(self, ports: list[SourcePort]) -> None:
        while True:
            direction = self.current
            if not (self.check("IDENT", "in") or self.check("IDENT", "out")):
                self.error("'in' or 'out'")
                self.synchronize(";", ")")
                if not (self.check("IDENT", "in") or self.check("IDENT", "out")):
                    return
                continue
            self.advance()
            while True:
                name = self.expect("IDENT", "port name")
                if name is not None:
                    ports.append(SourcePort(direction.text, name.text, name.span))
                if self.check(","):
                    self.advance()
                    continue
                break
            if self.check(";"):
                self.advance()
                continue
            return

    def parse_block(self) -> SourceBlock | None:
        start = self.advance().span  # 'block'
        name = self.expect("IDENT", "block name")
        ok = name is not None
        ok = ok and self.expect("=") is not None
        kind = self.expect("IDENT", "block kind") if ok else None
        ok = ok and kind is not None and self.expect("(") is not None
        args: list[SourceArg] = []
        if ok and not self.check(")"):
            ok = self.parse_args(args)
        ok = ok and self.expect(")") is not None
        ok = ok and self.expect(";", "';'") is not None
        if not ok:
            self.synchronize(";")
            return None
        return SourceBlock(name.text, kind.text, args, start)

    def parse_args(self, args: list[SourceArg]) -> bool:
        while True:
            token = self.current
            if token.type == "NUMBER":
                self.advance()
                args.append(SourceArg(None, float(token.text), token.span))
            elif token.type == "IDENT":
                self.advance()
                if self.expect("=") is None:
                    return False
                number = self.expect("NUMBER", "a number")
                if number is None:
                    return False
                args.append(SourceArg(token.text, float(number.text), token.span))
            else:
                self.error("a number or NAME '=' NUMBER")
                return False
            if self.check(","):
                self.advance()
                continue
            return True

    def parse_endpoint(self) -> SourceEndpoint | None:
        name = self.expect("IDENT", "an endpoint")
        if name is None:
            return None
        port = None
        if self.check("."):
            self.advance()
            port_token = self.expect("IDENT", "port name")
            if port_token is None:
                return None
            port = port_token.text
        return SourceEndpoint(name.text, port, name.span)

    def parse_link(self) -> SourceLink | None:
        src = self.parse_endpoint()
        ok = src is not None and self.expect("->", "'->'") is not None
        dst = self.parse_endpoint() if ok else None
        ok = ok and dst is not None and self.expect(";", "';'") is not None
        if not ok:
            self.synchronize(";")
            return None
        return SourceLink(src, dst, src.span)


def parse(text: str) -> ParseResult:
    """Parse model source text; problems become diagnostics, never raises."""
    tokens, diagnostics = tokenize(text)
    parser = _Parser(tokens, diagnostics)
    model = parser.parse_model()
    return ParseResult(model, diagnostics)


# --- validation --------------------------------------------------------------

def validate(source: SourceModel) -> tuple[Model | None, list[Diagnostic]]:
    """Check the model's rules and build the semantic model.

    The rules a :class:`Model` cannot express are checked on the text:
    duplicate definitions, ports and names, parameters, and a bare block
    name as a link target.  Every structural rule is
    :func:`graph.check_model`'s, run on the model built from the text and
    located back in it.  A duplicate definition is reported and not
    checked further.  Reports every violation found; returns the model only
    when there is none.
    """
    diagnostics: list[Diagnostic] = []
    names: dict[str, SourceDefinition] = {}
    for definition in source.definitions:
        if definition.name in names:
            diagnostics.append(Diagnostic(
                f"duplicate definition {definition.name!r}", definition.span
            ))
        else:
            names[definition.name] = definition

    model = Model()
    # (definition, locator) of the structural problems a text rule reports
    reported: set[tuple[str, tuple]] = set()
    for name, definition in names.items():
        model.definitions[name] = _build_definition(
            definition, names, diagnostics, reported
        )
    for problem in check_model(model):
        if (problem.definition, problem.where) not in reported:
            diagnostics.append(Diagnostic(problem.message, _locate(
                names[problem.definition], problem.where
            )))

    if diagnostics:
        return None, diagnostics
    return model, diagnostics


def _build_definition(definition: SourceDefinition,
                      names: dict[str, SourceDefinition],
                      diagnostics: list[Diagnostic],
                      reported: set[tuple[str, tuple]]) -> Definition:
    """Check the text rules of ``definition`` and build it."""
    port_names: set[str] = set()
    for port in definition.ports:
        if port.name in port_names:
            diagnostics.append(Diagnostic(
                f"duplicate port {port.name!r}", port.span
            ))
        port_names.add(port.name)

    blocks: dict[str, BlockDecl] = {}
    for block in definition.blocks:
        if block.name in blocks or block.name in port_names:
            diagnostics.append(Diagnostic(
                f"duplicate name {block.name!r}", block.span
            ))
        params: dict[str, float] = {}
        if block.kind in KINDS:
            params = _bind_params(block, diagnostics)
            order = params.get("order", 1)
            if order not in INTEGRATOR_ORDERS:
                diagnostics.append(Diagnostic(
                    f"{block.name!r} ({block.kind}) order must be 1 or 2, "
                    f"got {order:g}", block.span
                ))
            if block.kind == "Constant" and not any(
                arg.name in (None, "value") for arg in block.args
            ):
                diagnostics.append(Diagnostic(
                    "Constant requires a value parameter", block.span
                ))
        elif block.kind in names and block.args:
            diagnostics.append(Diagnostic(
                f"composite block {block.kind!r} takes no parameters",
                block.args[0].span,
            ))
        blocks[block.name] = BlockDecl(kind=block.kind, params=params)
    # check_model states the Constant rule again on the built model.
    reported.update((definition.name, ("block", name))
                    for name, decl in blocks.items()
                    if decl.kind == "Constant" and "value" not in decl.params)

    links = []
    for i, link in enumerate(definition.links):
        dst = _endpoint(link.dst, port_names)
        if link.dst.port is None and dst[0] in blocks:
            diagnostics.append(Diagnostic(
                f"link into {dst[0]!r} must name an input port", link.dst.span
            ))
            reported.add((definition.name, ("dst", i)))
        links.append(Link(src=_endpoint(link.src, port_names), dst=dst))
    return Definition(
        name=definition.name,
        in_ports=tuple(p.name for p in definition.ports if p.direction == "in"),
        out_ports=tuple(p.name for p in definition.ports if p.direction == "out"),
        blocks=blocks,
        links=links,
    )


def _endpoint(endpoint: SourceEndpoint, port_names: set[str]) -> Endpoint:
    if endpoint.port is None and endpoint.block in port_names:
        return (None, endpoint.block)
    if endpoint.port is None:
        # Bare block name: its single output.
        return (endpoint.block, "out")
    return (endpoint.block, endpoint.port)


def _locate(definition: SourceDefinition, where: tuple | None) -> Span:
    """The span in ``definition`` of a :class:`graph.Problem` locator."""
    if where is None:
        return definition.span
    field, key = where
    if field in ("src", "dst"):
        return getattr(definition.links[key], field).span
    items = definition.blocks if field == "block" else definition.ports
    return [item.span for item in items if item.name == key][-1]


def _bind_params(block: SourceBlock,
                 diagnostics: list[Diagnostic]) -> dict[str, float]:
    declared = KINDS[block.kind].params
    params: dict[str, float] = {}
    for position, arg in enumerate(block.args):
        if arg.name is None:
            if position < len(declared):
                params[declared[position]] = arg.value
            else:
                diagnostics.append(Diagnostic(
                    f"{block.kind} takes at most {len(declared)} parameter(s)",
                    arg.span,
                ))
        elif arg.name in declared:
            params[arg.name] = arg.value
        else:
            diagnostics.append(Diagnostic(
                f"{block.kind} has no parameter {arg.name!r}", arg.span
            ))
    return params


# --- pretty printer -----------------------------------------------------------

def print_model(source: SourceModel) -> str:
    """Canonical text form; re-parsing yields a structurally identical model."""
    chunks: list[str] = []
    for definition in source.definitions:
        ports = "; ".join(
            f"{p.direction} {p.name}" for p in definition.ports
        )
        chunks.append(f"cbd {definition.name}({ports}) {{")
        for block in definition.blocks:
            args = ", ".join(
                repr(a.value) if a.name is None else f"{a.name}={a.value!r}"
                for a in block.args
            )
            chunks.append(f"  block {block.name} = {block.kind}({args});")
        for link in definition.links:
            chunks.append(
                f"  {_format_endpoint(link.src)} -> {_format_endpoint(link.dst)};"
            )
        chunks.append("}")
        chunks.append("")
    return "\n".join(chunks)


def _format_endpoint(endpoint: SourceEndpoint) -> str:
    if endpoint.port is None:
        return endpoint.block
    return f"{endpoint.block}.{endpoint.port}"


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
