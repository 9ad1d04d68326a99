import gc
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cbdsim import dsl
from cbdsim.graph import BlockDecl, Definition, Link, Model, flatten

from conftest import MODELS, ROOT, perfbench_module

MINIMAL = "cbd Main(out y){ block c = Constant(9.81); c.out -> y; }"


# Malformed model texts and their diagnostics, in the order reported.
DIAGNOSED = {
    "unknown-kind": (
        "cbd Main(out y){ block c = Quux(); c.out -> y; }",
        ["1:18: error: unknown block kind 'Quux'"]),
    "unknown-source": (
        "cbd Main(out y){ block c = Constant(1); q -> y; }",
        ["1:41: error: unknown link source 'q'"]),
    "unknown-source-port": (
        "cbd Main(in u; out y){ u.x -> y; }",
        ["1:24: error: unknown link source 'u'"]),
    "no-output-port": (
        "cbd Main(out y){ block c = Constant(1); c.val -> y; }",
        ["1:41: error: 'c' has no output port 'val'"]),
    "composite-no-output-port": (
        "cbd S(out z){ block c = Constant(1); c -> z; }\n"
        "cbd Main(out y){ block s = S(); s.w -> y; }",
        ["2:33: error: 's' has no output port 'w'"]),
    "unknown-target": (
        "cbd Main(out y){ block c = Constant(1); c -> q.in; c -> y; }",
        ["1:46: error: unknown link target 'q'"]),
    "unknown-bare-target": (
        "cbd Main(out y){ block c = Constant(1); c -> q; c -> y; }",
        ["1:46: error: unknown link target 'q'"]),
    "no-input-port": (
        "cbd Main(out y){ block n = Negator(); block c = Constant(1); "
        "c -> n.x; c -> n.in; n -> y; }",
        ["1:67: error: 'n' has no input port 'x'"]),
    "variadic-bad-port": (
        "cbd Main(out y){ block a = Adder(); block c = Constant(1); "
        "c -> a.in0; c -> a.in1; c -> a.in2; a -> y; }",
        ["1:65: error: 'a' has no input port 'in0'"]),
    "composite-no-input-port": (
        "cbd S(in u; out z){ u -> z; }\n"
        "cbd Main(out y){ block c = Constant(1); block s = S(); "
        "c -> s.v; c -> s.u; s.z -> y; }",
        ["2:61: error: 's' has no input port 'v'"]),
    "drive-own-input": (
        "cbd Main(in u; out y){ block c = Constant(1); c -> u; "
        "c -> y; }",
        [
            "1:52: error: cannot drive input port 'u' from inside its "
            "definition",
        ]),
    "bare-target": (
        "cbd Main(out y){ block c = Constant(1); block n = Negator(); "
        "c -> n; n -> y; }",
        [
            "1:67: error: link into 'n' must name an input port",
            "1:41: error: input port 'in' of 'n' has no driver",
        ]),
    "bare-target-twice": (
        "cbd Main(out y){ block c = Constant(1); block n = Negator(); "
        "c -> n; c -> n; c -> n.in; n -> y; }",
        [
            "1:67: error: link into 'n' must name an input port",
            "1:75: error: link into 'n' must name an input port",
        ]),
    "two-drivers-port": (
        "cbd Main(out y){ block a = Constant(1); "
        "block b = Constant(2); a -> y; b -> y; }",
        ["1:77: error: multiple drivers for y"]),
    "two-drivers-input": (
        "cbd Main(out y){ block a = Constant(1); "
        "block b = Constant(2); block n = Negator(); a -> n.in; "
        "b -> n.in; n -> y; }",
        ["1:101: error: multiple drivers for n.in"]),
    "undriven-output": (
        "cbd Main(out y, z){ block c = Constant(1); c -> y; }",
        ["1:17: error: output port 'z' has no driver"]),
    "undriven-input": (
        "cbd Main(out y){ block n = Decision(); block c = Constant(1); "
        "c -> n.v; n -> y; }",
        [
            "1:18: error: input port 'c' of 'n' has no driver",
            "1:18: error: input port 'u' of 'n' has no driver",
        ]),
    "variadic-gap": (
        "cbd Main(out y){ block a = Multiplier(); "
        "block c = Constant(1); c -> a.in1; c -> a.in3; a -> y; }",
        [
            "1:18: error: 'a' (Multiplier) needs inputs in1..inN (N >= "
            "2) fully driven",
        ]),
    "variadic-one": (
        "cbd Main(out y){ block a = Adder(); block c = Constant(1); "
        "c -> a.in1; a -> y; }",
        [
            "1:18: error: 'a' (Adder) needs inputs in1..inN (N >= 2) "
            "fully driven",
        ]),
    "composite-undriven-input": (
        "cbd S(in u, w; out z){ u -> z; }\n"
        "cbd Main(out y){ block c = Constant(1); block s = S(); "
        "c -> s.u; s.z -> y; }",
        ["2:41: error: input port 'w' of 's' has no driver"]),
    "unread-composite": (
        "cbd S(in u; out z){ block n = Negator(); }\n"
        "cbd Main(out y){ block c = Constant(1); c -> y; }",
        [
            "1:17: error: output port 'z' has no driver",
            "1:21: error: input port 'in' of 'n' has no driver",
        ]),
    "recursion": (
        "cbd A(out y){ block inner = A(); inner.y -> y; }",
        ["1:1: error: recursive definition chain: A -> A"]),
    "recursion-chain": (
        "cbd Main(out y){ block a = A(); a.y -> y; }\n"
        "cbd A(out y){ block b = B(); b.y -> y; }\n"
        "cbd B(out y){ block a = A(); a.y -> y; }",
        ["2:1: error: recursive definition chain: A -> B -> A"]),
    "duplicate-definition": (
        "cbd Main(out y){ block c = Constant(1); c -> y; }\n"
        "cbd Main(out y){ block c = Constant(2); c -> y; }",
        ["2:1: error: duplicate definition 'Main'"]),
    "duplicate-port": (
        "cbd Main(out y; out y){ block c = Constant(1); c -> y; }",
        ["1:21: error: duplicate port 'y'"]),
    "duplicate-name": (
        "cbd Main(in c; out y){ block c = Constant(1); c -> y; }",
        ["1:24: error: duplicate name 'c'"]),
    "duplicate-block": (
        "cbd Main(out y){ block c = Constant(1); block c = Constant(2); "
        "c -> y; }",
        ["1:41: error: duplicate name 'c'"]),
    "bad-parameter": (
        "cbd Main(out y){ block c = Constant(weight=1); c.out -> y; }",
        [
            "1:37: error: Constant has no parameter 'weight'",
            "1:18: error: 'c' (Constant) requires a value parameter",
        ]),
    "too-many-parameters": (
        "cbd Main(out y){ block c = Constant(1, 2); c.out -> y; }",
        ["1:40: error: Constant takes at most 1 parameter(s)"]),
    "bad-order": (
        "cbd Main(in u; out y){ block i = Integrator(0, 3); u -> i.in; "
        "i -> y; }",
        ["1:24: error: 'i' (Integrator) order must be 1 or 2, got 3"]),
    "constant-without-value": (
        "cbd Main(out y){ block c = Constant(); c.out -> y; }",
        ["1:18: error: 'c' (Constant) requires a value parameter"]),
    "constant-without-value-named-like-a-port": (
        "cbd Main(out c){ block c = Constant(); c.out -> c; }",
        [
            "1:18: error: duplicate name 'c'",
            "1:18: error: 'c' (Constant) requires a value parameter",
        ]),
    "composite-parameters": (
        "cbd S(out z){ block c = Constant(1); c -> z; }\n"
        "cbd Main(out y){ block s = S(2); s.z -> y; }",
        ["2:30: error: composite block 'S' takes no parameters"]),
    "mixed": (
        "cbd Main(out y, z){ block a = Quux(); block n = Negator(); "
        "block c = Constant(weight=2); n.out -> y; c -> n; }",
        [
            "1:79: error: Constant has no parameter 'weight'",
            "1:21: error: unknown block kind 'Quux'",
            "1:60: error: 'c' (Constant) requires a value parameter",
            "1:107: error: link into 'n' must name an input port",
            "1:17: error: output port 'z' has no driver",
            "1:39: error: input port 'in' of 'n' has no driver",
        ]),
}


class TestParse:
    def test_minimal_model(self):
        result = dsl.parse(MINIMAL)
        assert result.ok
        (definition,) = result.model.definitions.values()
        assert definition.name == "Main"
        assert (definition.in_ports, definition.out_ports) == ((), ("y",))
        assert definition.blocks == {"c": BlockDecl("Constant",
                                                     {"value": 9.81})}
        assert definition.links == [Link(("c", "out"), (None, "y"))]

    def test_missing_semicolon_names_position(self):
        result = dsl.parse("cbd Main(out y){ block c = Constant(1)\nc.out -> y; }")
        assert not result.ok
        diagnostic = result.diagnostics[0]
        assert diagnostic.span.line == 2
        assert "';'" in diagnostic.message

    def test_ball_model_has_four_definitions(self, ball_text):
        result = dsl.parse(ball_text)
        assert result.ok
        assert list(result.model.definitions) == [
            "Ball", "CollisionDetector", "ImpulseCalculator", "Main"]

    def test_comments_and_number_forms(self):
        text = """
        // a comment
        cbd Main(out y) {
          block a = Constant(-2.5e-3);  // trailing comment
          block b = Constant(value=.5);
          block s = Adder();
          a.out -> s.in1;
          b.out -> s.in2;
          s.out -> y;
        }
        """
        result = dsl.parse(text)
        assert result.ok
        blocks = result.model.definitions["Main"].blocks
        assert blocks["a"].params == {"value": -2.5e-3}
        assert blocks["b"].params == {"value": 0.5}

    @pytest.mark.parametrize("number, col", [
        ("1e999", 37), ("-1e400", 37), ("value=1e999", 43)])
    def test_number_out_of_range(self, number, col):
        # float() of such a number is infinite, which the printer would
        # write as "inf", which does not parse.
        result = dsl.parse(
            f"cbd Main(out y){{ block c = Constant({number}); c.out -> y; }}")
        value = number.rpartition("=")[2]
        assert [str(d) for d in result.diagnostics] == [
            f"1:{col}: error: number {value!r} is out of range"]

    def test_error_recovery_finds_later_definitions(self):
        text = "cbd Broken(out y){ block ; }\ncbd Fine(out y){ block c = Constant(1); c.out -> y; }"
        result = dsl.parse(text)
        assert not result.ok
        assert "Fine" in result.model.definitions


class TestValidate:
    def load(self, text):
        result = dsl.parse(text)
        assert result.ok, result.diagnostics
        return dsl.validate(result.model)

    def test_ball_model_accepted(self, ball_text):
        model, diagnostics = self.load(ball_text)
        assert model is not None
        assert not diagnostics

    def test_two_links_into_one_input(self):
        model, diagnostics = self.load("""
        cbd Main(out y) {
          block a = Constant(1);
          block b = Constant(2);
          block n = Negator();
          a.out -> n.in;
          b.out -> n.in;
          n.out -> y;
        }
        """)
        assert model is None
        assert any("multiple drivers" in d.message for d in diagnostics)

    def test_recursive_definition(self):
        model, diagnostics = self.load("""
        cbd A(out y) {
          block inner = A();
          inner.y -> y;
        }
        """)
        assert model is None
        assert any("recursive" in d.message for d in diagnostics)

    def test_recursive_chain_names_each_definition(self):
        model, diagnostics = self.load(
            "cbd Main(out y){ block a = A(); a.y -> y; }\n"
            "cbd A(out y){ block b = B(); b.y -> y; }\n"
            "cbd B(out y){ block a = A(); a.y -> y; }"
        )
        assert model is None
        (diagnostic,) = diagnostics
        assert diagnostic.message == "recursive definition chain: A -> B -> A"
        assert (diagnostic.span.line, diagnostic.span.col) == (2, 1)

    def test_recursive_chain_reported_once(self):
        # B instantiates A twice; both instances close the same chain.
        model, diagnostics = self.load(
            "cbd M(out y){ block q = A(); q.y -> y; } "
            "cbd A(out y){ block i = B(); i.y -> y; } "
            "cbd B(out y){ block i = A(); block j = A(); i.y -> y; }"
        )
        assert model is None
        assert [str(d) for d in diagnostics] == [
            "1:42: error: recursive definition chain: A -> B -> A"
        ]

    def test_unknown_kind(self):
        model, diagnostics = self.load(
            "cbd Main(out y){ block c = Quux(); c.out -> y; }"
        )
        assert model is None
        assert any("unknown block kind" in d.message for d in diagnostics)

    def test_undriven_output_port(self):
        model, diagnostics = self.load(
            "cbd Main(out y){ block c = Constant(1); }"
        )
        assert model is None
        assert any("no driver" in d.message for d in diagnostics)

    def test_bad_parameter_name(self):
        model, diagnostics = self.load(
            "cbd Main(out y){ block c = Constant(weight=1); c.out -> y; }"
        )
        assert model is None
        assert any("no parameter" in d.message for d in diagnostics)

    @pytest.mark.parametrize("kind", ["Adder", "Multiplier"])
    def test_variadic_block_needs_two_inputs(self, kind):
        model, diagnostics = self.load(
            f"cbd Main(in u; out y){{ block b = {kind}(); "
            f"u -> b.in1; b.out -> y; }}"
        )
        assert model is None
        (diagnostic,) = diagnostics
        assert diagnostic.message == (
            f"'b' ({kind}) needs inputs in1..inN (N >= 2) fully driven"
        )

    @pytest.mark.parametrize("args, accepted", [
        ("0", True), ("0, 1", True), ("10, order=2", True),
        ("0, 3", False), ("0, order=1.5", False), ("order=0", False),
    ])
    def test_integrator_order_is_one_or_two(self, args, accepted):
        model, diagnostics = self.load(
            f"cbd Main(in u; out y){{ block acc = Integrator({args}); "
            f"u -> acc.in; acc.out -> y; }}"
        )
        assert (model is not None) == accepted
        if not accepted:
            (diagnostic,) = diagnostics
            assert diagnostic.message.startswith(
                "'acc' (Integrator) order must be 1 or 2"
            )

    @pytest.mark.parametrize("text, expected", DIAGNOSED.values(),
                             ids=DIAGNOSED)
    def test_diagnostics_pinned(self, text, expected):
        model, diagnostics = self.load(text)
        assert model is None
        assert [str(d) for d in diagnostics] == expected

    def test_all_violations_reported(self):
        _, diagnostics = self.load("""
        cbd Main(out y, z) {
          block a = Quux();
          block n = Negator();
          n.out -> y;
        }
        """)
        messages = " | ".join(d.message for d in diagnostics)
        assert "unknown block kind" in messages
        assert "has no driver" in messages      # port z
        assert "no driver" in messages          # negator input


def _workload_texts():
    """The model text of each benchmark workload at seed 1, full size."""
    return {workload: make(ROOT, 1, False).text for workload, make
            in perfbench_module("workloads").WORKLOADS.items()}


class TestPrintFixpoint:
    @pytest.mark.parametrize("text", [
        MINIMAL,
        """
        cbd Sub(in u; out y) { block n = Negator(); u -> n.in; n.out -> y; }
        cbd Main(out y) {
          block c = Constant(3.5);
          block s = Sub();
          c.out -> s.u;
          s.y -> y;
        }
        """,
        pytest.param("""
        cbd Main(in u; out y) {
          block acc = Integrator(10, order=2);
          u -> acc.in;
          acc.out -> y;
        }
        """, id="integrator-order-2"),
        pytest.param((MODELS / "step_chain.cbd").read_text(),
                     id="step_chain.cbd"),
        *(pytest.param(text, id=f"workload-{name}")
          for name, text in _workload_texts().items()),
    ])
    def test_print_then_parse_is_identity(self, text):
        model = dsl.load_model(text)
        printed = dsl.print_model(model)
        assert dsl.load_model(printed) == model
        assert dsl.print_model(dsl.load_model(printed)) == printed

    def test_ball_model_fixpoint(self, ball_text):
        self.test_print_then_parse_is_identity(ball_text)

    @pytest.mark.parametrize("sub", [
        # A block named 'block': its links read 'block.in' and 'block.out'.
        Definition("Sub", ("u",), ("y",), {"block": BlockDecl("Negator")},
                   [Link((None, "u"), ("block", "in")),
                    Link(("block", "out"), (None, "y"))]),
        # An input port named 'block': its link reads 'block -> n.in'.
        Definition("Sub", ("block",), ("y",), {"n": BlockDecl("Negator")},
                   [Link((None, "block"), ("n", "in")),
                    Link(("n", "out"), (None, "y"))]),
    ], ids=["block-named-block", "input-port-named-block"])
    def test_a_block_or_input_port_named_block_round_trips(self, sub):
        main = Definition(
            "Main", (), ("y",),
            {"c": BlockDecl("Constant", {"value": 1.0}),
             "k": BlockDecl("Sub")},
            [Link(("c", "out"), ("k", sub.in_ports[0])),
             Link(("k", "y"), (None, "y"))])
        model = Model({"Sub": sub, "Main": main})
        flatten(model, "Main")
        assert dsl.load_model(dsl.print_model(model)) == model

    def test_block_keyword_then_equals_wants_a_block_name(self):
        result = dsl.parse("cbd Main(out y){ block = Constant(1); }")
        assert [str(d) for d in result.diagnostics] == [
            "1:24: error: expected block name, got '='"]


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = random.Random(20260810)
        for _ in range(2000):
            length = rng.randrange(0, 60)
            text = bytes(rng.randrange(0, 256) for _ in range(length))
            result = dsl.parse(text.decode("latin-1"))
            assert isinstance(result.diagnostics, list)

    def test_token_soup_never_crashes(self):
        rng = random.Random(99)
        atoms = ["cbd", "block", "in", "out", "{", "}", "(", ")", ";", ",",
                 ".", "=", "->", "name", "3.5", "-2e9", "//x\n", " "]
        for _ in range(2000):
            text = "".join(rng.choice(atoms)
                           for _ in range(rng.randrange(0, 40)))
            result = dsl.parse(text)
            if result.ok:
                dsl.validate(result.model)

    @pytest.mark.parametrize("name", ["bouncing_ball.cbd", "step_chain.cbd"])
    def test_every_prefix_and_suffix_is_diagnosed_in_the_text(self, name):
        text = (MODELS / name).read_text()
        for cut in range(len(text) + 1):
            for piece in (text[:cut], text[cut:]):
                result = dsl.parse(piece)
                diagnostics = result.diagnostics
                if result.ok:
                    diagnostics = dsl.validate(result.model)[1]
                lines = piece.split("\n")
                for diagnostic in diagnostics:
                    line, col = diagnostic.span
                    assert 1 <= line <= len(lines)
                    assert 1 <= col <= len(lines[line - 1]) + 1


# Pieces of scanner input: comments, blanks, number and identifier forms,
# and non-ASCII digits ("٣" starts a NUMBER, "²" does not).
SCANNER_ALPHABET = ["//", "/", "\r", "\n", " ", "\t", "->", "-", "+", ".",
                    "+.5", "1e5", "e", "3", "x_1", "²", "٣", "@", "(", ")",
                    "{", "}", ";", ",", "="]
# What tokens may leave between them; "\0" marks a token's characters, and
# a comment runs to the end of its line, so it holds no token.
GAPS = re.compile(r"(?:[ \t\r\n\0]|//[^\n\0]*(?=\n|$))*")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SCANNER_ALPHABET), max_size=30).map("".join))
def test_scanner_covers_the_text(text):
    tokens, diagnostics = dsl.tokenize(text)
    *tokens, eof = tokens
    # EOF sits one past the last character.
    assert eof == dsl.Token("EOF", "", dsl.Span(
        text.count("\n") + 1, len(text) - text.rfind("\n")))
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    rest = list(text)
    previous_end = 0
    for token in tokens:
        start = line_starts[token.span.line - 1] + token.span.col - 1
        assert token.text and text.startswith(token.text, start)
        assert start >= previous_end
        previous_end = start + len(token.text)
        rest[start:previous_end] = "\0" * len(token.text)
    assert GAPS.fullmatch("".join(rest))
    errors = [t for t in tokens if t.type == "ERROR"]
    # Of the alphabet, only these start no token ("٣" is a NUMBER).
    assert all(t.text in "/+-²@" for t in errors)
    assert [(d.message, d.span) for d in diagnostics] == [
        (f"unexpected character {t.text!r}", t.span) for t in errors]


@pytest.mark.parametrize("text, eof", [
    ("a //x", "1:6"),
    ("a //x\n", "2:1"),
    ("", "1:1"),
])
def test_eof_sits_one_past_the_text(text, eof):
    tokens, _ = dsl.tokenize(text)
    assert tokens[-1].type == "EOF" and str(tokens[-1].span) == eof


def test_validate_and_flatten_leave_no_cyclic_garbage(ball_text):
    # Garbage held only by reference cycles waits for the cycle collector;
    # with automatic collection off, each call must leave none of it.  A
    # parse that reports a diagnostic keeps the spans it found.
    gc.collect()
    gc.disable()
    try:
        source = dsl.parse(ball_text).model
        assert gc.collect() == 0
        assert not dsl.parse(ball_text.replace(";", "", 1)).ok
        assert gc.collect() == 0
        model, _ = dsl.validate(source)
        assert gc.collect() == 0
        flatten(model, "Main")
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SCANNER_ALPHABET), max_size=30).map("".join))
# At the end of these, findall makes a second, empty match.
@example("")
@example("a //x")
@example("a\n")
def test_scan_and_spans_found_on_demand_match_tokenize(text):
    tokens, _ = dsl.tokenize(text)
    assert dsl.scan(text) == ([token.type for token in tokens],
                              [token.text for token in tokens])
    source = dsl.SourceModel(text=text)
    assert [source.span(i) for i in range(len(tokens))] == \
        [token.span for token in tokens]


def test_spans_are_found_only_for_a_diagnostic(ball_text):
    source = dsl.parse(ball_text).model
    assert dsl.validate(source)[1] == []
    assert "_tokenized" not in vars(source)
    source = dsl.parse("cbd Main(out y){ block c = Quux(); c -> y; }").model
    assert "_tokenized" not in vars(source)
    assert [str(d) for d in dsl.validate(source)[1]] == [
        "1:18: error: unknown block kind 'Quux'"]
    assert "_tokenized" in vars(source)


def _token_pieces(text):
    """``text`` as the text before each token, the tokens' texts and the
    text after the last token."""
    tokens, _ = dsl.tokenize(text)
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    gaps, words, end = [], [], 0
    for token in tokens[:-1]:
        start = line_starts[token.span.line - 1] + token.span.col - 1
        gaps.append(text[end:start])
        words.append(token.text)
        end = start + len(token.text)
    return gaps, words, text[end:]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["bouncing_ball.cbd", "step_chain.cbd"]),
       st.lists(st.tuples(st.booleans(), st.integers(0, 10**4),
                          st.integers(0, 10**4)), min_size=1, max_size=4))
def test_malformed_model_text_is_diagnosed_in_the_text(name, edits):
    # Each edit deletes one token of a bundled model (True) or swaps two.
    gaps, words, tail = _token_pieces((MODELS / name).read_text())
    for delete, i, j in edits:
        i, j = i % len(words), j % len(words)
        if delete:
            words[i] = ""
        else:
            words[i], words[j] = words[j], words[i]
    text = "".join(gap + word for gap, word in zip(gaps, words)) + tail
    try:
        model = dsl.load_model(text)
    except dsl.ModelTextError as err:
        assert err.diagnostics
        lines = text.split("\n")
        for diagnostic in err.diagnostics:
            line, col = diagnostic.span
            assert 1 <= line <= len(lines)
            assert 1 <= col <= len(lines[line - 1]) + 1
    else:
        assert type(model) is Model
