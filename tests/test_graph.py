import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cbdsim import dsl
from cbdsim.blocks import KINDS
from cbdsim.engine import (
    Engine,
    ImpulseInLoop,
    NonlinearLoop,
    SimConfig,
    SingularLoop,
    simulate,
)
from cbdsim.graph import (
    BlockDecl,
    Definition,
    DuplicateName,
    Group,
    InvalidField,
    InvalidName,
    InvalidParameter,
    Link,
    Model,
    ModelError,
    MultipleDrivers,
    RecursiveDefinition,
    UnconnectedInput,
    UnknownDefinition,
    UnknownKind,
    check_model,
    dependency_sort,
    flatten,
)

from conftest import MODELS
from strategies import PORTS, diagrams, wirings


def primitive_model() -> Model:
    main = Definition(
        name="Main", out_ports=("y",),
        blocks={
            "c": BlockDecl("Constant", {"value": 2.0}),
            "n": BlockDecl("Negator"),
            "i": BlockDecl("Integrator", {"init": 0.0}),
        },
        links=[
            Link(("c", "out"), ("n", "in")),
            Link(("n", "out"), ("i", "in")),
            Link(("i", "out"), (None, "y")),
        ],
    )
    return Model(definitions={"Main": main})


class TestFlatten:
    def test_ball_flattens_to_primitives(self, ball_model):
        flat = flatten(ball_model, "Main")
        assert len(flat.blocks) == 15
        assert "ball/velInt" in flat.blocks
        assert "ball/posInt" in flat.blocks
        assert flat.blocks["ball/velInt"].kind == "Integrator"
        assert flat.outputs == {
            "y": "ball/posInt", "v": "ball/velInt", "force": "imp/hit",
        }
        # The contact force loops back into the acceleration adder.
        assert flat.blocks["ball/accel"].inputs["in1"] == "imp/hit"

    def test_primitive_only_model_unchanged(self):
        flat = flatten(primitive_model(), "Main")
        assert set(flat.blocks) == {"c", "n", "i"}
        assert flat.blocks["i"].inputs == {"in": "n"}

    def test_unknown_definition(self):
        with pytest.raises(UnknownDefinition):
            flatten(primitive_model(), "Nope")

    def test_unknown_kind(self):
        main = Definition(
            name="Main", out_ports=("y",),
            blocks={"q": BlockDecl("Quux")},
            links=[Link(("q", "out"), (None, "y"))],
        )
        with pytest.raises(UnknownKind):
            flatten(Model(definitions={"Main": main}), "Main")

    def test_recursive_definition(self):
        a = Definition(name="A", out_ports=("y",),
                       blocks={"inner": BlockDecl("A")},
                       links=[Link(("inner", "y"), (None, "y"))])
        with pytest.raises(RecursiveDefinition,
                           match=r"^recursive definition chain: A -> A$"):
            flatten(Model(definitions={"A": a}), "A")

    def test_cyclic_port_wiring(self):
        # a's output port is its input port, which a's output drives.
        model = dsl.load_model(
            "cbd A(in x; out y){ x -> y; }\n"
            "cbd Main(out o){ block a = A(); a.y -> a.x; a.y -> o; }")
        with pytest.raises(UnconnectedInput, match=(
                r"^cyclic port wiring around a\.y in Main$")):
            flatten(model, "Main")

    def test_top_with_input_ports(self):
        model = dsl.load_model(
            "cbd Main(in u, w; out o){ block n = Negator(); u -> n.in; "
            "n -> o; }")
        with pytest.raises(UnconnectedInput, match=(
                r"^top-level definition 'Main' has unbound input ports: u, w$")):
            flatten(model, "Main")

    def test_unconnected_input(self):
        main = Definition(
            name="Main", out_ports=("y",),
            blocks={"n": BlockDecl("Negator")},
            links=[Link(("n", "out"), (None, "y"))],
        )
        with pytest.raises(UnconnectedInput):
            flatten(Model(definitions={"Main": main}), "Main")

    @pytest.mark.parametrize("kind", ["Adder", "Multiplier"])
    def test_variadic_block_needs_two_inputs(self, kind):
        main = Definition(
            name="Main", out_ports=("y",),
            blocks={"c": BlockDecl("Constant", {"value": 1.0}),
                    "b": BlockDecl(kind)},
            links=[Link(("c", "out"), ("b", "in1")),
                   Link(("b", "out"), (None, "y"))],
        )
        with pytest.raises(UnconnectedInput, match=r"in1\.\.inN \(N >= 2\)"):
            flatten(Model(definitions={"Main": main}), "Main")

    def test_multiple_drivers(self):
        main = Definition(
            name="Main", out_ports=("y",),
            blocks={
                "a": BlockDecl("Constant", {"value": 1.0}),
                "b": BlockDecl("Constant", {"value": 2.0}),
                "n": BlockDecl("Negator"),
            },
            links=[
                Link(("a", "out"), ("n", "in")),
                Link(("b", "out"), ("n", "in")),
                Link(("n", "out"), (None, "y")),
            ],
        )
        with pytest.raises(MultipleDrivers):
            flatten(Model(definitions={"Main": main}), "Main")

    @pytest.mark.parametrize("link, extra, message", [
        (Link(("c", "out"), ("k", "bogus")), {},
         r"^Main: 'k' has no input port 'bogus'$"),
        (Link(("c", "out"), (None, "nowhere")), {},
         r"^Main: unknown link target 'nowhere'$"),
        (Link(("c", "out"), ("ghost", "in")), {},
         r"^Main: unknown link target 'ghost'$"),
        (None, {"Spare": Definition(name="Spare", out_ports=("z",),
                                    blocks={"n": BlockDecl("Negator")},
                                    links=[Link(("n", "out"), (None, "z"))])},
         r"^Spare: input port 'in' of 'n' has no driver$"),
        (None, {"Spare": Definition(name="Spare", out_ports=("z",))},
         r"^Spare: output port 'z' has no driver$"),
    ], ids=["composite-port", "undeclared-port", "unknown-block",
            "unread-undriven-input", "unread-undriven-output"])
    def test_rejects_what_validate_rejects(self, link, extra, message):
        sub = Definition(name="Sub", in_ports=("u",), out_ports=("y",),
                         blocks={"n": BlockDecl("Negator")},
                         links=[Link((None, "u"), ("n", "in")),
                                Link(("n", "out"), (None, "y"))])
        main = Definition(
            name="Main", out_ports=("y",),
            blocks={"c": BlockDecl("Constant", {"value": 1.0}),
                    "k": BlockDecl("Sub")},
            links=[Link(("c", "out"), ("k", "u")),
                   Link(("k", "y"), (None, "y"))] + ([link] if link else []),
        )
        with pytest.raises(UnconnectedInput, match=message):
            flatten(Model(definitions={"Main": main, "Sub": sub, **extra}),
                    "Main")


@pytest.mark.parametrize("block, port", [
    ("a", None), ("n", None), ("k", None), ("n", 3),
], ids=["adder", "negator", "composite", "port-not-a-name"])
def test_link_target_without_a_port_name(block, port):
    # The text's bare block name as a link target reaches check_model as a
    # target with port None; a model built in code meets the same rule.
    sub = Definition(name="Sub", in_ports=("u",), out_ports=("y",),
                     links=[Link((None, "u"), (None, "y"))])
    main = Definition(
        name="Main", out_ports=("y",),
        blocks={"c": BlockDecl("Constant", {"value": 1.0}),
                "a": BlockDecl("Adder"), "n": BlockDecl("Negator"),
                "k": BlockDecl("Sub")},
        links=[Link(("c", "out"), ("a", "in1")),
               Link(("c", "out"), ("a", "in2")),
               Link(("a", "out"), ("n", "in")),
               Link(("n", "out"), ("k", "u")),
               Link(("k", "y"), (None, "y")),
               Link(("c", "out"), (block, port))],
    )
    model = Model(definitions={"Main": main, "Sub": sub})
    message = f"link into {block!r} must name an input port"
    assert list(check_model(model)) == [
        (UnconnectedInput, "Main", ("dst", 5), message)]
    with pytest.raises(UnconnectedInput, match=f"^Main: {re.escape(message)}$"):
        flatten(model, "Main")


def _main(**changes) -> Definition:
    """A Main whose Constant ``c`` drives its output ``y``, with
    ``changes`` to its fields."""
    return Definition(**{
        "name": "Main", "out_ports": ("y",),
        "blocks": {"c": BlockDecl("Constant", {"value": 2.0})},
        "links": [Link(("c", "out"), (None, "y"))], **changes})


_SUB = Definition(name="Sub", out_ports=("y",),
                  blocks={"b": BlockDecl("Constant", {"value": 1.0})},
                  links=[Link(("b", "out"), (None, "y"))])


# An int port once made flatten raise TypeError, and a list port made
# check_model raise it where a later rule hashed the name; a block "a/b"
# clashed with the flat path of a's block b, so y read its 2.0 for b's 1.0;
# an output "a,b" wrote trace rows that read_trace refused.
@pytest.mark.parametrize("definitions, definition, where, subject", [
    ({"Main": _main(in_ports=(1,))}, "Main", ("port", 1), "port name 1"),
    ({"Main": _main(out_ports=("y", ["z"]))}, "Main", ("port", ["z"]),
     "port name ['z']"),
    ({"Main": _main(blocks={"k": BlockDecl("Sub")},
                    links=[Link(("k", "y"), (None, "y"))]),
      "Sub": Definition(name="Sub", in_ports=(["u"],), out_ports=("y",),
                        blocks={"b": BlockDecl("Constant", {"value": 1.0})},
                        links=[Link(("b", "out"), (None, "y"))])},
     "Sub", ("port", ["u"]), "port name ['u']"),
    ({"Main": _main(blocks={"a": BlockDecl("Sub"),
                            "a/b": BlockDecl("Constant", {"value": 2.0})},
                    links=[Link(("a", "y"), (None, "y"))]), "Sub": _SUB},
     "Main", ("block", "a/b"), "block name 'a/b'"),
    ({"Main": _main(out_ports=("a,b",),
                    links=[Link(("c", "out"), (None, "a,b"))])},
     "Main", ("port", "a,b"), "port name 'a,b'"),
    ({"Main": _main(), "Sub-1": Definition(name="Sub-1")},
     "Sub-1", None, "definition name 'Sub-1'"),
], ids=["int-port", "list-port", "list-port-of-an-instance", "slash-block",
        "comma-port", "dash-definition"])
def test_every_name_is_a_name(definitions, definition, where, subject):
    model = Model(definitions=definitions)
    message = f"{subject} must match [A-Za-z_][A-Za-z_0-9]*"
    assert list(check_model(model)) == [
        (InvalidName, definition, where, message)]
    prefix = "" if where is None else f"{definition}: "
    with pytest.raises(InvalidName, match=f"^{re.escape(prefix + message)}$"):
        flatten(model, "Main")
    with pytest.raises(dsl.ModelTextError):
        dsl.load_model(dsl.print_model(model))


def test_ports_that_are_not_names_are_reported_with_the_rest():
    # Sub's undriven inputs, one an int, sort in the instance's report.
    sub = Definition(name="Sub", in_ports=(1, "u"), out_ports=("y",),
                     links=[Link((None, "u"), (None, "y"))])
    main = _main(blocks={"k": BlockDecl("Sub")},
                 links=[Link(("k", "y"), (None, "y"))])
    assert list(check_model(Model(definitions={"Main": main, "Sub": sub}))) \
        == [(UnconnectedInput, "Main", ("block", "k"),
             "input port 1 of 'k' has no driver"),
            (UnconnectedInput, "Main", ("block", "k"),
             "input port 'u' of 'k' has no driver"),
            (InvalidName, "Sub", ("port", 1),
             "port name 1 must match [A-Za-z_][A-Za-z_0-9]*")]


_ENDPOINT = "must be a (block name or None, port) pair"


# Each once made check_model and flatten raise a TypeError, AttributeError
# or ValueError.  A link left out (the last flag) drives nothing.
@pytest.mark.parametrize("changes, where, message, link_left_out", [
    ({"links": [Link((["c"], "out"), (None, "y"))]},
     ("src", 0), f"link source (['c'], 'out') {_ENDPOINT}", True),
    ({"links": [Link(("c", "out"), (["y"], "y"))]},
     ("dst", 0), f"link target (['y'], 'y') {_ENDPOINT}", True),
    ({"blocks": {"c": BlockDecl(["Constant"], {"value": 1.0})}},
     ("block", "c"), "block 'c' kind ['Constant'] must be a str", False),
    ({"blocks": {"c": BlockDecl("Constant", [("value", 1)])}},
     ("block", "c"), "block 'c' params [('value', 1)] must be a mapping",
     False),
    ({"links": [Link(("c",), (None, "y"))]},
     ("src", 0), f"link source ('c',) {_ENDPOINT}", True),
    ({"in_ports": ["a"]},
     None, "definition 'Main' in_ports ['a'] must be a tuple", False),
    ({"links": None},
     None, "definition 'Main' links None must be a list or tuple", False),
    ({"links": [(("c", "out"), (None, "y"))]},
     ("src", 0), "link 0 (('c', 'out'), (None, 'y')) must be a Link", True),
    ({"blocks": {"c": ("Constant", {"value": 1})}},
     ("block", "c"), "block 'c' ('Constant', {'value': 1}) must be a "
     "BlockDecl", False),
    ({"blocks": [("c", BlockDecl("Constant", {"value": 1}))]},
     None, "definition 'Main' blocks [('c', BlockDecl(kin...={'value': "
     "1}))] must be a mapping", False),
], ids=["list-source-block", "list-target-block", "list-kind", "pair-params",
        "one-name-endpoint", "list-in-ports", "no-links", "tuple-link",
        "tuple-block", "block-pairs"])
def test_fields_of_the_wrong_type(changes, where, message, link_left_out):
    model = Model(definitions={"Main": _main(**changes)})
    undriven = [(UnconnectedInput, "Main", ("port", "y"),
                 "output port 'y' has no driver")]
    assert list(check_model(model)) == [
        (InvalidField, "Main", where, message)] + undriven * link_left_out
    prefix = "" if where is None else "Main: "
    with pytest.raises(InvalidField, match=f"^{re.escape(prefix + message)}$"):
        flatten(model, "Main")


def _with_block(decl: BlockDecl) -> Model:
    """``Main`` wiring ``decl`` as block ``c`` to its output, beside a
    composite ``Sub``."""
    sub = Definition(
        name="Sub", out_ports=("y",),
        blocks={"k": BlockDecl("Constant", {"value": 1.0})},
        links=[Link(("k", "out"), (None, "y"))],
    )
    port = "y" if decl.kind == "Sub" else "out"
    main = Definition(name="Main", out_ports=("y",), blocks={"c": decl},
                      links=[Link(("c", port), (None, "y"))])
    return Model(definitions={"Main": main, "Sub": sub})


@pytest.mark.parametrize("decl, message", [
    (BlockDecl("Constant"), "'c' (Constant) requires a value parameter"),
    (BlockDecl("Constant", {"value": 1.0, "weight": 2.0}),
     "'c' (Constant) has no parameter 'weight'"),
    (BlockDecl("Sub", {"gain": 2.0}),
     "'c' (Sub) has no parameter 'gain'"),
    (BlockDecl("Constant", {"value": math.inf}),
     "'c' (Constant) parameter 'value' must be finite, got inf"),
    (BlockDecl("Constant", {"value": -math.inf}),
     "'c' (Constant) parameter 'value' must be finite, got -inf"),
    (BlockDecl("Constant", {"value": 10 ** 400}),
     "'c' (Constant) parameter 'value' must be finite, got "
     "100000000000000000...0000000000000000000"),
    (BlockDecl("Constant", {"value": "3"}),
     "'c' (Constant) parameter 'value' must be a number, got '3'"),
    (BlockDecl("Constant", {"value": True}),
     "'c' (Constant) parameter 'value' must be a number, got True"),
])
def test_parameters_of_models_built_in_code(decl, message):
    model = _with_block(decl)
    assert list(check_model(model)) == [
        (InvalidParameter, "Main", ("block", "c"), message)]
    with pytest.raises(InvalidParameter, match=f"^Main: {re.escape(message)}$"):
        simulate(model, "Main", SimConfig(h=0.1, t_end=0.3))


def _negating(name: str, in_ports: tuple, out_ports: tuple,
              links: list) -> Definition:
    return Definition(name=name, in_ports=in_ports, out_ports=out_ports,
                      blocks={"n": BlockDecl("Negator")}, links=links)


@pytest.mark.parametrize("model, where, message", [
    (Model(definitions={"Main": Definition(
        name="Main", out_ports=("y", "y"),
        blocks={"c": BlockDecl("Constant", {"value": 1.0})},
        links=[Link(("c", "out"), (None, "y"))])}),
     ("port", "y"), "duplicate port 'y'"),
    (Model(definitions={"Main": Definition(
        name="Main", out_ports=("y",),
        blocks={"y": BlockDecl("Constant", {"value": 1.0})},
        links=[Link(("y", "out"), (None, "y"))])}),
     ("block", "y"), "duplicate name 'y'"),
    (Model(definitions={"Main": Definition(
        name="Main", in_ports=("x",), out_ports=("x",),
        blocks={"n": BlockDecl("Negator")},
        links=[Link((None, "x"), ("n", "in")),
               Link(("n", "out"), (None, "x"))])}),
     ("port", "x"), "duplicate port 'x'"),
], ids=["repeated-output", "block-named-like-a-port", "input-and-output"])
def test_port_names_of_models_built_in_code(model, where, message):
    # The parser reads these names into the same model, so the rule holds
    # once, in check_model, and validate reports it once.
    assert list(check_model(model)) == [(DuplicateName, "Main", where,
                                         message)]
    with pytest.raises(DuplicateName, match=f"^Main: {re.escape(message)}$"):
        flatten(model, "Main")
    with pytest.raises(dsl.ModelTextError) as excinfo:
        dsl.load_model(dsl.print_model(model))
    assert [d.message for d in excinfo.value.diagnostics] == [message]


@pytest.mark.parametrize("block, param, value", [
    ("gravity", "value", math.nan), ("posInt", "init", math.inf)])
def test_non_finite_parameter_of_a_loaded_model(ball_text, block, param,
                                                value):
    # The parser rejects such numbers; a model changed in code meets the
    # same rule in check_model, and so in flatten.
    model = dsl.load_model(ball_text)
    blocks = model.definitions["Ball"].blocks
    kind = blocks[block].kind
    blocks[block] = BlockDecl(kind, {**blocks[block].params, param: value})
    message = (f"{block!r} ({kind}) parameter {param!r} must be finite, "
               f"got {value!r}")
    assert list(check_model(model)) == [
        (InvalidParameter, "Ball", ("block", block), message)]
    with pytest.raises(InvalidParameter, match=f"^Ball: {re.escape(message)}$"):
        flatten(model, "Main")


@pytest.mark.parametrize("order", [math.inf, math.nan])
def test_non_finite_integrator_order_is_reported_once(order):
    model = primitive_model()
    model.definitions["Main"].blocks["i"] = BlockDecl(
        "Integrator", {"init": 0.0, "order": order})
    assert list(check_model(model)) == [
        (InvalidParameter, "Main", ("block", "i"),
         f"'i' (Integrator) parameter 'order' must be finite, got {order!r}")]


@pytest.mark.parametrize("order", ["2", True])
def test_integrator_order_not_a_number_is_reported_once(order):
    model = primitive_model()
    model.definitions["Main"].blocks["i"] = BlockDecl(
        "Integrator", {"init": 0.0, "order": order})
    assert list(check_model(model)) == [
        (InvalidParameter, "Main", ("block", "i"),
         f"'i' (Integrator) parameter 'order' must be a number, got {order!r}")]


class TestDependencySort:
    def test_ball_schedule_is_acyclic(self, ball_model):
        flat = flatten(ball_model, "Main")
        schedule = dependency_sort(flat)
        assert all(not group.cyclic for group in schedule)
        assert sum(len(g.members) for g in schedule) == len(flat.blocks)

    def test_chain_order(self):
        schedule = dependency_sort(flatten(primitive_model(), "Main"))
        assert [g.members[0] for g in schedule] == ["c", "n", "i"]

    def test_self_feeding_adder_is_single_block_loop(self):
        main = Definition(
            name="Main", out_ports=("y",),
            blocks={
                "one": BlockDecl("Constant", {"value": 1.0}),
                "a": BlockDecl("Adder"),
            },
            links=[
                Link(("a", "out"), ("a", "in1")),
                Link(("one", "out"), ("a", "in2")),
                Link(("a", "out"), (None, "y")),
            ],
        )
        schedule = dependency_sort(flatten(Model(definitions={"Main": main}), "Main"))
        loops = [g for g in schedule if g.cyclic]
        assert len(loops) == 1 and loops[0].members == ("a",)

    def test_phase_one_inputs_always_precede(self, ball_model):
        flat = flatten(ball_model, "Main")
        schedule = dependency_sort(flat)
        seen: set[str] = set()
        for group in schedule:
            for path in group.members:
                block = flat.blocks[path]
                if block.kind not in ("Integrator", "Delay"):
                    for producer in block.inputs.values():
                        assert producer in seen or producer in group.members
            seen.update(group.members)

    @pytest.mark.parametrize("name, top, members", [
        ("bouncing_ball.cbd", "Main", [
            "ball/gravity", "ball/negG", "imp/one", "imp/minus2",
            "ball/velInt", "imp/scaled", "ball/posInt", "det/negY",
            "det/contact", "imp/edge", "imp/negC", "imp/armed", "imp/rising",
            "imp/hit", "ball/accel"]),
        ("step_chain.cbd", "Chain", [
            "rate", "ramp", "sw", "da", "db", "dc", "acc"]),
    ])
    def test_bundled_schedules(self, name, top, members):
        model = dsl.load_model((MODELS / name).read_text())
        assert dependency_sort(flatten(model, top)) == tuple(
            Group((path,), False) for path in members)


@settings(max_examples=200, deadline=None)
@given(st.one_of(diagrams(), diagrams(last="Product")))
def test_drawn_schedules_cover_every_block_in_dependency_order(diagram):
    text, _ = diagram
    flat = flatten(dsl.load_model(text), "Main")
    schedule = dependency_sort(flat)
    group_of = {path: k for k, group in enumerate(schedule)
                for path in group.members}
    assert sorted(group_of) == sorted(flat.blocks)
    assert sum(len(group.members) for group in schedule) == len(flat.blocks)
    # Integrators and Delays read their input one step late.
    for path, block in flat.blocks.items():
        if block.kind not in ("Integrator", "Delay"):
            for producer in block.inputs.values():
                k, j = group_of[producer], group_of[path]
                assert k < j or (k == j and schedule[k].cyclic)


# --- generated diagrams ------------------------------------------------------

def _decl(kind: str) -> BlockDecl:
    return BlockDecl(kind, {"value": 1.0} if kind == "Constant" else {})


def _flat_model(blocks, links) -> Model:
    inputs = {name: wired for name, _, wired in blocks}
    main = Definition(
        name="Main", out_ports=("y",),
        blocks={name: _decl(kind) for name, kind, _ in blocks},
        links=[Link((inputs[name][port], "out"), (name, port))
               for name, port in links]
        + [Link((blocks[0][0], "out"), (None, "y"))],
    )
    return Model(definitions={"Main": main})


def _wrapped_model(blocks, links) -> Model:
    """Each block inside its own composite ``W<name>``, wired through ports."""
    definitions = {}
    for name, kind, wired in blocks:
        definitions[f"W{name}"] = Definition(
            name=f"W{name}", in_ports=tuple(wired), out_ports=("y",),
            blocks={"core": _decl(kind)},
            links=[Link((None, port), ("core", port)) for port in wired]
            + [Link(("core", "out"), (None, "y"))],
        )
    inputs = {name: wired for name, _, wired in blocks}
    definitions["Main"] = Definition(
        name="Main", out_ports=("y",),
        blocks={f"w{name}": BlockDecl(f"W{name}") for name, _, _ in blocks},
        links=[Link((f"w{inputs[name][port]}", "y"), (f"w{name}", port))
               for name, port in links]
        + [Link((f"w{blocks[0][0]}", "y"), (None, "y"))],
    )
    return Model(definitions=definitions)


def _reference_schedule(flat) -> tuple[Group, ...]:
    """The schedule rule by brute force: components from reachability, then
    Kahn's algorithm that re-sorts the ready list before every pop by
    (all members read their input one step late, first member)."""
    paths = list(flat.blocks)
    index = {path: i for i, path in enumerate(paths)}
    succ: list[set[int]] = [set() for _ in paths]
    for path, block in flat.blocks.items():
        if not KINDS[block.kind].previous_input:
            for producer in block.inputs.values():
                succ[index[producer]].add(index[path])

    def reach(i):
        seen, todo = set(), list(succ[i])
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                todo.extend(succ[j])
        return seen

    reach_of = [reach(i) for i in range(len(paths))]
    components, component_of = [], {}
    for i in range(len(paths)):
        if i not in component_of:
            members = sorted({i} | {j for j in reach_of[i] if i in reach_of[j]})
            component_of.update((j, len(components)) for j in members)
            components.append(members)
    preds = [set() for _ in components]
    for i, nexts in enumerate(succ):
        for j in nexts:
            if component_of[i] != component_of[j]:
                preds[component_of[j]].add(component_of[i])

    def key(c):
        late = all(KINDS[flat.blocks[paths[i]].kind].previous_input
                   for i in components[c])
        return late, components[c][0]

    done: list[int] = []
    ready = [c for c in range(len(components)) if not preds[c]]
    while ready:
        ready.sort(key=key)
        done.append(ready.pop(0))
        ready += [c for c in range(len(components)) if c not in done
                  and c not in ready and preds[c] <= set(done)]
    return tuple(
        Group(tuple(paths[i] for i in components[c]),
              len(components[c]) > 1 or components[c][0] in succ[components[c][0]])
        for c in done
    )


@settings(max_examples=200, deadline=None)
@given(wirings())
# A self-looped Adder.
@example(([("b0", "Adder", {"in1": "b0", "in2": "b1", "in3": "b1"}),
           ("b1", "Constant", {})],
          [("b0", "in3"), ("b0", "in1"), ("b0", "in2")]))
# A ring made only of Integrators: no current-step edge, so no loop.
@example(([("b0", "Integrator", {"in": "b2"}),
           ("b1", "Integrator", {"in": "b0"}),
           ("b2", "Integrator", {"in": "b1"})],
          [("b1", "in"), ("b2", "in"), ("b0", "in")]))
# Two loops feeding one reader, which is declared first.
@example(([("b0", "Adder", {"in1": "b3", "in2": "b1", "in3": "b3"}),
           ("b1", "Negator", {"in": "b2"}),
           ("b2", "Negator", {"in": "b1"}),
           ("b3", "Multiplier", {"in1": "b4", "in2": "b1"}),
           ("b4", "Negator", {"in": "b3"})],
          [("b0", "in1"), ("b0", "in2"), ("b0", "in3"), ("b1", "in"),
           ("b2", "in"), ("b3", "in1"), ("b3", "in2"), ("b4", "in")]))
def test_generated_diagrams_flatten_and_schedule_as_wired(diagram):
    blocks, links = diagram
    flat = flatten(_flat_model(blocks, links), "Main")
    wrapped = flatten(_wrapped_model(blocks, links), "Main")
    assert list(flat.blocks) == [name for name, _, _ in blocks]
    assert list(wrapped.blocks) == [f"w{name}/core" for name, _, _ in blocks]
    for name, _, wired in blocks:
        expected = sorted(wired.items())
        assert list(flat.blocks[name].inputs.items()) == expected
        assert list(wrapped.blocks[f"w{name}/core"].inputs.items()) == \
            [(port, f"w{producer}/core") for port, producer in expected]
    schedule = dependency_sort(flat)
    assert schedule == _reference_schedule(flat)
    assert dependency_sort(wrapped) == tuple(
        Group(tuple(f"w{m}/core" for m in g.members), g.cyclic)
        for g in schedule
    )


@st.composite
def miswirings(draw):
    """A wiring from :func:`wirings` as ``(blocks, [(producer, block,
    port)])`` with one link dropped, duplicated or retargeted to any block
    and one of its ports, ``in4`` or ``x``."""
    blocks, links = draw(wirings())
    inputs = {name: wired for name, _, wired in blocks}
    wires = [(inputs[name][port], name, port) for name, port in links]
    if wires:
        i = draw(st.integers(0, len(wires) - 1))
        change = draw(st.sampled_from(["drop", "duplicate", "retarget"]))
        if change == "drop":
            del wires[i]
        elif change == "duplicate":
            wires.insert(draw(st.integers(0, len(wires))), wires[i])
        else:
            name, kind, _ = draw(st.sampled_from(blocks))
            port = draw(st.sampled_from(PORTS[kind] + ("in4", "x")))
            wires[i] = (wires[i][0], name, port)
    return blocks, wires


@settings(max_examples=200, deadline=None)
@given(miswirings())
def test_flatten_accepts_exactly_what_validate_accepts(diagram):
    blocks, wires = diagram
    params = {"Constant": "1"}
    text = "cbd Main(out y) { %s %s %s -> y; }" % (
        " ".join(f"block {name} = {kind}({params.get(kind, '')});"
                 for name, kind, _ in blocks),
        " ".join(f"{producer} -> {name}.{port};"
                 for producer, name, port in wires),
        blocks[0][0],
    )
    parsed = dsl.parse(text)
    assert parsed.ok, parsed.diagnostics
    validated, _ = dsl.validate(parsed.model)
    main = Definition(
        name="Main", out_ports=("y",),
        blocks={name: BlockDecl(kind, {"value": 1.0} if kind == "Constant"
                                else {}) for name, kind, _ in blocks},
        links=[Link((producer, "out"), (name, port))
               for producer, name, port in wires]
        + [Link((blocks[0][0], "out"), (None, "y"))],
    )
    model = Model(definitions={"Main": main})
    try:
        flatten(model, "Main")
    except ModelError:
        flattened = False
    else:
        flattened = True
        # The canonical text of a model that flattens reads back equal.
        assert dsl.load_model(dsl.print_model(model)) == model
    assert flattened == (validated is not None)


FEEDBACK_HALF = """
cbd Main(out x) {
  block half = Constant(0.5);
  block one  = Constant(1);
  block m    = Multiplier();
  block a    = Adder();
  half.out -> m.in1;
  a.out -> m.in2;
  m.out -> a.in1;
  one.out -> a.in2;
  a.out -> x;
}
"""

FEEDBACK_SINGULAR = """
cbd Main(out x) {
  block one = Constant(1);
  block a   = Adder();
  a.out -> a.in1;
  one.out -> a.in2;
  a.out -> x;
}
"""

FEEDBACK_NONLINEAR = """
cbd Main(out x) {
  block one = Constant(1);
  block a   = Adder();
  block inv = Inverter();
  a.out -> inv.in;
  inv.out -> a.in1;
  one.out -> a.in2;
  a.out -> x;
}
"""


class TestAlgebraicLoops:
    def test_half_feedback_solves_to_two(self):
        model = dsl.load_model(FEEDBACK_HALF)
        trace = simulate(model, "Main", SimConfig(h=0.1, t_end=0.3))
        assert all(s.left == pytest.approx(2.0) for s in trace.signals["x"])
        assert all(s.right == pytest.approx(2.0) for s in trace.signals["x"])

    def test_solve_linear_loop_directly(self):
        model = dsl.load_model(FEEDBACK_HALF)
        trace = simulate(model, "Main",
                         SimConfig(h=0.1, t_end=0.3, watch=("m", "a")))
        # The loop members' values as the loop solver finds them.
        for m, a in zip(trace.signals["m"], trace.signals["a"]):
            assert (m.left, m.right) == (pytest.approx(1.0), pytest.approx(1.0))
            assert (a.left, a.right) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_unit_feedback_is_singular(self):
        model = dsl.load_model(FEEDBACK_SINGULAR)
        with pytest.raises(SingularLoop, match=r"^a: algebraic loop system "
                                               r"is singular$"):
            simulate(model, "Main", SimConfig(h=0.1, t_end=0.3))

    def test_inverter_in_loop_is_nonlinear(self):
        model = dsl.load_model(FEEDBACK_NONLINEAR)
        with pytest.raises(NonlinearLoop):
            simulate(model, "Main", SimConfig(h=0.1, t_end=0.3))

    def test_nonlinear_loop_is_rejected_when_the_engine_is_built(self):
        flat = flatten(dsl.load_model(FEEDBACK_NONLINEAR), "Main")
        with pytest.raises(NonlinearLoop, match=r"^inv: Inverter is not "
                                                r"solvable inside an algebraic"):
            Engine(flat, SimConfig(h=0.1, t_end=0.3))

    def test_impulse_entering_loop_is_rejected(self):
        text = """
        cbd Main(out x) {
          block rate = Constant(1);
          block ramp = Integrator(-0.5);
          block sw   = Switch();
          block edge = Derivative();
          block half = Constant(0.5);
          block m    = Multiplier();
          block a    = Adder();
          rate.out -> ramp.in;
          ramp.out -> sw.c;
          sw.out -> edge.in;
          half.out -> m.in1;
          a.out -> m.in2;
          m.out -> a.in1;
          edge.out -> a.in2;
          a.out -> x;
        }
        """
        model = dsl.load_model(text)
        with pytest.raises(ImpulseInLoop):
            simulate(model, "Main", SimConfig(h=0.125, t_end=1.0))
