"""Hypothesis strategies for random diagrams, shared by the test modules.

``diagrams`` draws ``.cbd`` model text around an oscillator, for whole
runs; ``wirings`` draws a flat wiring of primitive blocks, for the
flattener and the scheduler.
"""

from hypothesis import strategies as st


# An oscillator pos'' = -9 pos gives conditions that cross zero both ways,
# about twice each over the 2 s runs.
OSCILLATOR = """
  block pos = Integrator({pos0});
  block vel = Integrator({vel0});
  block stiff = Constant(-9);
  block spring = Multiplier();
  vel.out -> pos.in;
  pos.out -> spring.in1;
  stiff.out -> spring.in2;
  spring.out -> vel.in;
"""
BASE_SIGNALS = ("pos", "vel", "spring")
VALUES = (-1.0, -0.5, -0.25, 0.0, 0.3, 1.0)
# Kinds that read their input one step late may close feedback loops.
LATE = ("Delay", "Integrator", "Integrator2")
# Switches and Derivatives are drawn twice as often: together they make
# the jumps and impulses that Delays, Decisions and Integrators pass on.
# A "Product" puts a Switch and two Derivatives ahead of a Multiplier,
# which turns the Switch's edge into an impulse of order 1 there.
# The Inverter is the only kind whose phase 1 raises (DivisionNearZero).
KINDS = ("Switch", "Switch", "Derivative", "Derivative", "Decision",
         "Multiplier", "Adder", "Negator", "Inverter", "Constant", "Loop",
         "Product") + LATE


@st.composite
def diagrams(draw, last=None):
    """Model text and watched block paths of a random small diagram, whose
    last block is of kind ``last`` when given."""
    count = draw(st.integers(min_value=1, max_value=9))
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(count)]
    if last is not None:
        kinds[-1] = last
    names = list(BASE_SIGNALS) + [f"b{i}" for i in range(count)]
    lines = [OSCILLATOR.format(pos0=draw(st.sampled_from((1.0, -0.5))),
                               vel0=draw(st.sampled_from(VALUES)))]
    for i, kind in enumerate(kinds):
        name = f"b{i}"
        pool = names if kind in LATE else names[:len(BASE_SIGNALS) + i]

        def src():
            # Half the inputs chain to the previous block.
            if i and draw(st.booleans()):
                return f"b{i - 1}.out"
            return draw(st.sampled_from(pool)) + ".out"

        value = draw(st.sampled_from(VALUES))
        if kind == "Constant":
            lines.append(f"block {name} = Constant({value!r});")
        elif kind in ("Delay", "Derivative"):
            lines.append(f"block {name} = {kind}({value!r}); "
                         f"{src()} -> {name}.in;")
        elif kind in ("Integrator", "Integrator2"):
            order = 2 if kind == "Integrator2" else 1
            lines.append(f"block {name} = Integrator({value!r}, order={order}); "
                         f"{src()} -> {name}.in;")
        elif kind in ("Switch", "Negator", "Inverter"):
            port = "c" if kind == "Switch" else "in"
            lines.append(f"block {name} = {kind}(); {src()} -> {name}.{port};")
        elif kind in ("Adder", "Multiplier"):
            lines.append(f"block {name} = {kind}(); {src()} -> {name}.in1; "
                         f"{src()} -> {name}.in2;")
        elif kind == "Product":
            late, other = draw(st.permutations(("in1", "in2")))
            lines.append(
                f"block {name}s = Switch(); block {name}d = Derivative(); "
                f"block {name}dd = Derivative(); block {name} = Multiplier(); "
                f"{src()} -> {name}s.c; {name}s.out -> {name}d.in; "
                f"{name}d.out -> {name}dd.in; {name}dd.out -> {name}.{late}; "
                f"{src()} -> {name}.{other};"
            )
        elif kind == "Decision":
            lines.append(f"block {name} = Decision(); {src()} -> {name}.u; "
                         f"{src()} -> {name}.v; {src()} -> {name}.c;")
        else:
            # b = in + 0.5 b: an Adder closed into an algebraic loop.
            lines.append(
                f"block {name} = Adder(); block {name}m = Multiplier(); "
                f"block {name}g = Constant(0.5); {src()} -> {name}.in1; "
                f"{name}m.out -> {name}.in2; {name}.out -> {name}m.in1; "
                f"{name}g.out -> {name}m.in2;"
            )
    lines.append(f"{names[-1]}.out -> y;")
    text = "cbd Main(out y) {\n" + "\n".join(lines) + "\n}\n"
    return text, tuple(names)


# Input ports per kind; Integrator and Delay read their input one step late.
PORTS = {
    "Constant": (), "Negator": ("in",), "Integrator": ("in",),
    "Delay": ("in",), "Derivative": ("in",), "Switch": ("c",),
    "Adder": ("in1", "in2", "in3"), "Multiplier": ("in1", "in2"),
    "Decision": ("u", "v", "c"),
}


@st.composite
def wirings(draw):
    """A random diagram as ``[(name, kind, {port: producer name})]`` and a
    shuffled order for its links; producers may close any loop."""
    count = draw(st.integers(min_value=1, max_value=14))
    names = [f"b{i}" for i in range(count)]
    blocks = []
    for name in names:
        kind = draw(st.sampled_from(sorted(PORTS)))
        inputs = {port: draw(st.sampled_from(names)) for port in PORTS[kind]}
        blocks.append((name, kind, inputs))
    links = [(name, port) for name, _, inputs in blocks for port in inputs]
    return blocks, draw(st.permutations(links))
