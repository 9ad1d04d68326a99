"""Hierarchical model structure, flattening and schedule computation.

A :class:`Model` is a set of named block-diagram definitions.  Each
definition declares input/output ports, block instances (primitive kinds or
references to other definitions) and directed links.  :func:`check_model`
states every structural rule of the definitions once, for models parsed
from text and built in code alike.  :func:`flatten` raises its first
problem, then splices composite instances away, leaving only primitive
blocks with slash-joined hierarchical names, and :func:`dependency_sort`
orders them into a schedule whose groups are single blocks or strongly
connected components of the current-step dependency graph.  Integrator and
Delay consume their data input one step late and therefore contribute no
current-step edge.
"""

from __future__ import annotations

import heapq
import math
import re
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, NamedTuple

from .blocks import (INTEGRATOR_ORDERS, KINDS, VARIADIC_MIN_INPUTS,
                     input_ports)


class ModelError(ValueError):
    """Base class for structural model errors."""


class UnknownDefinition(ModelError):
    pass


class RecursiveDefinition(ModelError):
    pass


class UnconnectedInput(ModelError):
    pass


class MultipleDrivers(ModelError):
    pass


class UnknownKind(ModelError):
    pass


class InvalidParameter(ModelError):
    pass


class DuplicateName(ModelError):
    """A port name repeated in one definition, or a block named like one."""


class InvalidName(ModelError):
    """A definition, port or block name that is not a ``NAME``."""


class InvalidField(ModelError):
    """A field of a model built in code that is not of its declared type."""


# The grammar's NAME, which every definition, port and block name matches.
NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(NAME)
_VARIADIC_PORT = re.compile(r"in[1-9]\d*")  # a variadic kind's inputs


# An endpoint is (block_name, port_name); block_name None addresses a port
# of the enclosing definition.  A link target whose port is not a name
# (None for a bare block name in the text) breaks a rule of check_model.
Endpoint = tuple[str | None, str]


@dataclass(frozen=True)
class BlockDecl:
    kind: str
    params: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Link:
    src: Endpoint
    dst: Endpoint


@dataclass
class Definition:
    name: str
    in_ports: tuple[str, ...] = ()
    out_ports: tuple[str, ...] = ()
    blocks: dict[str, BlockDecl] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)


@dataclass
class Model:
    definitions: dict[str, Definition] = field(default_factory=dict)

    def definition(self, name: str) -> Definition:
        try:
            return self.definitions[name]
        except KeyError:
            raise UnknownDefinition(f"unknown definition {name!r}") from None


@dataclass
class FlatBlock:
    path: str
    kind: str
    params: dict[str, float]
    # input port name -> path of the producing primitive block
    inputs: dict[str, str]


@dataclass(frozen=True)
class Group:
    members: tuple[str, ...]
    cyclic: bool


@dataclass
class FlatGraph:
    blocks: dict[str, FlatBlock]
    # top-level output port name -> producing block path
    outputs: dict[str, str]


def definition_cycles(roots: Iterable[str],
                      children: Callable[[str], Iterable[str]],
                      ) -> Iterator[list[str]]:
    """Walk the definition references depth first from each root in turn.

    ``children(name)`` gives the definitions that ``name`` instantiates, in
    declaration order.  Yields the chain ``[A, B, ..., A]`` of every
    reference back into the current chain; a definition already walked in
    full is not walked again.  The walk keeps an explicit stack, so it
    leaves no reference cycle behind.
    """
    done: set[str] = set()
    chain: list[str] = []
    pending = [iter(roots)]
    while pending:
        child = next(pending[-1], None)
        if child is None:
            pending.pop()
            if chain:
                done.add(chain.pop())
        elif child in chain:
            yield chain[chain.index(child):] + [child]
        elif child not in done:
            chain.append(child)
            pending.append(iter(children(child)))


class Problem(NamedTuple):
    """One broken structural rule of one definition.

    ``where`` locates it: ``("block", name)``, ``("port", name)``, or
    ``("src", i)`` / ``("dst", i)`` for an endpoint of link ``i``; ``None``
    for the definition as a whole, whose name the message then carries.
    """
    error: type[ModelError]
    definition: str
    where: tuple[str, str | int] | None
    message: str


def check_model(model: Model) -> Iterator[Problem]:
    """Every broken structural rule of every definition, in order: fields
    of the wrong type and names that are not a ``NAME``, repeated port and
    block names, unknown kinds, unknown parameters, parameters that are not
    finite numbers and Integrator orders, link endpoints and drivers,
    undriven ports and block inputs, then recursion.  A model that yields nothing flattens from any
    top definition that declares no inputs, unless its port wiring is
    cyclic."""
    # Every rule after the first reads the definitions as _shaped leaves
    # them, the instances of a definition included.
    shaped = {name: _shaped(name, defn)
              for name, defn in model.definitions.items()}
    definitions = {name: defn for name, (_, defn) in shaped.items()}
    for name, (problems, defn) in shaped.items():
        yield from problems
        yield from _check_definition(name, defn, definitions)
    # A definition instanced twice in one parent is one reference, so each
    # chain is reported once.
    cycles = definition_cycles(definitions, lambda name: dict.fromkeys(
        decl.kind for decl in definitions[name].blocks.values()
        if decl.kind not in KINDS and decl.kind in definitions
    ))
    for cycle in cycles:
        yield Problem(RecursiveDefinition, cycle[0], None,
                      f"recursive definition chain: {' -> '.join(cycle)}")


# The containers of a definition: each field, its types and their name.
_FIELDS = (("in_ports", tuple, "a tuple"), ("out_ports", tuple, "a tuple"),
           ("blocks", Mapping, "a mapping"),
           ("links", (list, tuple), "a list or tuple"))
_ENDPOINT = "a (block name or None, port) pair"
# What _shaped leaves of a block it reports: a block of no kind, which has
# every port and is checked no further.
_SHAPELESS = BlockDecl(None)


def _shaped(name: str, defn: Definition) -> tuple[list[Problem], Definition]:
    """The problems of a definition's field types and names, and the
    definition as the later rules read it: empty if a field of
    :data:`_FIELDS` is of another type, a block that is not a
    :class:`BlockDecl` of a str kind and a mapping of parameters as
    :data:`_SHAPELESS`, a link that is not a :class:`Link` of two
    ``(block name or None, port)`` tuples as None, and without the port
    names that cannot be hashed."""
    def shape(where, what: str, value: object, must: str) -> Problem:
        return Problem(InvalidField, name, where,
                       f"{what} {reprlib.repr(value)} must be {must}")
    problems = [shape(None, f"definition {name!r} {field}", value, what)
                for field, types, what in _FIELDS
                if not isinstance(value := getattr(defn, field), types)]
    if problems:
        return problems, Definition(name)
    ports, blocks = defn.in_ports + defn.out_ports, defn.blocks
    for where, what, item in [(None, "definition", name),
                              *((("port", p), "port", p) for p in ports),
                              *((("block", b), "block", b) for b in blocks)]:
        if not (isinstance(item, str) and _NAME_RE.fullmatch(item)):
            problems.append(Problem(InvalidName, name, where,
                                    f"{what} name {item!r} must match {NAME}"))
    changes: dict = {}
    if not _hashes(ports):
        changes["in_ports"] = tuple(filter(_hashes, defn.in_ports))
        changes["out_ports"] = tuple(filter(_hashes, defn.out_ports))
    for bname, decl in blocks.items():
        if not isinstance(decl, BlockDecl):
            bad = f"block {bname!r}", decl, "a BlockDecl"
        elif not isinstance(decl.kind, str):
            bad = f"block {bname!r} kind", decl.kind, "a str"
        elif not isinstance(decl.params, (dict, Mapping)):
            bad = f"block {bname!r} params", decl.params, "a mapping"
        else:
            continue
        problems.append(shape(("block", bname), *bad))
        changes.setdefault("blocks", dict(blocks))[bname] = _SHAPELESS
    for i, link in enumerate(defn.links):
        if not isinstance(link, Link):
            bad = ("src", i), f"link {i}", link, "a Link"
        elif not _is_endpoint(link.src):
            bad = ("src", i), "link source", link.src, _ENDPOINT
        elif not _is_endpoint(link.dst):
            bad = ("dst", i), "link target", link.dst, _ENDPOINT
        else:
            continue
        problems.append(shape(*bad))
        changes.setdefault("links", list(defn.links))[i] = None
    return problems, replace(defn, **changes) if changes else defn


def _check_definition(name: str, defn: Definition,
                      definitions: dict[str, Definition]) -> Iterator[Problem]:
    blocks = defn.blocks
    out_ports = defn.out_ports
    port_names = defn.in_ports + out_ports
    port_set = set()
    for port in port_names:
        if port in port_set:
            yield Problem(DuplicateName, name, ("port", port),
                          f"duplicate port {port!r}")
        port_set.add(port)
    for bname, decl in blocks.items():
        if bname in port_set:
            yield Problem(DuplicateName, name, ("block", bname),
                          f"duplicate name {bname!r}")
        if decl is _SHAPELESS:  # its shape was reported
            continue
        info = KINDS.get(decl.kind)
        if info is None and decl.kind not in definitions:
            yield Problem(UnknownKind, name, ("block", bname),
                          f"unknown block kind {decl.kind!r}")
            continue
        declared = info.params if info else ()  # a composite takes none
        for param, value in decl.params.items():
            if param not in declared:
                yield Problem(InvalidParameter, name, ("block", bname),
                              f"{bname!r} ({decl.kind}) has no parameter "
                              f"{param!r}")
            elif _not_a_finite_number(value):
                yield Problem(InvalidParameter, name, ("block", bname),
                              f"{bname!r} ({decl.kind}) parameter {param!r} "
                              f"must be {_not_a_finite_number(value)}, "
                              f"got {reprlib.repr(value)}")
        order = decl.params.get("order", 1)
        # An order that is not a finite number was reported as such above.
        if decl.kind == "Integrator" and order not in INTEGRATOR_ORDERS \
                and not _not_a_finite_number(order):
            yield Problem(InvalidParameter, name, ("block", bname),
                          f"{bname!r} (Integrator) order must be 1 or 2, "
                          f"got {order:g}")
        if decl.kind == "Constant" and "value" not in decl.params:
            yield Problem(InvalidParameter, name, ("block", bname),
                          f"{bname!r} (Constant) requires a value parameter")

    # block name (None for the definition's own ports) -> driven ports
    driven: dict[str | None, set[str]] = {}
    for i, link in enumerate(defn.links):
        if link is None:  # its shape was reported
            continue
        block, port = link.src
        if block in blocks:
            if not _has_port(blocks[block].kind, port, "out", definitions):
                yield Problem(UnconnectedInput, name, ("src", i),
                              f"{block!r} has no output port {port!r}")
        elif block is not None or port not in port_names:
            yield Problem(UnconnectedInput, name, ("src", i),
                          f"unknown link source {block or port!r}")
        block, port = link.dst
        if block is None and port in out_ports:
            pass
        elif block is None and port in defn.in_ports:
            yield Problem(UnconnectedInput, name, ("dst", i),
                          f"cannot drive input port {port!r} from inside "
                          f"its definition")
            continue
        elif block not in blocks:
            yield Problem(UnconnectedInput, name, ("dst", i),
                          f"unknown link target {block or port!r}")
            continue
        elif not isinstance(port, str):
            yield Problem(UnconnectedInput, name, ("dst", i),
                          f"link into {block!r} must name an input port")
            continue
        elif not _has_port(blocks[block].kind, port, "in", definitions):
            yield Problem(UnconnectedInput, name, ("dst", i),
                          f"{block!r} has no input port {port!r}")
            continue
        ports = driven.setdefault(block, set())
        if port in ports:
            yield Problem(MultipleDrivers, name, ("dst", i),
                          f"multiple drivers for {_endpoint_str(link.dst)}")
        ports.add(port)

    for port in out_ports:
        if port not in driven.get(None, ()):
            yield Problem(UnconnectedInput, name, ("port", port),
                          f"output port {port!r} has no driver")
    for bname, decl in blocks.items():
        ports = driven.get(bname, set())
        info = KINDS.get(decl.kind)
        if info is not None and info.variadic:
            if len(ports) < VARIADIC_MIN_INPUTS or \
                    ports != set(input_ports(decl.kind, len(ports))):
                yield Problem(UnconnectedInput, name, ("block", bname),
                              f"{bname!r} ({decl.kind}) needs inputs in1..inN "
                              f"(N >= {VARIADIC_MIN_INPUTS}) fully driven")
            continue
        if info is not None:
            declared = info.inputs
        elif decl.kind in definitions:
            declared = definitions[decl.kind].in_ports
        else:
            continue
        if ports.issuperset(declared):
            continue
        # By str: a port that is not a name (reported above) still sorts.
        for port in sorted(set(declared) - ports, key=str):
            yield Problem(UnconnectedInput, name, ("block", bname),
                          f"input port {port!r} of {bname!r} has no driver")


def _hashes(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _is_endpoint(value: object) -> bool:
    return isinstance(value, tuple) and len(value) == 2 and \
        (value[0] is None or isinstance(value[0], str))


def _not_a_finite_number(value: object) -> str:
    """What a parameter value fails to be, "" for a finite int or float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "a number"
    try:
        return "" if math.isfinite(value) else "finite"
    except OverflowError:  # an int beyond the float range
        return "finite"


def _has_port(kind: str, port: str, direction: str,
              definitions: dict[str, Definition]) -> bool:
    """Whether an instance of ``kind`` has the ``direction`` ("in" or
    "out") port ``port``; an instance of an unknown kind has every port."""
    info = KINDS.get(kind)
    if info is None:
        defn = definitions.get(kind)
        return defn is None or port in (
            defn.in_ports if direction == "in" else defn.out_ports
        )
    if direction == "out":
        return port == "out"
    return port in info.inputs or (
        info.variadic and _VARIADIC_PORT.fullmatch(port) is not None
    )


def flatten(model: Model, top: str) -> FlatGraph:
    """Expand composite instances into their primitive blocks.

    Port references are spliced out; the result contains only primitive
    blocks named by their slash-joined instance path, each input wired
    directly to the producing primitive block.  The first problem
    :func:`check_model` finds in any definition is raised.
    """
    top_def = model.definition(top)
    for problem in check_model(model):
        prefix = "" if problem.where is None else f"{problem.definition}: "
        raise problem.error(prefix + problem.message)
    if top_def.in_ports:
        raise UnconnectedInput(
            f"top-level definition {top!r} has unbound input ports: "
            f"{', '.join(top_def.in_ports)}"
        )

    # scope path -> definition; "" is the top scope
    scopes: dict[str, Definition] = {}
    # (scope, driven endpoint) -> driving endpoint in the same scope
    drivers: dict[tuple[str, Endpoint], Endpoint] = {}
    flat_blocks: dict[str, FlatBlock] = {}
    _expand(model, "", top_def, scopes, drivers, flat_blocks)

    def resolve(scope: str, endpoint: Endpoint) -> str:
        """Follow a source endpoint through port splices to a primitive block."""
        trail: set[tuple[str, Endpoint]] = set()
        while True:
            key = (scope, endpoint)
            if key in trail:
                raise UnconnectedInput(
                    f"cyclic port wiring around {_endpoint_str(endpoint)} in "
                    f"{scopes[scope].name}"
                )
            trail.add(key)
            block, port = endpoint
            if block is not None:
                scope = _scope_path(scope, block)
                if scope in flat_blocks:
                    return scope
                endpoint = drivers[(scope, (None, port))]
            elif port in scopes[scope].in_ports:
                scope, _, inst = scope.rpartition("/")
                endpoint = drivers[(scope, (inst, port))]
            else:
                endpoint = drivers[key]

    # Wire every primitive input to its producing primitive block.
    driven_ports: dict[tuple[str, str | None], list[str]] = {}
    for scope, (block, port) in drivers:
        driven_ports.setdefault((scope, block), []).append(port)
    for scope, defn in scopes.items():
        for bname, decl in defn.blocks.items():
            if decl.kind in KINDS:
                inputs = flat_blocks[_scope_path(scope, bname)].inputs
                for port in sorted(driven_ports.get((scope, bname), ())):
                    inputs[port] = resolve(scope, drivers[(scope, (bname, port))])

    outputs = {port: resolve("", (None, port)) for port in top_def.out_ports}
    return FlatGraph(blocks=flat_blocks, outputs=outputs)


def _scope_path(scope: str, name: str) -> str:
    return f"{scope}/{name}" if scope else name


def _expand(model: Model, scope: str, defn: Definition,
            scopes: dict[str, Definition],
            drivers: dict[tuple[str, Endpoint], Endpoint],
            flat_blocks: dict[str, FlatBlock]) -> None:
    """Record the scope, primitive blocks and link drivers of one instance,
    depth first.  A module-level function, unlike a recursive closure, leaves
    no reference cycle, so the tables are freed as soon as flatten returns."""
    scopes[scope] = defn
    for bname, decl in defn.blocks.items():
        path = _scope_path(scope, bname)
        if decl.kind in KINDS:
            flat_blocks[path] = FlatBlock(
                path=path, kind=decl.kind, params=dict(decl.params), inputs={},
            )
        else:
            _expand(model, path, model.definitions[decl.kind], scopes,
                    drivers, flat_blocks)
    for link in defn.links:
        drivers[(scope, link.dst)] = link.src


def _endpoint_str(endpoint: Endpoint) -> str:
    block, port = endpoint
    return port if block is None else f"{block}.{port}"


def dependency_sort(flat: FlatGraph) -> tuple[Group, ...]:
    """Schedule the flat graph by current-step data dependencies.

    Strongly connected components of the dependency graph are emitted as
    single groups in topological order; algebraic loops are reported by the
    ``cyclic`` flag, not rejected here.  Among the ready components, those
    made only of Integrators and Delays go last, and ties go to the first
    member in block order: scheduling integrators and delays after their
    input producers lets an impulse created this step reach them in the
    first propagation sweep.
    """
    paths = list(flat.blocks)
    n = len(paths)
    index_of = {path: i for i, path in enumerate(paths)}
    late = [KINDS[block.kind].previous_input for block in flat.blocks.values()]
    succ: list[list[int]] = [[] for _ in paths]
    for i, block in enumerate(flat.blocks.values()):
        for producer in () if late[i] else block.inputs.values():
            succ[index_of[producer]].append(i)

    # Tarjan's algorithm over a stack of (node, successor iterator) pairs.
    # A visited node stays on ``stack`` until its component is emitted, and
    # a component is emitted after every component it reaches, so the
    # components it feeds are known by then.  Per node: its visit rank and
    # low link, and its component; -1 before it is visited or emitted.
    rank, low, component_of = [-1] * n, [-1] * n, [-1] * n
    visited = 0
    stack: list[int] = []
    # Per component: its heap key (the first member, plus n if every member
    # is late), members and cyclic flag, and the components it feeds.
    components: list[tuple[int, list[int], bool]] = []
    feeds: list[set[int]] = []
    for root in range(n):
        if rank[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            node, successors = work[-1]
            if rank[node] < 0:
                rank[node] = low[node] = visited
                visited += 1
                stack.append(node)
            nxt = next(successors, None)
            if nxt is None:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == rank[node]:
                    members = [stack.pop()]
                    while members[-1] != node:
                        members.append(stack.pop())
                    c = len(components)
                    for m in members:
                        component_of[m] = c
                    out = {component_of[j] for m in members for j in succ[m]}
                    out.discard(c)
                    feeds.append(out)
                    members.sort()
                    components.append((
                        members[0] + n * all(map(late.__getitem__, members)),
                        members, len(members) > 1 or node in succ[node]))
            elif rank[nxt] < 0:
                work.append((nxt, iter(succ[nxt])))
            elif component_of[nxt] < 0:
                low[node] = min(low[node], rank[nxt])

    # Kahn's algorithm; first members are unique, so a key names its
    # component: its first member is the key modulo n.
    waiting = [0] * len(components)
    for out in feeds:
        for c in out:
            waiting[c] += 1
    ready = [key for c, (key, _, _) in enumerate(components)
             if not waiting[c]]
    heapq.heapify(ready)
    groups = []
    while ready:
        c = component_of[heapq.heappop(ready) % n]
        _, members, cyclic = components[c]
        groups.append(Group(tuple(map(paths.__getitem__, members)), cyclic))
        for d in feeds[c]:
            waiting[d] -= 1
            if not waiting[d]:
                heapq.heappush(ready, components[d][0])
    return tuple(groups)
