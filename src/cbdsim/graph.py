"""Hierarchical model structure, flattening and schedule computation.

A :class:`Model` is a set of named block-diagram definitions.  Each
definition declares input/output ports, block instances (primitive kinds or
references to other definitions) and directed links.  :func:`flatten`
splices composite instances away, leaving only primitive blocks with
slash-joined hierarchical names, and :func:`dependency_sort` orders them
into a schedule whose groups are single blocks or strongly connected
components of the current-step dependency graph.  Integrator and Delay
consume their data input one step late and therefore contribute no
current-step edge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .blocks import KINDS, VARIADIC_MIN_INPUTS, input_ports


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


# An endpoint is (block_name, port_name); block_name None addresses a port
# of the enclosing definition.
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
    schedule: tuple[Group, ...] = ()


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


def check_no_recursion(model: Model, top: str) -> None:
    """Reject definitions that reference themselves directly or transitively,
    and unknown block kinds in the definitions reachable from ``top``."""

    def children(name: str) -> Iterator[str]:
        for decl in model.definition(name).blocks.values():
            if decl.kind not in KINDS:
                if decl.kind not in model.definitions:
                    raise UnknownKind(
                        f"{name}: unknown block kind {decl.kind!r}"
                    )
                yield decl.kind

    for cycle in definition_cycles([top], children):
        raise RecursiveDefinition(
            f"recursive definition chain: {' -> '.join(cycle)}"
        )


def flatten(model: Model, top: str) -> FlatGraph:
    """Expand composite instances into their primitive blocks.

    Port references are spliced out; the result contains only primitive
    blocks named by their slash-joined instance path, each input wired
    directly to the producing primitive block.
    """
    top_def = model.definition(top)
    check_no_recursion(model, top)
    if top_def.in_ports:
        raise UnconnectedInput(
            f"top-level definition {top!r} has unbound input ports: "
            f"{', '.join(top_def.in_ports)}"
        )

    # scope path -> definition name; "" is the top scope
    scopes: dict[str, str] = {}
    # (scope, endpoint) -> (scope, endpoint) of the driver
    drivers: dict[tuple[str, Endpoint], tuple[str, Endpoint]] = {}
    flat_blocks: dict[str, FlatBlock] = {}
    _expand(model, "", top, scopes, drivers, flat_blocks)

    def resolve(scope: str, endpoint: Endpoint) -> str:
        """Follow a source endpoint through port splices to a primitive block."""
        trail: set[tuple[str, Endpoint]] = set()
        while True:
            key = (scope, endpoint)
            if key in trail:
                raise UnconnectedInput(
                    f"cyclic port wiring around {_endpoint_str(endpoint)} in "
                    f"{scopes[scope] or top}"
                )
            trail.add(key)
            block, port = endpoint
            defn = model.definition(scopes[scope])
            if block is not None:
                decl = defn.blocks.get(block)
                if decl is None:
                    raise UnconnectedInput(
                        f"{defn.name}: link references unknown block {block!r}"
                    )
                if decl.kind in KINDS:
                    return _scope_path(scope, block)
                child_scope = _scope_path(scope, block)
                child_def = model.definition(decl.kind)
                if port not in child_def.out_ports:
                    raise UnconnectedInput(
                        f"{defn.name}: {block!r} has no output port {port!r}"
                    )
                inner = drivers.get((child_scope, (None, port)))
                if inner is None:
                    raise UnconnectedInput(
                        f"{decl.kind}: output port {port!r} has no driver"
                    )
                scope, endpoint = child_scope, inner[1]
            # Definition-level port used as a source.
            elif port in defn.in_ports:
                if scope == "":
                    raise UnconnectedInput(f"top-level input port {port!r} is unbound")
                parent, _, inst = scope.rpartition("/")
                outer = drivers.get((parent, (inst, port)))
                if outer is None:
                    raise UnconnectedInput(
                        f"input port {port!r} of instance {inst!r} has no driver"
                    )
                scope, endpoint = parent, outer[1]
            elif port in defn.out_ports:
                inner = drivers.get((scope, (None, port)))
                if inner is None:
                    raise UnconnectedInput(
                        f"{defn.name}: output port {port!r} has no driver"
                    )
                endpoint = inner[1]
            else:
                raise UnconnectedInput(f"{defn.name}: unknown port {port!r}")

    # Wire every primitive input to its producing primitive block.
    driven_ports: dict[tuple[str, str | None], list[str]] = {}
    for scope, (block, port) in drivers:
        driven_ports.setdefault((scope, block), []).append(port)
    for scope, def_name in scopes.items():
        defn = model.definition(def_name)
        for bname, decl in defn.blocks.items():
            if decl.kind not in KINDS:
                continue
            path = _scope_path(scope, bname)
            driven = sorted(driven_ports.get((scope, bname), ()))
            info = KINDS[decl.kind]
            if info.variadic:
                expected = input_ports(decl.kind, len(driven))
                if len(driven) < VARIADIC_MIN_INPUTS or set(driven) != set(expected):
                    raise UnconnectedInput(
                        f"{path}: {decl.kind} needs ports in1..inN (N >= "
                        f"{VARIADIC_MIN_INPUTS}) fully driven, got {driven}"
                    )
            else:
                missing = [p for p in info.inputs if p not in driven]
                extra = [p for p in driven if p not in info.inputs]
                if missing:
                    raise UnconnectedInput(
                        f"{path}: input port(s) {', '.join(missing)} not driven"
                    )
                if extra:
                    raise UnconnectedInput(
                        f"{path}: {decl.kind} has no input port(s) {', '.join(extra)}"
                    )
            for port in driven:
                src_scope, src_endpoint = drivers[(scope, (bname, port))]
                flat_blocks[path].inputs[port] = resolve(src_scope, src_endpoint)

    outputs: dict[str, str] = {}
    for port in top_def.out_ports:
        inner = drivers.get(("", (None, port)))
        if inner is None:
            raise UnconnectedInput(f"{top}: output port {port!r} has no driver")
        outputs[port] = resolve("", inner[1])

    return FlatGraph(blocks=flat_blocks, outputs=outputs)


def _scope_path(scope: str, name: str) -> str:
    return f"{scope}/{name}" if scope else name


def _expand(model: Model, scope: str, def_name: str, scopes: dict[str, str],
            drivers: dict[tuple[str, Endpoint], tuple[str, Endpoint]],
            flat_blocks: dict[str, FlatBlock]) -> None:
    """Record the scope, primitive blocks and link drivers of one instance,
    depth first.  A module-level function, unlike a recursive closure, leaves
    no reference cycle, so the tables are freed as soon as flatten returns."""
    scopes[scope] = def_name
    defn = model.definition(def_name)
    for bname, decl in defn.blocks.items():
        path = _scope_path(scope, bname)
        if decl.kind in KINDS:
            flat_blocks[path] = FlatBlock(
                path=path, kind=decl.kind, params=dict(decl.params), inputs={},
            )
        else:
            _expand(model, path, decl.kind, scopes, drivers, flat_blocks)
    for link in defn.links:
        key = (scope, link.dst)
        if key in drivers:
            raise MultipleDrivers(
                f"{def_name}: multiple drivers for {_endpoint_str(link.dst)}"
            )
        drivers[key] = (scope, link.src)


def _endpoint_str(endpoint: Endpoint) -> str:
    block, port = endpoint
    return port if block is None else f"{block}.{port}"


def dependency_sort(flat: FlatGraph) -> tuple[Group, ...]:
    """Schedule the flat graph by current-step data dependencies.

    Strongly connected components of the dependency graph are emitted as
    single groups in topological order; algebraic loops are reported by the
    ``cyclic`` flag, not rejected here.
    """
    paths = list(flat.blocks)
    index_of = {p: i for i, p in enumerate(paths)}
    succ: list[list[int]] = [[] for _ in paths]
    for path, block in flat.blocks.items():
        if KINDS[block.kind].previous_input:
            continue
        for producer in block.inputs.values():
            succ[index_of[producer]].append(index_of[path])

    # Tarjan's algorithm; components come out in reverse topological order.
    order = [0] * len(paths)
    low = [0] * len(paths)
    on_stack = [False] * len(paths)
    visited = [False] * len(paths)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = [0]

    def strongconnect(start: int) -> None:
        work = [(start, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                visited[node] = True
                order[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for i in range(edge_i, len(succ[node])):
                nxt = succ[node][i]
                if not visited[nxt]:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], order[nxt])
            if advanced:
                continue
            if low[node] == order[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for i in range(len(paths)):
        if not visited[i]:
            strongconnect(i)

    # Order the components with Kahn's algorithm, preferring stateless
    # blocks among the ready set: scheduling integrators and delays after
    # their input producers lets an impulse created this step reach them in
    # the first propagation sweep.
    component_of = {}
    for c, component in enumerate(components):
        for node in component:
            component_of[node] = c
    in_degree = [0] * len(components)
    out_edges: list[set[int]] = [set() for _ in components]
    for node in range(len(paths)):
        for nxt in succ[node]:
            a, b = component_of[node], component_of[nxt]
            if a != b and b not in out_edges[a]:
                out_edges[a].add(b)
                in_degree[b] += 1

    # Heap entries (stateful, first member, component); the first members
    # are unique, so the component never decides a comparison.
    def entry(c: int) -> tuple[bool, int, int]:
        component = components[c]
        stateful = all(
            KINDS[flat.blocks[paths[i]].kind].previous_input for i in component
        )
        return stateful, min(component), c

    ready = [entry(c) for c in range(len(components)) if in_degree[c] == 0]
    heapq.heapify(ready)
    ordered: list[int] = []
    while ready:
        current = heapq.heappop(ready)[2]
        ordered.append(current)
        for nxt in out_edges[current]:
            in_degree[nxt] -= 1
            if in_degree[nxt] == 0:
                heapq.heappush(ready, entry(nxt))

    groups = []
    for c in ordered:
        component = components[c]
        members = tuple(paths[i] for i in sorted(component))
        cyclic = len(component) > 1 or any(
            component[0] == nxt for nxt in succ[component[0]]
        )
        groups.append(Group(members=members, cyclic=cyclic))
    return tuple(groups)
