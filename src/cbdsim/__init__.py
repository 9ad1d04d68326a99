"""Causal block diagram simulation with first-class discontinuities and impulses."""

from .signals import (
    EMPTY_IMPULSES,
    ImpulseVector,
    InsufficientDerivatives,
    StepSample,
    add_samples,
    extract_order_zero,
    impulses,
    leibniz_product,
    negate_sample,
    sample,
    shift_orders_up,
)
from .blocks import (
    BlockError,
    BothInputsImpulsive,
    DivisionNearZero,
    ImpulseAtSwitchingInstant,
    ImpulseOnCondition,
    ImpulseOnInverter,
    InsufficientHistory,
    heaviside,
)
from .graph import (
    BlockDecl,
    Definition,
    DuplicateName,
    FlatGraph,
    InvalidName,
    InvalidParameter,
    Link,
    Model,
    ModelError,
    MultipleDrivers,
    RecursiveDefinition,
    UnconnectedInput,
    UnknownDefinition,
    dependency_sort,
    flatten,
)
from .engine import (
    EngineError,
    ImpulseEvent,
    ImpulseInLoop,
    MaxOrderExceeded,
    NonlinearLoop,
    SimConfig,
    SimulationError,
    SingularLoop,
    Stream,
    Trace,
    UnstablePropagation,
    ZenoSuspected,
    simulate,
)
from .dsl import ModelTextError, load_model, parse, print_model, validate
from .analysis import (
    CompareReport,
    DiffTable,
    TimeGridMismatch,
    analytic_bouncing_ball,
    compare_traces,
    finite_difference_table,
    halforder_magnitude_estimate,
    max_magnitude,
)

__version__ = "0.1.0"
