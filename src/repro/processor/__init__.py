"""Processor models: the ISA specification, the abstract out-of-order
implementation with a reorder buffer, the abstraction function, defect
injection, and the Burch–Dill correctness formula."""

from .abstraction import flush_range
from .bugs import Bug, BugKind, forwarding_bug
from .correctness import (
    DiagramArtifacts,
    build_correctness_formula,
    run_diagram,
)
from .isa import (
    ALU,
    INSTR_DEST,
    INSTR_OP,
    INSTR_SRC1,
    INSTR_SRC2,
    INSTR_VALID,
    NEXT_PC,
    SpecState,
    fetch_fields,
    spec_step,
    spec_trajectory,
)
from .ooo import (
    MachineState,
    OooProcessor,
    Slot,
    build_ooo_processor,
    regular_step,
)
from .params import ProcessorConfig

__all__ = [
    "flush_range",
    "Bug",
    "BugKind",
    "forwarding_bug",
    "DiagramArtifacts",
    "build_correctness_formula",
    "run_diagram",
    "ALU",
    "INSTR_DEST",
    "INSTR_OP",
    "INSTR_SRC1",
    "INSTR_SRC2",
    "INSTR_VALID",
    "NEXT_PC",
    "SpecState",
    "fetch_fields",
    "spec_step",
    "spec_trajectory",
    "MachineState",
    "OooProcessor",
    "Slot",
    "build_ooo_processor",
    "regular_step",
    "ProcessorConfig",
]
