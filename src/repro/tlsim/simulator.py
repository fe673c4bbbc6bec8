"""Event-driven term-level symbolic simulation.

The simulator assigns an EUFM expression to every signal.  Stepping the
clock evaluates the combinational logic and captures latch inputs.  The
evaluation is *event-driven*: a component is re-evaluated only when one of
its input expressions actually changed since its last evaluation — thanks
to hash-consing, "changed" is a constant-time identity test.  This is the
cone-of-influence optimization the paper describes for TLSim (Sect. 7):
during flushing, only one computation slice is active per step, so only
its cone is re-evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


from ..errors import ReproError
from ..eufm.ast import Expr, Formula, Term
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .circuit import Circuit
from .components import Component, Latch
from .signals import FORMULA, MEMORY, Signal

__all__ = ["Simulator", "SimulationError", "SimulatorStats"]


class SimulationError(ReproError, RuntimeError):
    """A signal was read before being driven or initialized.

    Subclasses ``RuntimeError`` for backward compatibility, but is part of
    the :class:`~repro.errors.ReproError` taxonomy so the campaign runner
    treats simulator failures as structured (non-retryable) outcomes.
    """


@dataclass
class SimulatorStats:
    """Work counters; ``run_diagram`` adds them to its "simulate" span."""

    steps: int = 0
    component_evaluations: int = 0
    components_skipped: int = 0


class Simulator:
    """Symbolic simulator for one :class:`Circuit`."""

    def __init__(self, circuit: Circuit) -> None:
        circuit.freeze()
        self.circuit = circuit
        self.values: Dict[Signal, Expr] = {}
        self.stats = SimulatorStats()
        self._order = circuit.combinational_order()
        self._position = {c: i for i, c in enumerate(self._order)}
        # Last-seen input expressions per component, for change detection.
        self._last_inputs: Dict[Component, tuple] = {}
        self._dirty: Set[Component] = set(self._order)

    # ------------------------------------------------------------------
    # State and input management
    # ------------------------------------------------------------------

    def init_state(self, assignments: Dict[Signal, Expr]) -> None:
        """Set the present-state value of latch outputs (initial state)."""
        state = set(self.circuit.state_signals)
        for signal, expr in assignments.items():
            if signal not in state:
                raise SimulationError(f"{signal.name!r} is not a latch output")
            self._set(signal, expr)

    def set_input(self, signal: Signal, expr: Expr) -> None:
        """Drive a primary input for the upcoming evaluation."""
        if self.circuit.driver_of(signal) is not None:
            raise SimulationError(f"{signal.name!r} is driven by the circuit")
        self._set(signal, expr)

    def set_inputs(self, assignments: Dict[Signal, Expr]) -> None:
        for signal, expr in assignments.items():
            self.set_input(signal, expr)

    def _set(self, signal: Signal, expr: Expr) -> None:
        _check_sort(signal, expr)
        old = self.values.get(signal)
        if old is expr:
            return
        self.values[signal] = expr
        for reader in self.circuit.readers_of(signal):
            if not isinstance(reader, Latch):
                self._dirty.add(reader)

    def peek(self, signal: Signal) -> Expr:
        """Current expression on ``signal`` (after :meth:`settle`)."""
        if signal not in self.values:
            raise SimulationError(f"{signal.name!r} has no value yet")
        return self.values[signal]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def settle(self) -> None:
        """Evaluate combinational logic (event-driven, topological order)."""
        if not self._dirty:
            return
        deadline = current_deadline()
        for component in self._order:
            if component not in self._dirty:
                self.stats.components_skipped += 1
                continue
            self._dirty.discard(component)
            inputs = tuple(self._require(s) for s in component.inputs)
            if self._last_inputs.get(component) == inputs:
                self.stats.components_skipped += 1
                continue
            self._last_inputs[component] = inputs
            self.stats.component_evaluations += 1
            deadline.tick("tlsim")
            outputs = component.evaluate(self.values)
            for signal, expr in outputs.items():
                self._set(signal, expr)

    def step(self) -> None:
        """One clock cycle: settle combinational logic, capture latches."""
        current_deadline().check("tlsim")
        self.settle()
        captured: Dict[Signal, Expr] = {}
        for latch in self.circuit.latches:
            captured[latch.out] = self._require(latch.data)
        for signal, expr in captured.items():
            self._set(signal, expr)
        self.stats.steps += 1
        current_tracer().add("tlsim.cycles", 1)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def _require(self, signal: Signal) -> Expr:
        if signal not in self.values:
            raise SimulationError(
                f"signal {signal.name!r} read before it was driven; "
                "set primary inputs and initial state first"
            )
        return self.values[signal]


def _check_sort(signal: Signal, expr: Expr) -> None:
    if signal.sort == FORMULA:
        if not isinstance(expr, Formula):
            raise SimulationError(
                f"control signal {signal.name!r} needs a formula"
            )
    else:
        if not isinstance(expr, Term):
            raise SimulationError(f"signal {signal.name!r} needs a term")
