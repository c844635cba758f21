"""Discrete-event simulation (DES) engine.

A small, dependency-free engine in the style of SimPy: simulation
*processes* are Python generators that ``yield`` :class:`~repro.des.events.Event`
objects and are resumed when those events fire.  On top of the core engine
the subpackage provides the :class:`~repro.des.links.FairShareLink` used
to model contended network links (the mechanism behind Docker's MPI
degradation in Fig. 1 of the paper).
"""

from repro.des.engine import Environment, Interrupt, Process, SimulationError
from repro.des.events import AllOf, AnyOf, Event, Timeout
from repro.des.links import FairShareLink

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "FairShareLink",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]
