"""Named, seeded, benchmarkable workloads for the serving stack.

``repro.scenarios`` sits *above* the serving layers: it imports
``repro.runtime`` and may feed ``repro.cluster``, but nothing below it
imports this package (rule R1).  Importing the package registers every
built-in scenario; list them with :func:`scenario_names`, record one
with ``repro record <name>`` and serve the trace with ``repro replay``
(``--cluster`` for the sharded front door).
"""

from .base import (
    ScenarioInstance,
    ScenarioSpec,
    TimedRequest,
    build_scenario,
    derive_seed,
    get_scenario,
    register_scenario,
    scenario_names,
)

# Importing these modules registers the built-in scenarios.
from . import fig6 as _fig6  # noqa: F401
from . import mobility as _mobility  # noqa: F401
from . import outages as _outages  # noqa: F401
from . import placement as _placement  # noqa: F401
from .mobility import fleet_trace, iter_fleet_trace, streaming_fleet
from .outages import (
    OutageEvent,
    OutageTimeline,
    compile_fault_plan,
    sample_timeline,
)
from .placement import nongrid_scene, optimized_led_layout

__all__ = [
    "ScenarioInstance",
    "ScenarioSpec",
    "TimedRequest",
    "build_scenario",
    "derive_seed",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "fleet_trace",
    "iter_fleet_trace",
    "streaming_fleet",
    "OutageEvent",
    "OutageTimeline",
    "compile_fault_plan",
    "sample_timeline",
    "nongrid_scene",
    "optimized_led_layout",
]
