"""DenseVLC: a cell-free massive MIMO system with distributed LEDs.

A from-scratch Python reproduction of Beysens et al., CoNEXT 2018.  The
package is organized bottom-up:

- :mod:`repro.geometry` / :mod:`repro.optics` / :mod:`repro.illumination`
  -- rooms, TX grids, LED and photodiode physics, illuminance fields;
- :mod:`repro.channel` -- LOS/NLOS gains, noise, SINR, estimation;
- :mod:`repro.phy` / :mod:`repro.mac` -- Manchester/OOK/Reed-Solomon
  framing, pilots, beamspot scheduling, the controller protocol;
- :mod:`repro.sync` -- clocks, NTP/PTP models, the NLOS-VLC method;
- :mod:`repro.core` -- the power-allocation problem, the optimal solver,
  the ranking heuristic (Algorithm 1) and the SISO/D-MISO baselines;
- :mod:`repro.simulation` -- the discrete-event network simulator;
- :mod:`repro.runtime` -- the batched/cached/parallel allocation-serving
  engine (benchmarked by ``repro record`` + ``repro replay``);
- :mod:`repro.experiments` -- one runner per paper table/figure.

Quickstart::

    from repro.system import simulation_scene
    from repro.geometry import FIG7_RX_POSITIONS
    from repro.core import problem_for_scene, RankingHeuristic

    scene = simulation_scene(FIG7_RX_POSITIONS)
    problem = problem_for_scene(scene, power_budget=1.2)
    allocation = RankingHeuristic(kappa=1.3).solve(problem)
    print(allocation.throughput)          # per-RX bit/s
    print(allocation.system_throughput)   # total bit/s
"""

from . import constants, errors
from .system import (
    ReceiverNode,
    Scene,
    TransmitterNode,
    experimental_scene,
    simulation_scene,
)

__version__ = "1.0.0"

__all__ = [
    "constants",
    "errors",
    "ReceiverNode",
    "Scene",
    "TransmitterNode",
    "experimental_scene",
    "simulation_scene",
    "__version__",
]
