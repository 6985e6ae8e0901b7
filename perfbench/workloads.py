"""The four benchmark workloads, built only through the public API.

Every workload uses the NYC profile and is deterministic given the seed:
requests come from ``seed`` and the fleet from ``seed + 7919``, exactly as
:func:`repro.experiments.build_workload` derives them.

``prepare`` is the set-up a user pays before a run: trace and fleet
generation, configuration and engine construction.  It returns a
:class:`Prepared` whose ``run()`` is the timed call.
"""

from __future__ import annotations

import dataclasses
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import SimulationConfig
from repro.core.types import PassengerRequest, Taxi
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import (
    ExperimentScale,
    build_workload,
    city_simulation_config,
    make_dispatcher,
)
from repro.geometry import EuclideanDistance
from repro.resilience import DurabilityConfig, DurabilityManager, StabilityAuditor
from repro.simulation import SimulationResult, Simulator
from repro.streaming import StreamingEngine
from repro.trace.profiles import nyc_profile

__all__ = [
    "WORKLOADS", "Prepared", "Workload", "prepare", "prepare_round", "slice_hours", "slice_seed",
]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` selects what the independent checker verifies: ``"nstd"``
    (stable non-sharing matching per frame or epoch) or ``"share"``
    (Algorithm 3 groups and routes).
    """

    name: str
    engine: str  # "cold", "warm-durable", "stream-30s" or "share"
    factor: float
    hours: tuple[float, float] | None
    kind: str
    #: Independent traces per round, each from its own seed derived from
    #: the run's seed (see :func:`prepare_round`).
    slices: int = 1
    #: Equal windows that ``hours`` is cut into; slice ``k`` replays
    #: window ``k % windows`` (see :func:`slice_hours`).
    windows: int = 1
    #: Rounds a run makes even past ``--seconds``, so that per-frame
    #: medians over rounds can outvote one round slowed by the host.
    min_rounds: int = 3

    def scale(self, seed: int) -> ExperimentScale:
        return ExperimentScale(factor=self.factor, seed=seed, hours=self.hours)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's path: full city-day, batch frames, cold NSTD-P.
        Workload("nyc-day-cold", "cold", 1.0, None, "nstd"),
        # Production shape: warm solver, journal + checkpoints, audits.
        # Here and on the streaming day a round takes 9-10 s, so a third
        # one would overrun every run by half.
        Workload("nyc-day-warm-durable", "warm-durable", 1.0, None, "nstd", min_rounds=2),
        # Event queue, zone planning and zone-keyed warm states.
        Workload("nyc-day-stream-30s", "stream-30s", 1.0, None, "nstd", min_rounds=2),
        # Algorithm 3 on Fig. 8's NY 06:00-12:00 slice.  One trace's cost
        # swings by a third from seed to seed (packing work grows with
        # local density), so a round pools thirty-six small independent
        # slices, twelve in each two-hour window of the morning.  One round
        # fills a run; its frames are distinct, so there is no per-frame
        # median to take.
        Workload("nyc-morning-share", "share", 0.05, (6.0, 12.0), "share", slices=36,
                 windows=3, min_rounds=1),
    )
}


@dataclass
class Prepared:
    """A workload ready to run: inputs, configuration and the engine call."""

    workload: Workload
    fleet: list[Taxi]
    requests: list[PassengerRequest]
    sim_config: SimulationConfig
    run: Callable[[], SimulationResult]
    #: Journal/snapshot directory of a durable run, else ``None``.
    durable_dir: Path | None = None


def prepare(workload: Workload, seed: int, scratch: Path) -> Prepared:
    """Generate the inputs and construct the engine (the set-up phase).

    Durable artifacts go to a fresh directory under ``scratch``; the
    caller removes ``scratch`` when the run ends.
    """
    profile = nyc_profile()
    scale = workload.scale(seed)
    sim_config = city_simulation_config(profile.scaled(scale.factor))
    fleet, requests = build_workload(profile, scale)
    oracle = EuclideanDistance()
    durable_dir: Path | None = None
    if workload.engine == "cold":
        dispatcher = NSTDDispatcher(oracle, sim_config.dispatch, optimize_for="passenger")
        engine = Simulator(dispatcher, oracle, sim_config)
    elif workload.engine == "warm-durable":
        durable_dir = Path(tempfile.mkdtemp(prefix="durable-", dir=scratch))
        dispatcher = NSTDDispatcher(
            oracle, sim_config.dispatch, optimize_for="passenger", warm_start=True
        )
        engine = Simulator(
            dispatcher,
            oracle,
            sim_config,
            durability=DurabilityManager(DurabilityConfig(directory=durable_dir)),
            auditor=StabilityAuditor(),
        )
    elif workload.engine == "stream-30s":
        engine = StreamingEngine(oracle, sim_config, epoch_length_s=30.0)
    elif workload.engine == "share":
        # make_dispatcher's default pairing radius is the runner's 2θ.
        dispatcher = make_dispatcher("STD-P", oracle, sim_config.dispatch)
        engine = Simulator(dispatcher, oracle, sim_config)
    else:
        raise ValueError(f"unknown engine {workload.engine!r}")
    return Prepared(
        workload=workload,
        fleet=fleet,
        requests=requests,
        sim_config=sim_config,
        run=lambda: engine.run(fleet, requests),
        durable_dir=durable_dir,
    )


def slice_seed(seed: int, index: int) -> int:
    """Seed of slice ``index`` of a round; slice 0 uses the run's seed."""
    return seed + 104_729 * index


def slice_hours(workload: Workload, index: int) -> tuple[float, float] | None:
    """Hours replayed by slice ``index``: its window of ``workload.hours``."""
    if workload.hours is None or workload.windows == 1:
        return workload.hours
    start, end = workload.hours
    width = (end - start) / workload.windows
    k = index % workload.windows
    return (start + k * width, start + (k + 1) * width)


def prepare_round(workload: Workload, seed: int, scratch: Path) -> list[Prepared]:
    """Set up every slice of one round."""
    return [
        prepare(dataclasses.replace(workload, hours=slice_hours(workload, k), windows=1),
                slice_seed(seed, k), scratch)
        for k in range(workload.slices)
    ]
