"""Differential fuzz campaigns: production pipelines vs. brute force.

A campaign builds one fully wired :class:`~repro.experiments.
Simulation` from a Table 3 parameter set (area-scaled, explicit POI
world so replays are bit-faithful), streams an interleaved kNN/window
query workload through it, and referees every answer:

* **exact pipelines** (peer-``VERIFIED`` SBNN, on-air kNN, SBWQ and
  on-air window — resolutions that claim exactness) must match the
  brute-force oracle, modulo genuinely tied distances;
* **approximate answers** are held to Lemma 3.2's contract instead of
  equality: the verified prefix is exactly right, every reported rank
  is at or beyond the true rank's distance (the true k-th NN can be
  no farther than the reported one), and every unverified entry
  clears the accepted correctness threshold;
* **cache soundness** and the runtime invariant seams are audited
  periodically, and the metamorphic properties of
  :mod:`repro.check.metamorphic` are spot-checked along the stream.

On any disagreement the campaign shrinks the reproducer — shortest
query-history prefix (binary search), smallest POI subset (chunk
removal), smallest ``k`` — and can write a JSON artifact carrying the
seed, the world digest, both answers, and the minimized event list.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core import Resolution
from ..errors import ReproError
from ..experiments import Simulation
from ..experiments.host import HostQueryResult
from ..faults import FaultConfig
from ..geometry import Point, RectUnion
from ..model import POI
from ..workloads import (
    LA_CITY,
    RIVERSIDE_COUNTY,
    SYNTHETIC_SUBURBIA,
    QueryEvent,
    QueryKind,
    QueryWorkload,
    generate_pois,
    scaled_parameters,
)
from . import invariants
from .invariants import InvariantViolation
from .metamorphic import (
    grid_vs_sweep,
    knn_radius_monotone,
    window_shrink_duality,
)
from .oracles import oracle_knn, oracle_window_ids, world_digest

PARAM_SETS = {
    "la": LA_CITY,
    "suburbia": SYNTHETIC_SUBURBIA,
    "riverside": RIVERSIDE_COUNTY,
}

#: Fault knobs of the default faults-on campaign leg: lossy links,
#: churn, a deadline, bucket corruption — every fault family at once.
DEFAULT_FAULTS = FaultConfig(
    loss_rate=0.15,
    distance_weighted=True,
    churn_rate=0.05,
    peer_timeout=0.5,
    retries=2,
    seed=7,
)

DISTANCE_TOL = 1e-9

# A campaign audits the querying host's cache soundness and the traffic
# counters every SOUNDNESS_EVERY queries, and runs the metamorphic spot
# checks every METAMORPHIC_EVERY.
SOUNDNESS_EVERY = 53
METAMORPHIC_EVERY = 97

EXACT_RESOLUTIONS = (Resolution.VERIFIED, Resolution.BROADCAST)


def _event_payload(event: QueryEvent) -> dict:
    return {
        "time": event.time,
        "host_id": event.host_id,
        "kind": event.kind.value,
        "k": event.k,
        "window_area": event.window_area,
        "center_offset": list(event.center_offset),
    }


def _event_from_payload(payload: dict) -> QueryEvent:
    return QueryEvent(
        time=payload["time"],
        host_id=payload["host_id"],
        kind=QueryKind(payload["kind"]),
        k=payload["k"],
        window_area=payload["window_area"],
        center_offset=tuple(payload["center_offset"]),
    )


@dataclass(slots=True)
class Disagreement:
    """One pipeline-vs-oracle mismatch, with everything to replay it.

    ``history`` is the event prefix that must run before ``event`` to
    reproduce the mismatch (cache warm-up state); after shrinking it
    is the *minimal* such prefix and ``poi_ids`` the minimal world.
    """

    params_name: str
    seed: int
    area_scale: float
    faults: bool
    query_index: int
    kind: str
    resolution: str
    detail: str
    expected: list
    actual: list
    event: dict
    world_digest: str
    history: list[dict] = field(default_factory=list)
    poi_ids: list[int] | None = None
    shrunk: bool = False

    def summary(self) -> str:
        return (
            f"[{self.params_name} seed={self.seed}"
            f" faults={'on' if self.faults else 'off'}]"
            f" query #{self.query_index} ({self.kind},"
            f" {self.resolution}): {self.detail}"
        )


@dataclass(slots=True)
class CampaignReport:
    """Outcome of one (parameter set, fault mode) campaign leg."""

    params_name: str
    seed: int
    area_scale: float
    faults: bool
    queries_run: int
    knn_checked: int
    window_checked: int
    metamorphic_checks: int
    soundness_checks: int
    disagreements: list[Disagreement]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.disagreements


class DifferentialChecker:
    """Referees one simulation's answers against the oracles."""

    def __init__(self, sim: Simulation, min_correctness: float = 0.5):
        self.sim = sim
        self.min_correctness = min_correctness
        self._pois_by_id = {poi.poi_id: poi for poi in sim.pois}

    # ------------------------------------------------------------------
    def _distance(self, poi_id: int, query: Point) -> float:
        poi = self._pois_by_id[poi_id]
        return math.hypot(poi.x - query.x, poi.y - query.y)

    def _same_ranking(
        self, query: Point, expected_ids: Sequence[int], actual_ids: Sequence[int]
    ) -> bool:
        """Id-list equality, tolerant of genuinely tied distances."""
        if list(expected_ids) == list(actual_ids):
            return True
        if len(expected_ids) != len(actual_ids):
            return False
        if set(actual_ids) - set(self._pois_by_id):
            return False
        for exp_id, act_id in zip(expected_ids, actual_ids):
            de = self._distance(exp_id, query)
            da = self._distance(act_id, query)
            if abs(de - da) > DISTANCE_TOL * max(1.0, de, da):
                return False
        return True

    # ------------------------------------------------------------------
    def check_knn(
        self, query: Point, k: int, result: HostQueryResult
    ) -> list[str]:
        """Violations of one kNN answer against the exhaustive oracle."""
        record = result.record
        oracle = oracle_knn(self.sim.pois, query, k)
        oracle_ids = [poi_id for _, poi_id in oracle]
        actual_ids = [poi.poi_id for poi in result.answers]
        if record.resolution in EXACT_RESOLUTIONS:
            if not self._same_ranking(query, oracle_ids, actual_ids):
                return [
                    f"exact kNN answer {actual_ids} != oracle {oracle_ids}"
                ]
            return []
        # APPROXIMATE: Lemma 3.2's contract, not equality.
        violations: list[str] = []
        if len(actual_ids) != min(k, len(self._pois_by_id)):
            violations.append(
                f"approximate answer has {len(actual_ids)} entries,"
                f" expected a full heap of {min(k, len(self._pois_by_id))}"
            )
        verified_ids = [
            e.poi.poi_id for e in result.heap_entries if e.verified
        ]
        if not self._same_ranking(
            query, oracle_ids[: len(verified_ids)], verified_ids
        ):
            violations.append(
                f"verified prefix {verified_ids} != oracle prefix"
                f" {oracle_ids[: len(verified_ids)]} (Lemma 3.1)"
            )
        for rank, entry in enumerate(result.heap_entries):
            if rank >= len(oracle):
                break
            true_distance = oracle[rank][0]
            if entry.distance < true_distance - DISTANCE_TOL * max(
                1.0, true_distance
            ):
                violations.append(
                    f"rank {rank + 1} candidate at {entry.distance} is"
                    f" closer than the true rank distance {true_distance}"
                    " (a reported candidate cannot beat ground truth)"
                )
            if not entry.verified:
                if entry.correctness is None:
                    violations.append(
                        f"unverified rank {rank + 1} accepted without a"
                        " Lemma 3.2 correctness annotation"
                    )
                elif entry.correctness < self.min_correctness:
                    violations.append(
                        f"unverified rank {rank + 1} accepted at"
                        f" correctness {entry.correctness} <"
                        f" threshold {self.min_correctness}"
                    )
        return violations

    def check_window(self, event: QueryEvent, result: HostQueryResult) -> list[str]:
        """Violations of one window answer (always claims exactness)."""
        position = self.sim.host_position(event.host_id)
        window = event.window_for(position, self.sim.params.bounds)
        oracle_ids = oracle_window_ids(self.sim.pois, window)
        actual_ids = sorted(poi.poi_id for poi in result.answers)
        if actual_ids != oracle_ids:
            missing = sorted(set(oracle_ids) - set(actual_ids))
            extra = sorted(set(actual_ids) - set(oracle_ids))
            return [
                f"window answer differs from oracle scan:"
                f" missing {missing}, extra {extra}"
            ]
        return []

    def check_event(
        self, event: QueryEvent, result: HostQueryResult
    ) -> list[str]:
        if event.kind is QueryKind.KNN:
            position = self.sim.host_position(event.host_id)
            return self.check_knn(position, event.k, result)
        return self.check_window(event, result)


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def _build_world(
    params_name: str, seed: int, area_scale: float
) -> tuple[list[POI], object]:
    """POI world + scaled parameters, generated outside the sim's RNG.

    The world is drawn from its own generator so a replay against a
    POI *subset* leaves the simulation's RNG stream — and with it the
    mobility fleet and the query workload — bit-identical.
    """
    params = scaled_parameters(PARAM_SETS[params_name], area_scale=area_scale)
    world_rng = np.random.default_rng((seed, 0xC0FFEE))
    pois = generate_pois(params.bounds, params.poi_number, world_rng)
    return pois, params


def _interleaved_events(
    params, seed: int, count: int
) -> list[QueryEvent]:
    """A deterministic time-merged mix of kNN and window queries."""
    knn = QueryWorkload(params, QueryKind.KNN, np.random.default_rng((seed, 1)))
    window = QueryWorkload(
        params, QueryKind.WINDOW, np.random.default_rng((seed, 2))
    )
    events: list[QueryEvent] = []
    next_knn = next(knn)
    next_window = next(window)
    while len(events) < count:
        if next_knn.time <= next_window.time:
            events.append(next_knn)
            next_knn = next(knn)
        else:
            events.append(next_window)
            next_window = next(window)
    return events


def _replay(
    params,
    pois: Sequence[POI],
    seed: int,
    history: Sequence[QueryEvent],
    event: QueryEvent,
    fault_config: FaultConfig | None,
    predicate: Callable[[DifferentialChecker, QueryEvent, HostQueryResult], list[str]],
    min_correctness: float = 0.5,
) -> list[str]:
    """Fresh world, replay history, fire the suspect query, referee it."""
    sim = Simulation(
        params,
        seed=seed,
        pois=list(pois),
        fault_config=fault_config,
        min_correctness=min_correctness,
    )
    checker = DifferentialChecker(sim, min_correctness=min_correctness)
    for past in history:
        sim.execute_query(past)
    result = sim.execute_query(event)
    return predicate(checker, event, result)


def shrink_disagreement(
    disagreement: Disagreement,
    params,
    pois: Sequence[POI],
    fault_config: FaultConfig | None,
    history: Sequence[QueryEvent],
    event: QueryEvent,
    max_replays: int = 60,
    min_correctness: float = 0.5,
) -> Disagreement:
    """Minimize a reproducer along three axes.

    1. *History* — binary-search the shortest event prefix that still
       reproduces the mismatch (the failing query usually needs only
       the few queries that populated the caches it read).
    2. *World* — greedily drop POI chunks while the mismatch survives
       (delta debugging over the POI list).
    3. *k* — for kNN events, walk ``k`` down.

    Replays are capped at ``max_replays``; whatever minimum was
    reached by then is returned (still a valid reproducer).
    """
    replays = 0

    def reproduces(
        trial_pois: Sequence[POI],
        trial_history: Sequence[QueryEvent],
        trial_event: QueryEvent,
    ) -> bool:
        nonlocal replays
        if replays >= max_replays:
            return False
        replays += 1
        try:
            violations = _replay(
                params,
                trial_pois,
                disagreement.seed,
                trial_history,
                trial_event,
                fault_config,
                lambda checker, ev, res: checker.check_event(ev, res),
                min_correctness=min_correctness,
            )
        except (ReproError, InvariantViolation):
            # A shrunk world can make the pipeline fail outright;
            # that is still the disagreement's footprint.
            return True
        return bool(violations)

    history = list(history)
    pois = list(pois)
    # --- 1. shortest history prefix (suffix-anchored binary search).
    lo, hi = 0, len(history)
    best = history
    while lo < hi:
        mid = (lo + hi) // 2
        candidate = history[len(history) - mid :]
        if reproduces(pois, candidate, event):
            best = candidate
            hi = mid
        else:
            lo = mid + 1
    history = best
    # --- 2. drop POI chunks while the failure survives.
    chunk = max(1, len(pois) // 2)
    while chunk >= 1 and len(pois) > 1:
        removed_any = False
        start = 0
        while start < len(pois):
            candidate = pois[:start] + pois[start + chunk :]
            if candidate and reproduces(candidate, history, event):
                pois = candidate
                removed_any = True
            else:
                start += chunk
        if not removed_any:
            if chunk == 1:
                break
            chunk //= 2
    # --- 3. walk k down for kNN events.
    if event.kind is QueryKind.KNN:
        while event.k > 1:
            candidate = QueryEvent(
                time=event.time,
                host_id=event.host_id,
                kind=event.kind,
                k=event.k - 1,
            )
            if reproduces(pois, history, candidate):
                event = candidate
            else:
                break
    disagreement.history = [_event_payload(e) for e in history]
    disagreement.event = _event_payload(event)
    disagreement.poi_ids = sorted(p.poi_id for p in pois)
    disagreement.world_digest = world_digest(list(pois))
    disagreement.shrunk = True
    return disagreement


def write_artifact(disagreement: Disagreement, directory: str) -> str:
    """Write one JSON reproducer artifact; returns its path."""
    os.makedirs(directory, exist_ok=True)
    name = (
        f"disagreement-{disagreement.params_name}"
        f"-seed{disagreement.seed}"
        f"-{'faults' if disagreement.faults else 'clean'}"
        f"-q{disagreement.query_index}.json"
    )
    path = os.path.join(directory, name)
    payload = {
        "campaign": {
            "params": disagreement.params_name,
            "seed": disagreement.seed,
            "area_scale": disagreement.area_scale,
            "faults": disagreement.faults,
        },
        "world_digest": disagreement.world_digest,
        "query_index": disagreement.query_index,
        "kind": disagreement.kind,
        "resolution": disagreement.resolution,
        "detail": disagreement.detail,
        "expected": disagreement.expected,
        "actual": disagreement.actual,
        "event": disagreement.event,
        "shrunk": disagreement.shrunk,
        "history": disagreement.history,
        "poi_ids": disagreement.poi_ids,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_campaign(
    params_name: str,
    seed: int = 0,
    queries: int = 1000,
    area_scale: float = 0.02,
    fault_config: FaultConfig | None = None,
    min_correctness: float = 0.5,
    max_disagreements: int = 5,
    shrink: bool = True,
    artifact_dir: str | None = None,
) -> CampaignReport:
    """One campaign leg: a parameter set, a seed, faults off or on.

    Runs ``queries`` interleaved kNN/window queries against a freshly
    generated world, refereeing every answer; every
    ``SOUNDNESS_EVERY`` queries the querying host's cache soundness
    and the traffic-counter conservation are audited, and every
    ``METAMORPHIC_EVERY`` queries the metamorphic spot checks run at
    the current query point.  Runtime invariant seams are enabled for
    the whole campaign.
    """
    if params_name not in PARAM_SETS:
        raise ReproError(
            f"unknown parameter set {params_name!r};"
            f" choose from {sorted(PARAM_SETS)}"
        )
    if queries < 1:
        raise ReproError(f"queries must be >= 1, got {queries}")
    started = time.perf_counter()
    pois, params = _build_world(params_name, seed, area_scale)
    sim = Simulation(
        params,
        seed=seed,
        pois=list(pois),
        fault_config=fault_config,
        min_correctness=min_correctness,
    )
    checker = DifferentialChecker(sim, min_correctness=min_correctness)
    events = _interleaved_events(params, seed, queries)
    faults_on = fault_config is not None and fault_config.enabled
    disagreements: list[Disagreement] = []
    knn_checked = window_checked = metamorphic_checks = soundness_checks = 0
    digest = world_digest(pois)
    previous_enabled = invariants.set_check_enabled(True)
    try:
        for index, event in enumerate(events):
            try:
                result = sim.execute_query(event)
                violations = checker.check_event(event, result)
                resolution = result.record.resolution.value
                expected, actual = _answers_for_artifact(
                    checker, event, result
                )
            except InvariantViolation as exc:
                violations = [f"runtime invariant violated: {exc}"]
                resolution = "invariant"
                expected, actual = [], []
            if event.kind is QueryKind.KNN:
                knn_checked += 1
            else:
                window_checked += 1
            if violations:
                disagreement = Disagreement(
                    params_name=params_name,
                    seed=seed,
                    area_scale=area_scale,
                    faults=faults_on,
                    query_index=index,
                    kind=event.kind.value,
                    resolution=resolution,
                    detail="; ".join(violations),
                    expected=expected,
                    actual=actual,
                    event=_event_payload(event),
                    world_digest=digest,
                    history=[_event_payload(e) for e in events[:index]],
                )
                if shrink:
                    disagreement = shrink_disagreement(
                        disagreement,
                        params,
                        pois,
                        fault_config,
                        events[:index],
                        event,
                        min_correctness=min_correctness,
                    )
                if artifact_dir is not None:
                    write_artifact(disagreement, artifact_dir)
                disagreements.append(disagreement)
                if len(disagreements) >= max_disagreements:
                    break
            if (index + 1) % SOUNDNESS_EVERY == 0:
                soundness_checks += 1
                sim.hosts[event.host_id].cache.check_soundness(sim.pois)
                invariants.check_traffic(sim.network)
            if (index + 1) % METAMORPHIC_EVERY == 0:
                metamorphic_checks += 1
                position = sim.host_position(event.host_id)
                spot = knn_radius_monotone(
                    sim.station.client, position, (1, 2, 4, 8)
                )
                cache = sim.hosts[event.host_id].cache
                regions, _ = cache.share()
                if regions:
                    eager = RectUnion(regions)
                    spot += window_shrink_duality(eager, sim.params.bounds)
                    spot += grid_vs_sweep(regions)
                if spot:
                    disagreements.append(
                        Disagreement(
                            params_name=params_name,
                            seed=seed,
                            area_scale=area_scale,
                            faults=faults_on,
                            query_index=index,
                            kind="metamorphic",
                            resolution="metamorphic",
                            detail="; ".join(spot),
                            expected=[],
                            actual=[],
                            event=_event_payload(event),
                            world_digest=digest,
                        )
                    )
    finally:
        invariants.set_check_enabled(previous_enabled)
    return CampaignReport(
        params_name=params_name,
        seed=seed,
        area_scale=area_scale,
        faults=faults_on,
        queries_run=min(len(events), index + 1) if events else 0,
        knn_checked=knn_checked,
        window_checked=window_checked,
        metamorphic_checks=metamorphic_checks,
        soundness_checks=soundness_checks,
        disagreements=disagreements,
        elapsed_s=time.perf_counter() - started,
    )


def _answers_for_artifact(
    checker: DifferentialChecker, event: QueryEvent, result: HostQueryResult
) -> tuple[list, list]:
    """Oracle and pipeline answers in artifact form (id lists)."""
    sim = checker.sim
    position = sim.host_position(event.host_id)
    if event.kind is QueryKind.KNN:
        expected = [
            [round(d, 12), poi_id]
            for d, poi_id in oracle_knn(sim.pois, position, event.k)
        ]
    else:
        window = event.window_for(position, sim.params.bounds)
        expected = list(oracle_window_ids(sim.pois, window))
    actual = [poi.poi_id for poi in result.answers]
    return expected, actual
