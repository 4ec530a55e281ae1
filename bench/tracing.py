"""Layer attribution from outside: timing shims around public calls.

A :class:`Recorder` keeps one span per shimmed call — name, start,
end, parent — in parallel lists, in memory, and writes them out as
JSONL when the run ends.  The shims are installed by patching the
public entry point *at its use site* (a class attribute, or the name a
module imported the function under), coarse calls only: per query, per
insert, per union build, never per interval.  A layer's self time is
its spans' duration minus the part their child spans cover.

Nothing here is imported by the program and nothing under ``src/``
changes; spans inside the program are a later issue.
"""

from __future__ import annotations

import json
from importlib import import_module
from time import perf_counter

import numpy as np

ROOT = "experiments.execute_query"

# span name -> [(module, owner class or None, attribute)]
SIM_SHIMS = {
    ROOT: [("repro.experiments.simulator", "Simulation", "execute_query")],
    "experiments.host": [
        ("repro.experiments.host", "MobileHost", "execute_knn"),
        ("repro.experiments.host", "MobileHost", "execute_window"),
    ],
    "p2p.collect": [
        ("repro.p2p.network", "PeerNetwork", "peers_of"),
        ("repro.p2p.network", "PeerNetwork", "peers_within_hops"),
        ("repro.experiments.host", "MobileHost", "share_response"),
        ("repro.experiments.host", "HaloHost", "share_response"),
    ],
    "p2p.update_positions": [
        ("repro.p2p.network", "PeerNetwork", "update_positions"),
    ],
    "mobility.advance": [("repro.mobility.fleet", "WaypointFleet", "advance_to")],
    "cache.insert": [("repro.cache.store", "POICache", "insert_result")],
    "cache.share": [
        ("repro.cache.store", "POICache", "share"),
        ("repro.cache.store", "POICache", "frozen_snapshot"),
    ],
    "core.sbnn": [("repro.experiments.host", None, "sbnn")],
    "core.sbwq": [("repro.experiments.host", None, "sbwq")],
    "core.nnv": [("repro.core.sbnn", None, "nnv")],
    "core.annotate": [("repro.core.sbnn", None, "annotate_heap")],
    "geometry.boundary_distance": [
        ("repro.geometry.slabunion", "SlabUnion", "distance_to_boundary"),
        ("repro.geometry.region", "RectUnion", "distance_to_boundary"),
    ],
    "geometry.window_cover": [
        ("repro.geometry.slabunion", "SlabUnion", "covers_rect"),
        ("repro.geometry.slabunion", "SlabUnion", "subtract_from_rect"),
        ("repro.geometry.region", "RectUnion", "covers_rect"),
        ("repro.geometry.region", "RectUnion", "subtract_from_rect"),
    ],
    "broadcast.onair_knn": [("repro.broadcast.client", "OnAirClient", "knn")],
    "broadcast.onair_window": [
        ("repro.broadcast.client", "OnAirClient", "window"),
    ],
}

# The sharded world: one root span per query inside the shard, the
# coordinator's run_workload on top, RPC surface methods in between.
SHARD_SHIMS = {
    "shard.run_workload": [
        ("repro.shard.sim", "ShardedSimulation", "run_workload"),
    ],
    ROOT: [("repro.shard.worker", "ShardWorld", "execute_event")],
    "shard.begin_epoch": [("repro.shard.worker", "ShardWorld", "begin_epoch")],
    "shard.execute_batch": [
        ("repro.shard.worker", "ShardWorld", "execute_batch"),
    ],
    "shard.exchange": [
        ("repro.shard.worker", "ShardWorld", name)
        for name in (
            "export_payloads", "set_halo_payloads", "apply_ops",
            "take_hosts", "give_hosts",
        )
    ],
}


class Recorder:
    """In-memory span store plus the shims that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.current = -1
        # Counts taken at the same boundaries as the spans.
        self.union_rects_in = 0
        self.evictions = 0
        self.memo_hits = 0
        self._memo_hits_before = 0
        # Return values of the shard RPC surface, for the codec probe.
        self.captured: dict[str, list] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- shims ---------------------------------------------------------
    def wrap(self, name: str, fn, before=None, after=None):
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents
        )

        def shim(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(self.current)
            ends.append(0.0)
            if before is not None:
                before(args)
            self.current = index
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                self.current = parents[index]
            if after is not None:
                after(args, result)
            return result

        return shim

    def patch(self, module: str, owner: str | None, attr: str, name: str,
              before=None, after=None) -> None:
        target = import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = target.__dict__[attr]
        if isinstance(original, classmethod):
            shim = classmethod(
                self.wrap(name, original.__func__, before, after)
            )
        else:
            shim = self.wrap(name, original, before, after)
        setattr(target, attr, shim)
        self._undo.append((target, attr, original))

    def install(self, sharded: bool = False, capture: bool = False) -> None:
        """Patch every layer entry point (and the shard surface)."""
        tables = [SIM_SHIMS] + ([SHARD_SHIMS] if sharded else [])
        for table in tables:
            for name, sites in table.items():
                for module, owner, attr in sites:
                    after = None
                    if capture and name in ("shard.exchange", "shard.execute_batch"):
                        after = self._capture(attr)
                    self.patch(module, owner, attr, name, after=after)
        self._count_evictions()
        self.patch(
            "repro.core.nnv", "MVRMemo", "merged", "core.mvr_merge",
            before=self._memo_before, after=self._memo_after,
        )
        self.patch(
            "repro.geometry.slabunion", "SlabUnion", "from_rects",
            "geometry.union_build", before=self._count_rects,
        )
        self.patch(
            "repro.geometry.region", "RectUnion", "__init__",
            "geometry.union_build", before=self._count_rects,
        )

    def overhead_s(self, calls: int = 20000) -> float:
        """What the shims themselves cost: spans x the cost of one shim.

        The cost of one shim is measured here, on a no-op, as the extra
        wall of a shimmed call over a bare one.
        """
        noop = lambda: None  # noqa: E731
        shim = Recorder().wrap("calibrate", noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            shim()
        t2 = perf_counter()
        return len(self.names) * max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _capture(self, attr: str):
        bucket = self.captured.setdefault(attr, [])

        def after(args, result):
            if result:
                bucket.append(result)

        return after

    def _count_rects(self, args):
        # (cls|self, rects): rects is a list/tuple at every call site
        # except the empty default.
        rects = args[1] if len(args) > 1 else ()
        self.union_rects_in += len(rects)

    def _memo_before(self, args):
        self._memo_hits_before = args[0].hits

    def _memo_after(self, args, result):
        self.memo_hits += args[0].hits - self._memo_hits_before

    def _count_evictions(self) -> None:
        # The cache asks its policy for ``excess`` victims once per
        # eviction batch: counting there costs one call per batch and
        # no span (the time stays inside ``cache.insert``).
        from repro.cache.policy import DirectionDistancePolicy as policy

        original = policy.select_victims

        def select_victims(self_, xs, ys, ids, excess, *rest):
            self.evictions += excess
            return original(self_, xs, ys, ids, excess, *rest)

        policy.select_victims = select_victims
        self._undo.append((policy, "select_victims", original))

    # -- aggregation ---------------------------------------------------
    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span: inclusive seconds, and self seconds (minus children)."""
        total = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(total)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], total[has_parent])
        return total, total - covered

    def summary(self) -> dict:
        """Per span name: self seconds, inclusive seconds, calls."""
        durations, self_s = self.durations()
        names = np.asarray(self.names)
        out = {}
        for name in sorted(set(self.names)):
            mask = names == name
            out[name] = {
                "self_s": float(self_s[mask].sum()),
                "total_s": float(durations[mask].sum()),
                "calls": int(mask.sum()),
            }
        return out

    def root_durations(self) -> np.ndarray:
        return self.durations()[0][np.asarray(self.names) == ROOT]

    def write_jsonl(self, path: str) -> None:
        """One span per line; ``query`` is the root span it belongs to."""
        origin = self.starts[0] if self.starts else 0.0
        query: list[int] = []
        with open(path, "w") as handle:
            for index, name in enumerate(self.names):
                parent = self.parents[index]
                if name == ROOT:
                    qid = index
                elif parent >= 0:
                    qid = query[parent]
                else:
                    qid = -1
                query.append(qid)
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": self.starts[index] - origin,
                            "end": self.ends[index] - origin,
                            "parent": parent,
                            "query": qid,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")


def cache_state(caches) -> dict[str, float]:
    """End-of-run cache occupancy, averaged over the fleet."""
    items = regions = hosts = 0
    for cache in caches:
        hosts += 1
        items += len(cache)
        regions += len(cache.regions)
    return {
        "cache.items_per_host_mean": items / hosts,
        "cache.regions_per_host_mean": regions / hosts,
    }


def layer_metrics(recorder: Recorder, window_s: float) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced window."""
    summary = recorder.summary()

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    roots = recorder.root_durations() * 1000.0
    overhead = recorder.overhead_s()
    builds = calls("geometry.union_build")
    root_total = summary.get(ROOT, {}).get("total_s", 0.0)
    top = summary.get("shard.run_workload")
    # What the event loop itself costs: the window (or the sharded
    # coordinator's run_workload self time) minus the queries in it.
    kernel = top["self_s"] if top else max(0.0, window_s - root_total)
    return {
        "geometry.union_build_s": self_s("geometry.union_build"),
        "geometry.union_build_calls": builds,
        "geometry.union_rects_in_mean": (
            recorder.union_rects_in / builds if builds else 0.0
        ),
        "geometry.boundary_distance_s": self_s("geometry.boundary_distance"),
        "geometry.window_cover_s": self_s("geometry.window_cover"),
        "cache.insert_s": self_s("cache.insert"),
        "cache.insert_calls": calls("cache.insert"),
        "cache.evictions": recorder.evictions,
        "cache.share_s": self_s("cache.share"),
        "core.mvr_merge_s": self_s("core.mvr_merge"),
        # Useful outcomes over attempts: merges answered from the memo.
        "core.mvr_memo_hit_ratio": (
            recorder.memo_hits / calls("core.mvr_merge")
            if calls("core.mvr_merge") else 0.0
        ),
        "core.nnv_s": self_s("core.nnv"),
        "core.sbnn_s": self_s("core.sbnn"),
        "core.annotate_s": self_s("core.annotate"),
        "core.sbwq_s": self_s("core.sbwq"),
        "broadcast.onair_knn_s": self_s("broadcast.onair_knn"),
        "broadcast.onair_window_s": self_s("broadcast.onair_window"),
        "broadcast.scans": (
            calls("broadcast.onair_knn") + calls("broadcast.onair_window")
        ),
        "p2p.collect_s": self_s("p2p.collect"),
        "p2p.update_positions_s": self_s("p2p.update_positions"),
        "mobility.advance_s": self_s("mobility.advance"),
        "mobility.refreshes": calls("mobility.advance"),
        "experiments.execute_query_ms_p50": (
            float(np.percentile(roots, 50)) if roots.size else 0.0
        ),
        "experiments.execute_query_ms_p99": (
            float(np.percentile(roots, 99)) if roots.size else 0.0
        ),
        "experiments.host_self_s": self_s("experiments.host"),
        "sim.kernel_self_s": kernel,
        "shard.begin_epoch_s": self_s("shard.begin_epoch"),
        "shard.execute_batch_s": self_s("shard.execute_batch"),
        "shard.exchange_s": self_s("shard.exchange"),
        "trace.window_s": window_s,
        "trace.overhead_share": (
            overhead / (window_s - overhead) if window_s > overhead else 0.0
        ),
        "trace.unattributed_share": (
            self_s(ROOT) / window_s if window_s > 0 else 0.0
        ),
    }
