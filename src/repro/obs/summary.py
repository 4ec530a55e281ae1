"""Per-phase latency breakdowns over an exported trace.

``repro trace-summary`` renders what this module computes: for every
span name (phase), how many spans ran, what they cost the machine
(wall milliseconds), and what they cost the simulated system (the
``sim_s`` attribute convention of :mod:`repro.obs.trace`).  The
summary also cross-checks the instrumentation: summed phase ``sim_s``
must reproduce the ``access_latency`` recorded on the ``query`` root
spans and, for monitored runs, on the ``continuous.tick`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhaseStats", "TraceSummary", "format_summary", "summarize_spans"]

# Spans that carry a recorded ``access_latency`` for their subtree.
RECORDED = ("query", "continuous.tick")
# The counts a ``core.annotate`` span carries (Lemma 3.2 pass).
ANNOTATE_COUNTS = ("entries", "annotated", "pieces", "pieces_near")
# The region counts a ``cache.insert`` span carries (region upkeep).
CACHE_COUNTS = ("regions", "regions_moved", "regions_shrunk")


@dataclass(slots=True)
class PhaseStats:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    wall_ms: float = 0.0
    sim_s: float = 0.0

    def mean_wall_ms(self) -> float:
        return self.wall_ms / self.count if self.count else 0.0

    def mean_sim_s(self) -> float:
        return self.sim_s / self.count if self.count else 0.0


@dataclass(slots=True)
class TraceSummary:
    """Everything ``repro trace-summary`` prints."""

    phases: dict[str, PhaseStats] = field(default_factory=dict)
    queries: int = 0
    resolutions: dict[str, int] = field(default_factory=dict)
    # Cross-check: simulated seconds claimed by phases vs. recorded on
    # the query roots.  ``coverage`` near 1.0 means the span taxonomy
    # accounts for (essentially) all recorded access latency.
    phase_sim_s: float = 0.0
    recorded_access_latency_s: float = 0.0
    # Summed over the ``core.annotate`` spans: unverified entries seen
    # and annotated, MVR pieces and those near the farthest disc.
    annotate: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(ANNOTATE_COUNTS, 0)
    )
    # Summed over the ``cache.insert`` spans: regions held after the
    # insert, moved since the last settle when it began, and left
    # shrunk by its evictions.
    cache: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(CACHE_COUNTS, 0)
    )

    @property
    def coverage(self) -> float:
        if self.recorded_access_latency_s <= 0.0:
            return 1.0 if self.phase_sim_s == 0.0 else float("inf")
        return self.phase_sim_s / self.recorded_access_latency_s

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "resolutions": dict(sorted(self.resolutions.items())),
            "phase_sim_s": self.phase_sim_s,
            "recorded_access_latency_s": self.recorded_access_latency_s,
            "coverage": self.coverage,
            "annotate": dict(self.annotate),
            "cache": dict(self.cache),
            "phases": {
                name: {
                    "count": stats.count,
                    "wall_ms": stats.wall_ms,
                    "mean_wall_ms": stats.mean_wall_ms(),
                    "sim_s": stats.sim_s,
                    "mean_sim_s": stats.mean_sim_s(),
                }
                for name, stats in sorted(self.phases.items())
            },
        }


def _walk(node: dict, summary: TraceSummary, depth: int) -> None:
    name = node.get("name", "?")
    stats = summary.phases.get(name)
    if stats is None:
        stats = summary.phases[name] = PhaseStats(name)
    stats.count += 1
    stats.wall_ms += float(node.get("wall_ms", 0.0))
    attributes = node.get("attributes") or {}
    if name in RECORDED:
        # A query tree is accounted wherever it sits: as a root in a
        # simulation trace, or nested under a ``serve.request`` root
        # in a per-connection serving-layer trace.  Either way the
        # node carries the recorded total, not a phase share; so does
        # a monitor tick, for the channel time its shared scans took.
        recorded = float(attributes.get("access_latency", 0.0))
        stats.sim_s += recorded
        summary.recorded_access_latency_s += recorded
        if name == "query":
            summary.queries += 1
        resolution = attributes.get("resolution")
        if resolution is not None:
            summary.resolutions[resolution] = (
                summary.resolutions.get(resolution, 0) + 1
            )
    else:
        sim_s = float(attributes.get("sim_s", 0.0))
        stats.sim_s += sim_s
        if depth > 0:
            summary.phase_sim_s += sim_s
        if name == "core.annotate":
            for key in ANNOTATE_COUNTS:
                summary.annotate[key] += int(attributes.get(key, 0))
        elif name == "cache.insert":
            for key in CACHE_COUNTS:
                summary.cache[key] += int(attributes.get(key, 0))
    for child in node.get("children", ()):
        _walk(child, summary, depth + 1)


def summarize_spans(spans: list[dict]) -> TraceSummary:
    """Fold exported span trees into per-phase aggregates."""
    summary = TraceSummary()
    for root in spans:
        _walk(root, summary, depth=0)
    return summary


def format_summary(summary: TraceSummary) -> str:
    """ASCII table: one row per phase, totals and the coverage check."""
    header = (
        f"{'phase':<24} {'count':>8} {'wall ms':>12} {'mean ms':>10}"
        f" {'sim s':>12} {'mean sim s':>11} {'sim %':>7}"
    )
    lines = [header, "-" * len(header)]
    total_sim = summary.phase_sim_s
    # Query roots first, then phases by simulated cost.
    ordered = sorted(
        summary.phases.values(),
        key=lambda s: (s.name != "query", -s.sim_s, s.name),
    )
    for stats in ordered:
        # A recorded total is what the shares are of, not one of them.
        share = (
            "" if stats.name in RECORDED or total_sim <= 0.0
            else f"{100.0 * stats.sim_s / total_sim:6.1f}%"
        )
        lines.append(
            f"{stats.name:<24} {stats.count:>8} {stats.wall_ms:>12.2f}"
            f" {stats.mean_wall_ms():>10.4f} {stats.sim_s:>12.3f}"
            f" {stats.mean_sim_s():>11.4f} {share:>7}"
        )
    lines.append("")
    if summary.queries:
        resolutions = ", ".join(
            f"{name}={count}"
            for name, count in sorted(summary.resolutions.items())
        )
        lines.append(
            f"queries: {summary.queries} ({resolutions})"
        )
    if "core.annotate" in summary.phases:
        counts = summary.annotate
        lines.append(
            f"annotate: {counts['annotated']} of {counts['entries']}"
            f" unverified entries annotated, {counts['pieces_near']} of"
            f" {counts['pieces']} MVR pieces near a disc"
        )
    if "cache.insert" in summary.phases:
        counts = summary.cache
        lines.append(
            f"cache: {counts['regions_moved']} of {counts['regions']} held"
            " regions moved since the last settle,"
            f" {counts['regions_shrunk']} shrunk by evictions"
        )
    lines.append(
        "phase sim latency: "
        f"{summary.phase_sim_s:.3f} s of "
        f"{summary.recorded_access_latency_s:.3f} s recorded "
        f"(coverage {summary.coverage:.4f})"
    )
    return "\n".join(lines)
