"""Seeded codec fuzzing for the ``repro check`` harness.

Generates random-but-reproducible domain objects — share payloads,
overhear ops, query records and events — and round-trips each through
its flat binary frame (``encode`` / ``decode``).

Equality is judged on canonical re-encoded bytes: the codec is
deterministic over an object's logical state, so ``encode(clone) ==
encode(original)`` iff every field (floats bit-for-bit) survived.

Each round also attacks the frames: every truncation prefix of a
sampled frame must raise :class:`~repro.errors.CodecError`, trailing
garbage must raise, and random byte corruption must either decode or
raise ``CodecError`` — never any other exception (the hostile-bytes
contract from the serving layer, applied to the exchange codec).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import Resolution
from ..experiments.metrics import QueryRecord
from ..geometry import Point, Rect
from ..model import DEFAULT_CATEGORY, POI
from ..p2p.protocol import ShareResponse
from ..shard.messages import OverhearOp
from ..workloads.queries import QueryEvent, QueryKind
from .core import decode, encode
from ..errors import CodecError

__all__ = ["CodecFuzzReport", "run_codec_fuzz"]


@dataclass(slots=True)
class CodecFuzzReport:
    """What one fuzz campaign covered and whether anything diverged."""

    seed: int
    rounds: int
    objects_checked: int = 0
    truncations_rejected: int = 0
    corruptions_tried: int = 0
    elapsed_s: float = 0.0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


# ----------------------------------------------------------------------
# Random object builders (all driven by one Random instance)
# ----------------------------------------------------------------------
_CATEGORIES = (DEFAULT_CATEGORY, "hospital", "café λ")


def _rect(rng: random.Random) -> Rect:
    x = rng.uniform(-500.0, 500.0)
    y = rng.uniform(-500.0, 500.0)
    # Degenerate (zero-extent) rects are legal inputs and must survive.
    w = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 80.0)
    h = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 80.0)
    return Rect(x, y, x + w, y + h)


def _pois(rng: random.Random, n: int) -> tuple[POI, ...]:
    # Now and then a batch names categories, so the POI buffers'
    # category flag and strings are fuzzed too.
    named = rng.random() < 0.2
    return tuple(
        POI(
            rng.randrange(0, 10_000),
            Point(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)),
            rng.choice(_CATEGORIES) if named else DEFAULT_CATEGORY,
        )
        for _ in range(n)
    )


def _payload(rng: random.Random) -> ShareResponse:
    # The cache never stores a degenerate verified region, and a
    # response refuses to carry one.
    regions = (_rect(rng) for _ in range(rng.randrange(0, 6)))
    return ShareResponse(
        peer_id=rng.randrange(0, 1000),
        regions=tuple(r for r in regions if not r.is_degenerate()),
        pois=_pois(rng, rng.randrange(0, 8)),
        # Generation-0 payloads (a host that never shared) are legal.
        generation=0 if rng.random() < 0.2 else rng.randrange(0, 1 << 30),
    )


def _op(rng: random.Random) -> OverhearOp:
    return OverhearOp(
        event_index=rng.randrange(0, 1 << 20),
        target=rng.randrange(0, 1000),
        now=rng.uniform(0.0, 3600.0),
        position=(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)),
        heading=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
        shared=tuple(
            (_rect(rng), _pois(rng, rng.randrange(0, 4)))
            for _ in range(rng.randrange(0, 3))
        ),
    )


def _record(rng: random.Random) -> QueryRecord:
    kind = rng.choice((QueryKind.KNN, QueryKind.WINDOW))
    return QueryRecord(
        time=rng.uniform(0.0, 3600.0),
        host_id=rng.randrange(0, 1000),
        kind=kind,
        resolution=rng.choice(tuple(Resolution)),
        access_latency=rng.uniform(0.0, 100.0),
        tuning_packets=rng.randrange(0, 200),
        buckets_downloaded=rng.randrange(0, 200),
        peer_count=rng.randrange(0, 20),
        k=rng.randrange(0, 32),
        window_area=rng.uniform(0.0, 1e4),
        result_size=rng.randrange(0, 64),
        covered_fraction_missing=rng.random(),
        p2p_drops=rng.randrange(0, 8),
        p2p_retries=rng.randrange(0, 8),
        p2p_deadline_misses=rng.randrange(0, 8),
        recovery_retunes=rng.randrange(0, 8),
        buckets_lost=rng.randrange(0, 8),
    )


def _event(rng: random.Random) -> QueryEvent:
    return QueryEvent(
        time=rng.uniform(0.0, 3600.0),
        host_id=rng.randrange(0, 1000),
        kind=rng.choice((QueryKind.KNN, QueryKind.WINDOW)),
        k=rng.randrange(1, 32),
        window_area=rng.uniform(1.0, 1e4),
        center_offset=(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)),
    )


_BUILDERS = (_payload, _op, _record, _event)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def _attack(rng: random.Random, frame: bytes, report: CodecFuzzReport):
    """Truncation / trailing-garbage / corruption checks on one frame."""
    for cut in sorted(rng.sample(range(len(frame)), min(6, len(frame)))):
        try:
            decode(frame[:cut])
        except CodecError:
            report.truncations_rejected += 1
        else:
            report.mismatches.append(
                f"truncation to {cut}/{len(frame)} bytes decoded cleanly"
            )
    try:
        decode(frame + b"\x00")
    except CodecError:
        report.truncations_rejected += 1
    else:
        report.mismatches.append("frame with trailing byte decoded cleanly")
    corrupt = bytearray(frame)
    for _ in range(3):
        corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
        report.corruptions_tried += 1
        try:
            decode(bytes(corrupt))
        except CodecError:
            pass  # rejection is the expected outcome
        except Exception as exc:  # noqa: BLE001 - the contract under test
            report.mismatches.append(
                f"corrupted frame escaped CodecError: {type(exc).__name__}:"
                f" {exc}"
            )


def run_codec_fuzz(seed: int = 0, rounds: int = 50) -> CodecFuzzReport:
    """Round-trip ``rounds`` batches of random objects."""
    from time import perf_counter

    started = perf_counter()
    rng = random.Random(seed)
    report = CodecFuzzReport(seed=seed, rounds=rounds)
    for round_index in range(rounds):
        for build in _BUILDERS:
            obj = build(rng)
            original = encode(obj)
            again = encode(decode(original))
            if again != original:
                report.mismatches.append(
                    f"round {round_index} seed {seed}:"
                    f" {type(obj).__name__} diverged after the codec"
                    f" round-trip ({len(original)} -> {len(again)} bytes)"
                )
            report.objects_checked += 1
            if round_index % 5 == 0:
                _attack(rng, original, report)
    report.elapsed_s = perf_counter() - started
    return report
