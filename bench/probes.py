"""Codec probes: encode/decode replayed over captured traffic.

The process-backend run cannot be shimmed inside its workers, so the
cost of the exchange codec is measured by replay: the traced
in-process ``la-full-cold`` run captures what crossed the shard RPC
surface (share payloads, record batches, migrated hosts) and the wire
run keeps its QUERY/ANSWER messages; ``encode``/``decode`` are then
timed over them, one object at a time.
"""

from __future__ import annotations

from time import perf_counter

from repro.codec import decode, encode, encode_records
from repro.serve.loadgen import query_message
from repro.serve.protocol import HEADER, decode_payload, encode_frame

PROBE_LIMIT = 2000


def _roundtrip(objects, encode_one, decode_one) -> tuple[float, float, float]:
    """Mean (encode us, decode us, bytes) per object."""
    if not objects:
        return 0.0, 0.0, 0.0
    enc = dec = size = 0.0
    for obj in objects:
        t0 = perf_counter()
        blob = encode_one(obj)
        t1 = perf_counter()
        decode_one(blob)
        t2 = perf_counter()
        enc += t1 - t0
        dec += t2 - t1
        size += len(blob)
    n = len(objects)
    return 1e6 * enc / n, 1e6 * dec / n, size / n


def codec_probe(captured: dict[str, list]) -> dict[str, float]:
    flat = lambda key: [x for batch in captured.get(key, []) for x in batch]
    payloads = flat("export_payloads")[:PROBE_LIMIT]
    hosts = flat("take_hosts")[:PROBE_LIMIT]
    batches = [
        [outcome.record for outcome in batch]
        for batch in captured.get("execute_batch", [])
    ]
    enc, dec, size = _roundtrip(payloads, encode, decode)
    _, _, host_bytes = _roundtrip(hosts, encode, decode)
    rec_enc, rec_dec, _ = _roundtrip(batches, encode_records, decode)
    records = sum(len(batch) for batch in batches)
    return {
        "codec.encode_payload_us": enc,
        "codec.decode_payload_us": dec,
        "codec.payload_bytes_mean": size,
        "codec.records_us_per_record": (
            (rec_enc + rec_dec) * len(batches) / records if records else 0.0
        ),
        "codec.migration_bytes_mean": host_bytes,
    }


def frame_probe(events, replies) -> dict[str, dict[str, float]]:
    """Per encoding: mean encode/decode us per QUERY or ANSWER frame."""
    messages = [dict(query_message(e), id=i) for i, e in enumerate(events)]
    messages += [r for r in replies if isinstance(r, dict)]
    messages = messages[:PROBE_LIMIT]
    out = {}
    for encoding in ("binary", "json"):
        enc, dec, size = _roundtrip(
            messages,
            lambda m: encode_frame(m, encoding),
            lambda frame: decode_payload(frame[HEADER.size:], encoding),
        )
        out[encoding] = {"encode_us": enc, "decode_us": dec, "bytes": size}
    return out
