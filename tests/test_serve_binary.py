"""The negotiated binary wire mode of the serving layer.

First half: the one serializer with no sockets — a binary payload is
the codec frame header in front of the JSON bytes, both encodings obey
one round-trip law, hostile bytes (bad headers, retired tags, hostile
JSON) raise :class:`FrameError`, and the max-frame bound on *outgoing*
frames is the same typed error for both encodings.

Second half: a live server — HELLO negotiation (including rejection of
unknown encodings), hostile binary streams closing only their own
connection, hostile JSON failing a server connection or a client's
pending request with a framing error, oversized ANSWERs degrading to
a typed ERROR with the session intact, and a lockstep load run whose
binary replies are identical to the JSON ones.
"""

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.core import MAGIC, TAG_WIRE_JSON, VERSION
from repro.serve import (
    BaseStationServer,
    FrameError,
    MAX_FRAME,
    MSG_ERROR,
    MSG_HELLO,
    ServeClient,
    ServeConfig,
    encode_frame,
    read_frame,
    run_load,
)
from repro.serve.protocol import (
    ENCODING_BINARY,
    ENCODING_JSON,
    FrameTooLargeError,
    decode_payload,
)
from repro.workloads import SYNTHETIC_SUBURBIA, scaled_parameters

PARAMS = scaled_parameters(SYNTHETIC_SUBURBIA, area_scale=0.02)

BINARY_HEADER = bytes((MAGIC, VERSION, TAG_WIRE_JSON))

# Under MAX_FRAME, yet past what json.loads survives: a nesting that
# exhausts the recursion limit, and an integer literal past CPython's
# 4,300-digit conversion limit.
HOSTILE_JSON = {
    "deep-nesting": b"[" * 200_000,
    "long-integer": b'{"type":"QUERY","k":' + b"9" * 5000 + b"}",
}

WIRE_MESSAGES = {
    "knn-query": {
        "type": "QUERY", "kind": "knn", "host_id": 4, "time": 1.5,
        "k": 3, "id": 17,
    },
    "window-query": {
        "type": "QUERY", "kind": "window", "host_id": 9, "time": 0.0,
        "window_area": 250.0, "center_offset": [1.5, -2.5], "id": 0,
    },
    "answer": {
        "type": "ANSWER", "id": 12, "poi_ids": [5, 3, 99],
        "plan": "verified", "latency_s": 0.25, "tuning_packets": 7,
        "host_id": 2, "kind": "knn",
    },
    "hello": {"type": MSG_HELLO, "client_id": "c", "encoding": "binary"},
    "error": {"type": "ERROR", "code": "framing", "message": "nope"},
}

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.sampled_from((1.0, -0.0)),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)

messages = st.builds(
    lambda mtype, body: {**body, "type": mtype},
    st.text(max_size=8),
    st.dictionaries(st.text(max_size=6), json_values, max_size=5),
)


def run(coroutine, timeout: float = 60.0):
    """Run ``coroutine`` with a bounded wait: a hang is a failure."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


def raw_frame(payload: bytes) -> bytes:
    """``payload`` behind a length prefix, as a peer would send it."""
    return struct.pack(">I", len(payload)) + payload


def typed(value):
    """``value`` with every leaf's type kept: ``1``, ``1.0``, ``True``
    and ``-0.0`` / ``0.0`` all compare apart."""
    if isinstance(value, list):
        return [typed(item) for item in value]
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


# ----------------------------------------------------------------------
# Codec: no sockets
# ----------------------------------------------------------------------
class TestBinaryCodec:
    @pytest.mark.parametrize(
        "message", WIRE_MESSAGES.values(), ids=WIRE_MESSAGES.keys()
    )
    def test_binary_frame_is_header_plus_json(self, message):
        binary = encode_frame(message, ENCODING_BINARY)
        assert binary[4:7] == BINARY_HEADER
        assert binary[7:] == encode_frame(message)[4:]
        assert decode_payload(binary[4:], ENCODING_BINARY) == message

    @settings(max_examples=80, deadline=None)
    @given(messages)
    def test_message_roundtrip_law(self, message):
        for encoding in (ENCODING_JSON, ENCODING_BINARY):
            clone = decode_payload(encode_frame(message, encoding)[4:], encoding)
            assert clone == message
            assert typed(clone) == typed(message)

    def test_int_float_distinction_survives(self):
        message = {"type": "X", "int": 1, "float": 1.0}
        clone = decode_payload(
            encode_frame(message, ENCODING_BINARY)[4:], ENCODING_BINARY
        )
        assert type(clone["int"]) is int
        assert type(clone["float"]) is float

    def test_hostile_bytes_raise_frame_error(self):
        for payload in (
            b"",
            b"\x00",
            b"not a frame at all",
            BINARY_HEADER,  # a header with no JSON behind it
            bytes((MAGIC, 9, TAG_WIRE_JSON)) + b'{"type":"X"}',  # version
            encode_frame({"type": "X"}, ENCODING_BINARY)[4:] + b"\x00",
            *(  # retired tags: the value tree, struct QUERY and ANSWER
                bytes((MAGIC, VERSION, tag)) + b'{"type":"QUERY"}'
                for tag in (0x20, 0x21, 0x22)
            ),
        ):
            with pytest.raises(FrameError):
                decode_payload(payload, ENCODING_BINARY)

    @pytest.mark.parametrize("hostile", HOSTILE_JSON)
    def test_hostile_json_raises_frame_error(self, hostile):
        with pytest.raises(FrameError, match="not valid JSON"):
            decode_payload(HOSTILE_JSON[hostile], ENCODING_JSON)
        with pytest.raises(FrameError, match="not valid JSON"):
            decode_payload(
                BINARY_HEADER + HOSTILE_JSON[hostile], ENCODING_BINARY
            )

    def test_binary_payload_must_be_typed_object(self):
        # A frame holding a non-object, and an object without a string
        # "type", are both protocol violations.
        for value in ([1, 2, 3], {"k": 1}, {"type": 7}):
            with pytest.raises(FrameError):
                decode_payload(
                    BINARY_HEADER + json.dumps(value).encode(),
                    ENCODING_BINARY,
                )

    def test_oversized_outgoing_frame_is_typed_error_both_encodings(self):
        big = {"type": "ANSWER", "blob": "x" * (MAX_FRAME + 1)}
        for encoding in (ENCODING_JSON, ENCODING_BINARY):
            with pytest.raises(FrameTooLargeError, match="exceeds MAX_FRAME"):
                encode_frame(big, encoding)
        # The bound is the *decoder's*: a custom max_frame is enforced.
        with pytest.raises(FrameTooLargeError):
            encode_frame({"type": "A", "b": "x" * 100}, max_frame=64)
        assert issubclass(FrameTooLargeError, FrameError)


# ----------------------------------------------------------------------
# A live server in binary mode
# ----------------------------------------------------------------------
async def started_server(**config_kwargs) -> BaseStationServer:
    config_kwargs.setdefault("tick_interval", 0.0)
    server = BaseStationServer(
        PARAMS, seed=3, config=ServeConfig(**config_kwargs)
    )
    await server.start()
    return server


async def hello(port: int, encoding: str = ENCODING_BINARY):
    """Open a connection and negotiate ``encoding`` (HELLO is JSON)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    request = {"type": MSG_HELLO, "client_id": "t"}
    if encoding != ENCODING_JSON:
        request["encoding"] = encoding
    writer.write(encode_frame(request))
    await writer.drain()
    reply = await read_frame(reader)
    return reader, writer, reply


async def binary_query(reader, writer, request_id: int, k: int = 2):
    writer.write(
        encode_frame(
            {"type": "QUERY", "kind": "knn", "k": k, "id": request_id},
            ENCODING_BINARY,
        )
    )
    await writer.drain()
    return await read_frame(reader, MAX_FRAME, ENCODING_BINARY)


class TestBinaryServer:
    def test_negotiation_and_binary_query(self):
        async def scenario():
            server = await started_server()
            try:
                reader, writer, reply = await hello(server.port)
                assert reply["type"] == MSG_HELLO
                assert reply["encoding"] == ENCODING_BINARY
                answer = await binary_query(reader, writer, 5)
                assert answer["type"] == "ANSWER"
                assert answer["id"] == 5
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_json_client_sees_json_echo(self):
        async def scenario():
            server = await started_server()
            try:
                reader, writer, reply = await hello(
                    server.port, ENCODING_JSON
                )
                assert reply["encoding"] == ENCODING_JSON
                writer.write(
                    encode_frame(
                        {"type": "QUERY", "kind": "knn", "k": 1, "id": 1}
                    )
                )
                await writer.drain()
                answer = await read_frame(reader)
                assert answer["type"] == "ANSWER"
                writer.close()
            finally:
                await server.stop()

        run(scenario())

    def test_unknown_encoding_rejected_at_hello(self):
        async def scenario():
            server = await started_server()
            try:
                reader, writer, reply = await hello(server.port, "msgpack")
                assert reply["type"] == MSG_ERROR
                assert reply["code"] == "protocol"
                assert await read_frame(reader) is None
                writer.close()
            finally:
                await server.stop()

        run(scenario())

    def test_garbage_binary_payload_closes_only_that_session(self):
        async def scenario():
            server = await started_server()
            try:
                reader, writer, _ = await hello(server.port)
                payload = b"\xde\xad\xbe\xef not a codec frame"
                writer.write(struct.pack(">I", len(payload)) + payload)
                await writer.drain()
                error = await read_frame(reader, MAX_FRAME, ENCODING_BINARY)
                assert error["type"] == MSG_ERROR
                assert error["code"] == "framing"
                assert (
                    await read_frame(reader, MAX_FRAME, ENCODING_BINARY)
                    is None
                )
                # The accept loop survives: a fresh binary client works.
                reader2, writer2, _ = await hello(server.port)
                answer = await binary_query(reader2, writer2, 1)
                assert answer["type"] == "ANSWER"
                writer2.close()
                await writer2.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_unknown_type_in_binary_session_survives(self):
        async def scenario():
            server = await started_server()
            try:
                reader, writer, _ = await hello(server.port)
                writer.write(
                    encode_frame({"type": "BOGUS", "id": 9}, ENCODING_BINARY)
                )
                await writer.drain()
                error = await read_frame(reader, MAX_FRAME, ENCODING_BINARY)
                assert error["type"] == MSG_ERROR
                assert error["code"] == "unknown-type"
                answer = await binary_query(reader, writer, 10)
                assert answer["type"] == "ANSWER"
                assert answer["id"] == 10
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    @pytest.mark.parametrize(
        "encoding", (ENCODING_JSON, ENCODING_BINARY)
    )
    def test_oversized_answer_degrades_to_typed_error(self, encoding):
        async def scenario():
            # The scaled world holds 42 POIs, so a full-world kNN
            # answer is ~250 bytes (3 more in binary); 150 keeps the
            # HELLO reply (108 bytes) and small answers inside the
            # bound while the big answer blows it.
            server = await started_server(max_frame=150)
            try:
                reader, writer, reply = await hello(server.port, encoding)
                assert reply["type"] == MSG_HELLO
                writer.write(
                    encode_frame(
                        {"type": "QUERY", "kind": "knn", "k": 5000, "id": 1},
                        encoding,
                        MAX_FRAME,
                    )
                )
                await writer.drain()
                error = await read_frame(reader, MAX_FRAME, encoding)
                assert error["type"] == MSG_ERROR
                assert error["code"] == "too-large"
                assert error["id"] == 1
                # The session survives and still answers small queries.
                writer.write(
                    encode_frame(
                        {"type": "QUERY", "kind": "knn", "k": 2, "id": 2},
                        encoding,
                        MAX_FRAME,
                    )
                )
                await writer.drain()
                answer = await read_frame(reader, MAX_FRAME, encoding)
                assert answer["type"] == "ANSWER"
                assert answer["id"] == 2
                assert server.snapshot()["serve.oversized_replies"] == 1.0
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_lockstep_load_binary_matches_json(self):
        async def one_run(encoding):
            server = await started_server()
            try:
                return await run_load(
                    PARAMS,
                    server.port,
                    seed=5,
                    count=30,
                    connections=1,
                    lockstep=True,
                    encoding=encoding,
                )
            finally:
                await server.stop()

        json_report = run(one_run(ENCODING_JSON))
        binary_report = run(one_run(ENCODING_BINARY))
        assert json_report.clean
        assert binary_report.clean
        assert binary_report.encoding == ENCODING_BINARY
        # Fresh identically-seeded servers, identical workload: the
        # reply stream must be bit-identical across encodings.
        assert binary_report.replies == json_report.replies

    @pytest.mark.parametrize("tag", (0x20, 0x21, 0x22), ids=hex)
    def test_retired_tag_in_binary_session_is_framing_error(self, tag):
        # A peer built from a tree that still sent the value tree or
        # the struct QUERY/ANSWER layouts is refused by tag, not misread.
        async def scenario():
            server = await started_server()
            try:
                reader, writer, _ = await hello(server.port)
                stale = bytes((MAGIC, VERSION, tag)) + b'{"type":"QUERY"}'
                writer.write(raw_frame(stale))
                await writer.drain()
                error = await read_frame(reader, MAX_FRAME, ENCODING_BINARY)
                assert error["type"] == MSG_ERROR
                assert error["code"] == "framing"
                assert f"0x{tag:02x}" in error["error"]
                assert (
                    await read_frame(reader, MAX_FRAME, ENCODING_BINARY)
                    is None
                )
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# Hostile JSON on a live connection, either side
# ----------------------------------------------------------------------
class TestHostileJson:
    def test_server_answers_framing_error_and_serves_next_connection(self):
        async def scenario():
            server = await started_server()
            try:
                # Before HELLO (JSON), then after a binary HELLO.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(raw_frame(HOSTILE_JSON["deep-nesting"]))
                await writer.drain()
                error = await read_frame(reader)
                assert error["code"] == "framing"
                assert await read_frame(reader) is None
                writer.close()
                await writer.wait_closed()

                reader, writer, _ = await hello(server.port)
                writer.write(
                    raw_frame(BINARY_HEADER + HOSTILE_JSON["long-integer"])
                )
                await writer.drain()
                error = await read_frame(reader, MAX_FRAME, ENCODING_BINARY)
                assert error["code"] == "framing"
                assert (
                    await read_frame(reader, MAX_FRAME, ENCODING_BINARY)
                    is None
                )
                writer.close()
                await writer.wait_closed()
                assert server.snapshot()["serve.frame_errors"] == 2.0

                reader, writer, _ = await hello(server.port)
                answer = await binary_query(reader, writer, 1)
                assert answer["type"] == "ANSWER"
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario(), timeout=30.0)

    @pytest.mark.parametrize("hostile", HOSTILE_JSON)
    @pytest.mark.parametrize("encoding", (ENCODING_JSON, ENCODING_BINARY))
    def test_client_pending_request_fails_with_frame_error(
        self, encoding, hostile
    ):
        prefix = BINARY_HEADER if encoding == ENCODING_BINARY else b""

        async def peer(reader, writer):
            # Completes the handshake, answers the query with hostile
            # bytes and holds the connection open.
            await read_frame(reader)
            writer.write(
                encode_frame({"type": MSG_HELLO, "encoding": encoding})
            )
            await read_frame(reader, MAX_FRAME, encoding)
            writer.write(raw_frame(prefix + HOSTILE_JSON[hostile]))
            await writer.drain()
            await reader.read()
            writer.close()

        async def scenario():
            fake = await asyncio.start_server(peer, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            client = ServeClient("127.0.0.1", port, "t", encoding=encoding)
            try:
                await client.connect()
                with pytest.raises(FrameError, match="not valid JSON"):
                    await asyncio.wait_for(
                        client.request(
                            {"type": "QUERY", "kind": "knn", "k": 1}
                        ),
                        10.0,
                    )
            finally:
                await client.close()
                fake.close()
                await fake.wait_closed()

        run(scenario(), timeout=30.0)
