"""The sidecar wire protocol: framing, incremental decode, validation.

The framing layer is the trust boundary between processes — everything
above it assumes records arrive whole, in order, and well-formed.  These
tests pin the frame format (4-byte big-endian length + UTF-8 JSON), the
decoder's tolerance of arbitrary TCP chunk boundaries, and the shared
record vocabulary both endpoints validate against.
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.errors import ServiceProtocolError
from repro.obs.live import IntrospectionServer
from repro.service.client import SessionClient
from repro.service.server import VerificationServer
from repro.service.wire import (
    CLIENT_KINDS,
    MAX_FRAME,
    REQUIRED_FIELDS,
    SERVER_KINDS,
    WIRE_VERSION,
    FrameDecoder,
    dial,
    encode_frame,
    validate_record,
)


class TestFraming:
    def test_frame_layout_is_length_prefixed_json(self):
        record = {"kind": "ping"}
        frame = encode_frame(record)
        (length,) = struct.unpack_from(">I", frame)
        assert length == len(frame) - 4
        assert json.loads(frame[4:]) == record

    def test_round_trip_one_frame(self):
        record = {"kind": "check", "waiter": 3, "joinee": 9, "req": 41}
        assert FrameDecoder().feed(encode_frame(record)) == [record]

    def test_many_frames_in_one_chunk_arrive_in_order(self):
        records = [{"kind": "fork", "parent": 0, "child": i, "cseq": i} for i in range(1, 8)]
        chunk = b"".join(encode_frame(r) for r in records)
        assert FrameDecoder().feed(chunk) == records

    def test_byte_at_a_time_feed_reassembles_frames(self):
        """TCP may deliver any chunking; the decoder must not care."""
        records = [
            {"kind": "init", "task": 0, "cseq": 0},
            {"kind": "verdict", "req": 0, "ok": True},
        ]
        data = b"".join(encode_frame(r) for r in records)
        decoder = FrameDecoder()
        out = []
        for i in range(len(data)):
            out.extend(decoder.feed(data[i : i + 1]))
        assert out == records
        assert decoder.pending_bytes == 0

    def test_partial_frame_stays_pending(self):
        frame = encode_frame({"kind": "pong"})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [{"kind": "pong"}]

    def test_oversize_length_prefix_is_a_protocol_error(self):
        bogus = struct.pack(">I", MAX_FRAME + 1)
        with pytest.raises(ServiceProtocolError):
            FrameDecoder().feed(bogus)

    def test_non_json_payload_is_a_protocol_error(self):
        payload = b"\xff\xfenot json"
        with pytest.raises(ServiceProtocolError):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)

    def test_non_object_payload_is_a_protocol_error(self):
        payload = json.dumps([1, 2, 3]).encode()
        with pytest.raises(ServiceProtocolError):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)

    def test_encode_refuses_oversize_record(self):
        record = {"kind": "check_batch", "joinees": list(range(MAX_FRAME // 4))}
        with pytest.raises(ServiceProtocolError):
            encode_frame(record)


class TestVocabulary:
    def test_every_kind_has_required_fields_listed(self):
        assert set(REQUIRED_FIELDS) == CLIENT_KINDS | SERVER_KINDS

    def test_validate_returns_the_kind(self):
        record = {"kind": "ack", "seq": 12}
        assert validate_record(record, SERVER_KINDS) == "ack"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceProtocolError):
            validate_record({"kind": "steal"}, CLIENT_KINDS)

    def test_kind_from_the_wrong_direction_rejected(self):
        # a server kind is not valid client traffic, and vice versa
        with pytest.raises(ServiceProtocolError):
            validate_record({"kind": "verdict", "req": 0, "ok": True}, CLIENT_KINDS)
        with pytest.raises(ServiceProtocolError):
            validate_record(
                {"kind": "check", "waiter": 0, "joinee": 1, "req": 0}, SERVER_KINDS
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(ServiceProtocolError) as exc:
            validate_record({"kind": "check", "waiter": 0, "req": 3}, CLIENT_KINDS)
        assert "joinee" in str(exc.value)

    def test_hello_carries_the_wire_version(self):
        assert "wire" in REQUIRED_FIELDS["hello"]
        assert WIRE_VERSION == 1


class TestFrameCapBoundary:
    """Batch join queries at the 1 MiB frame cap, to the byte.

    The procs runtime multiplexes worker sessions over one sidecar and
    its batch drains are the records most likely to brush the cap, so
    the boundary itself is pinned: a frame of exactly MAX_FRAME bytes
    must decode, one byte more must be refused cleanly, and the decoder
    must stay deterministic afterwards.
    """

    @staticmethod
    def _batch_record_of_payload_size(size):
        """A ``check_batch`` record whose JSON payload is exactly *size* bytes."""
        record = {
            "kind": "check_batch",
            "req": 7,
            "waiter": 0,
            "joinees": list(range(512)),
            "pad": "",
        }
        base = len(json.dumps(record, separators=(",", ":")).encode("utf-8"))
        record["pad"] = "x" * (size - base)
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        assert len(payload) == size
        return record, payload

    def test_exact_cap_batch_frame_is_accepted(self):
        record, payload = self._batch_record_of_payload_size(MAX_FRAME)
        frame = encode_frame(record)  # the encoder must not refuse it either
        assert frame == struct.pack(">I", MAX_FRAME) + payload
        dec = FrameDecoder()
        # split mid-payload so the exact-cap frame crosses the buffering path
        cut = len(frame) // 2
        assert dec.feed(frame[:cut]) == []
        (back,) = dec.feed(frame[cut:])
        assert back == record
        assert validate_record(back, CLIENT_KINDS) == "check_batch"
        assert dec.pending_bytes == 0
        # decoder state intact afterwards: an ordinary frame still decodes
        (after,) = dec.feed(encode_frame({"kind": "ping", "req": 8}))
        assert after == {"kind": "ping", "req": 8}

    def test_cap_plus_one_is_rejected_with_a_clean_protocol_error(self):
        record, payload = self._batch_record_of_payload_size(MAX_FRAME + 1)
        with pytest.raises(ServiceProtocolError):
            encode_frame(record)  # the sender refuses to build it at all
        dec = FrameDecoder()
        # A hand-built oversize frame is rejected from the 4-byte prefix
        # alone — no buffering of the megabyte payload.
        with pytest.raises(ServiceProtocolError) as exc:
            dec.feed(struct.pack(">I", MAX_FRAME + 1))
        assert str(MAX_FRAME) in str(exc.value)
        assert dec.pending_bytes == struct.calcsize(">I")  # nothing consumed

    def test_decoder_stays_deterministic_after_a_rejected_prefix(self):
        dec = FrameDecoder()
        good = encode_frame({"kind": "ping", "req": 1})
        assert dec.feed(good) == [{"kind": "ping", "req": 1}]
        with pytest.raises(ServiceProtocolError):
            dec.feed(struct.pack(">I", MAX_FRAME + 1))
        # Framing is lost for good: every later feed re-raises instead of
        # resynchronising on garbage, so the caller must drop the
        # connection (the documented contract) — no silent half-reads.
        for _ in range(3):
            with pytest.raises(ServiceProtocolError):
                dec.feed(good)
        # A fresh decoder (new connection) is unaffected.
        assert FrameDecoder().feed(good) == [{"kind": "ping", "req": 1}]


# ----------------------------------------------------------------------
# dialing: one handshake for every client, Nagle off on both ends
# ----------------------------------------------------------------------
def _nodelay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def _hello(session: str) -> dict:
    return {
        "kind": "hello",
        "session": session,
        "policy": "TJ-SP",
        "fail_mode": "open",
        "wire": WIRE_VERSION,
    }


class TestDial:
    def test_session_client_and_sidecar_sockets_disable_nagle(self):
        # A worker's buffered fork announcements followed by its first
        # check must not wait out the sidecar's delayed ACK.
        with VerificationServer() as server:
            host, port = server.address
            client = SessionClient(f"remote://{host}:{port}", "nodelay", tenant="t")
            assert client.connect()
            try:
                assert _nodelay(client._stream.sock)
                with server._conns_lock:
                    accepted = [conn.sock for conn in server._conns.values()]
                assert accepted and all(_nodelay(sock) for sock in accepted)
            finally:
                client.close()

    def test_introspection_server_sockets_disable_nagle(self):
        srv = IntrospectionServer(dict).start()
        try:
            host, port = srv._bound
            stream, welcome = dial(host, port, _hello("top"), timeout=5.0)
            try:
                assert welcome["kind"] == "welcome"
                assert _nodelay(stream.sock)
                with srv._conns_lock:
                    accepted = list(srv._conns)
                assert accepted and all(_nodelay(sock) for sock in accepted)
            finally:
                stream.sock.close()
        finally:
            srv.stop()
