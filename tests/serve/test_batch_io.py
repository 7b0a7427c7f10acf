"""The batched-datagram contract: mmsg and fallback are interchangeable.

The serving loop treats :func:`make_batcher`'s result as an opaque
drain/flush pair, so the whole fast path rests on the two
implementations being byte-equivalent: same payloads, same peer
addresses, same partial-batch and would-block behavior.  These tests
pin that equivalence on real loopback sockets, then push a 100-query
burst through the full server to prove deep batches survive end to end.
"""

import asyncio
import socket

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.rdtypes import RdataType
from repro.serve import DEFAULT_BATCH_SIZE, ServeConfig, ServeServer, build_frontend
from repro.serve.batchio import FallbackBatcher, MmsgBatcher, make_batcher, mmsg_available

needs_mmsg = pytest.mark.skipif(
    not mmsg_available(), reason="recvmmsg/sendmmsg not available on this platform"
)

BATCHER_KINDS = [FallbackBatcher] + ([MmsgBatcher] if mmsg_available() else [])


def _socket_pair():
    """Two bound, connected-free, non-blocking UDP loopback sockets."""
    left = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    left.bind(("127.0.0.1", 0))
    left.setblocking(False)
    right = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    right.bind(("127.0.0.1", 0))
    right.setblocking(False)
    return left, right


def _drain(batcher, expect):
    """Collect exactly ``expect`` datagrams, polling through empty reads."""
    import time

    got = []
    deadline = time.monotonic() + 5.0
    while len(got) < expect and time.monotonic() < deadline:
        got.extend(batcher.recv_batch())
    return got


@pytest.mark.parametrize("cls", BATCHER_KINDS)
def test_empty_socket_returns_empty_batch(cls):
    left, right = _socket_pair()
    try:
        assert cls(left, 8).recv_batch() == []  # EAGAIN, not an exception
    finally:
        left.close()
        right.close()


@pytest.mark.parametrize("cls", BATCHER_KINDS)
def test_partial_batch_returns_what_is_queued(cls):
    """5 datagrams against a batch size of 8: one drain, five results."""
    left, right = _socket_pair()
    try:
        batcher = cls(left, 8)
        payloads = [bytes([index]) * (20 + index) for index in range(5)]
        for payload in payloads:
            right.sendto(payload, left.getsockname())
        got = _drain(batcher, 5)
        assert [payload for payload, _ in got] == payloads
        assert all(addr == right.getsockname() for _, addr in got)
        # The socket is dry again: the next drain hits would-block.
        assert batcher.recv_batch() == []
    finally:
        left.close()
        right.close()


@pytest.mark.parametrize("cls", BATCHER_KINDS)
def test_overfull_queue_drains_in_batches(cls):
    """More queued than one batch holds: successive drains chunk it."""
    left, right = _socket_pair()
    try:
        batcher = cls(left, 4)
        payloads = [bytes([index]) * 30 for index in range(10)]
        for payload in payloads:
            right.sendto(payload, left.getsockname())
        first = _drain(batcher, 4)
        assert len(first) == 4
        rest = _drain(batcher, 6)
        assert [payload for payload, _ in first + rest] == payloads
        assert batcher.recv_batch() == []  # EAGAIN mid-stream is clean
    finally:
        left.close()
        right.close()


@pytest.mark.parametrize("cls", BATCHER_KINDS)
def test_send_batch_chunks_beyond_batch_size(cls):
    left, right = _socket_pair()
    try:
        sender = cls(left, 4)
        receiver = FallbackBatcher(right, 32)
        items = [(bytes([index]) * 25, right.getsockname()) for index in range(11)]
        assert sender.send_batch(items) == 11
        got = _drain(receiver, 11)
        assert [payload for payload, _ in got] == [payload for payload, _ in items]
    finally:
        left.close()
        right.close()


@needs_mmsg
def test_mmsg_and_fallback_are_byte_equivalent():
    """The same traffic through both kinds produces identical datagrams —
    payload bytes, peer address tuples, and ordering all match."""
    for sender_cls, receiver_cls in [
        (MmsgBatcher, FallbackBatcher),
        (FallbackBatcher, MmsgBatcher),
        (MmsgBatcher, MmsgBatcher),
        (FallbackBatcher, FallbackBatcher),
    ]:
        left, right = _socket_pair()
        try:
            sender = sender_cls(left, 8)
            receiver = receiver_cls(right, 8)
            items = [
                (bytes([index, index ^ 0xFF]) * (index + 1), right.getsockname())
                for index in range(8)
            ]
            assert sender.send_batch(items) == len(items)
            got = _drain(receiver, len(items))
            assert got == [
                (payload, left.getsockname()) for payload, _ in items
            ], f"{sender_cls.__name__} -> {receiver_cls.__name__}"
        finally:
            left.close()
            right.close()


@needs_mmsg
def test_mmsg_reuses_slots_across_calls():
    """The rings are reused, not reallocated: interleaved send/recv over
    many rounds must never bleed bytes between slots or rounds."""
    left, right = _socket_pair()
    try:
        sender = MmsgBatcher(left, 4)
        receiver = MmsgBatcher(right, 4)
        for round_index in range(12):
            items = [
                (bytes([round_index, index]) * (5 + round_index), right.getsockname())
                for index in range(3)
            ]
            assert sender.send_batch(items) == 3
            got = _drain(receiver, 3)
            assert [payload for payload, _ in got] == [p for p, _ in items]
    finally:
        left.close()
        right.close()


def test_make_batcher_selection():
    left, _right = _socket_pair()
    try:
        assert make_batcher(left, 1).kind == "fallback"  # batch of 1: no point
        assert make_batcher(left, 8, prefer_mmsg=False).kind == "fallback"
        auto = make_batcher(left, 8)
        assert auto.kind == ("mmsg" if mmsg_available() else "fallback")
        assert auto.batch_size == 8
    finally:
        left.close()
        _right.close()


@pytest.mark.parametrize("batching", [True, False])
def test_hundred_query_burst_zero_loss(batching):
    """100 queries fired before the server runs once: the whole burst is
    drained in deep batches and every query gets exactly one answer."""
    burst = 100

    async def scenario():
        frontend, registry = build_frontend(ServeConfig(world="nl"))
        server = ServeServer(frontend, batching=batching)
        port = await server.start()
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.connect(("127.0.0.1", port))
        for index in range(burst):
            query = Message.make_query(
                f"www.domain{index % 10}.nl.", RdataType.A, id=index
            )
            sock.send(query.to_wire())
        responses = []
        while len(responses) < burst:
            responses.append(
                await asyncio.wait_for(loop.sock_recv(sock, 4096), timeout=5.0)
            )
        sock.close()
        kind = server.batcher.kind
        await server.stop()
        return responses, registry.snapshot(), kind

    responses, snapshot, kind = asyncio.run(scenario())
    assert kind == ("mmsg" if batching and mmsg_available() else "fallback")
    seen_ids = set()
    for wire in responses:
        message = Message.from_wire(wire)
        assert message.rcode == Rcode.NOERROR
        seen_ids.add(message.id)
    assert seen_ids == set(range(burst))  # zero loss, zero duplicates
    assert snapshot.value("serve.queries") == burst
    assert snapshot.value("serve.shed") == 0


def test_burst_responses_identical_with_and_without_batching():
    """The loop-level half of byte-equivalence: the same burst against a
    batched server and a plain sendto server produces the same answer
    bytes per query ID (modulo the ID itself, which is zeroed here)."""
    burst = 20

    async def scenario(batching):
        frontend, _ = build_frontend(ServeConfig(world="nl", seed=7))
        server = ServeServer(frontend, batching=batching)
        port = await server.start()
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.connect(("127.0.0.1", port))
        for index in range(burst):
            query = Message.make_query(
                f"www.domain{index % 5}.nl.", RdataType.A, id=index
            )
            sock.send(query.to_wire())
        by_id = {}
        while len(by_id) < burst:
            wire = await asyncio.wait_for(loop.sock_recv(sock, 4096), timeout=5.0)
            by_id[(wire[0] << 8) | wire[1]] = b"\x00\x00" + wire[2:]
        sock.close()
        await server.stop()
        return by_id

    batched = asyncio.run(scenario(True))
    plain = asyncio.run(scenario(False))
    assert batched == plain


def test_default_batch_size_is_sane():
    assert 1 < DEFAULT_BATCH_SIZE <= 1024
