"""Batch I/O in the UDP drain loop: a burst in the kernel buffer loses nothing.

Every datagram is read with ``recvfrom`` until the socket would block or
the per-wakeup bound is reached; the level-triggered reader then fires
again for what is left.  These tests fire a burst at a real loopback
socket before the server's loop runs once, and check that every query
gets exactly one answer.
"""

import asyncio
import socket

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.rdtypes import RdataType
from repro.serve import ServeConfig, ServeServer, build_frontend
from repro.serve.server import MAX_DATAGRAMS_PER_WAKEUP

#: Room a small datagram takes in a loopback receive buffer, with margin
#: (the kernel charges the whole buffer, not the payload).
DATAGRAM_ROOM = 1024


def fire_burst(burst: int, rcvbuf: int = 0, memo: bool = True, **server_kwargs):
    """Send ``burst`` queries before the server runs; return what came back.

    ``rcvbuf`` asks both sockets for a larger receive buffer, so a burst
    bigger than the default buffer holds is queued whole.  ``memo=False``
    turns the response memo off, so every reply takes the slow path.
    """

    async def scenario():
        frontend, registry = build_frontend(ServeConfig(world="nl", memo=memo))
        server = ServeServer(frontend, **server_kwargs)
        port = await server.start()
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.connect(("127.0.0.1", port))
        try:
            if rcvbuf:
                for end in (sock, server._udp_sock):
                    end.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
                    if end.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) < rcvbuf:
                        pytest.skip("the host caps UDP receive buffers below the burst")
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
        finally:
            sock.close()
            await server.stop()
        return responses, registry.snapshot()

    return asyncio.run(scenario())


def assert_each_id_answered_once(responses, snapshot, burst):
    ids = []
    for wire in responses:
        message = Message.from_wire(wire)
        assert message.rcode == Rcode.NOERROR
        ids.append(message.id)
    assert sorted(ids) == list(range(burst))  # zero loss, zero duplicates
    assert snapshot.value("serve.queries") == burst
    assert snapshot.value("serve.shed") == 0


@pytest.mark.parametrize("memo", [True, False])
def test_hundred_query_burst_zero_loss(memo):
    """100 queries fired before the server runs once: the whole burst is
    drained and every query gets exactly one answer, whether replies come
    from the response memo or from the slow path."""
    responses, snapshot = fire_burst(100, memo=memo)
    assert_each_id_answered_once(responses, snapshot, 100)


def test_a_burst_past_the_wakeup_bound_is_drained_on_later_wakeups():
    """More datagrams queued than one wakeup reads: the reader fires
    again for the rest instead of leaving them in the kernel buffer.
    The in-flight budget holds the whole burst, so nothing is shed."""
    burst = MAX_DATAGRAMS_PER_WAKEUP + 144
    responses, snapshot = fire_burst(
        burst, rcvbuf=burst * DATAGRAM_ROOM, max_inflight=burst
    )
    assert_each_id_answered_once(responses, snapshot, burst)
