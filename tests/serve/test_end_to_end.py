"""Loopback end-to-end: real sockets, real wire format, in-process.

Spins the asyncio server and the load generator inside one event loop on
an ephemeral port — the acceptance test for the whole serving stack:
every response parses, rcodes are sane, the cache warms up, TCP works.
(No pytest-asyncio in the environment, so each test drives its own loop
via asyncio.run.)
"""

import asyncio
import struct

from repro.dns.message import Message, Rcode
from repro.dns.rdtypes import RdataType
from repro.loadgen import LoadGenerator, LoadgenConfig
from repro.serve import ServeConfig, ServeServer, build_frontend


def make_server(**config_kwargs):
    frontend, registry = build_frontend(ServeConfig(world="nl", **config_kwargs))
    return ServeServer(frontend), registry


def test_loadgen_against_live_server():
    async def scenario():
        server, registry = make_server()
        port = await server.start()
        report = await LoadGenerator(
            LoadgenConfig(
                port=port, rate_qps=400, duration_s=1.5, population=50, seed=3
            )
        ).run()
        await server.stop()
        return report, registry.snapshot()

    report, snapshot = asyncio.run(scenario())
    assert report.sent > 100
    assert report.parse_errors == 0  # every response parsed
    assert report.lost == 0
    assert set(report.rcodes) == {int(Rcode.NOERROR)}  # rcodes sane
    # Zipf reuse must warm the cache: hit rate > 0 after warmup.
    assert snapshot.value("serve.cache_hits") > 0
    assert snapshot.value("serve.queries") == report.attempts
    assert snapshot.value("serve.malformed") == 0


def test_closed_loop_mode():
    async def scenario():
        server, _ = make_server()
        port = await server.start()
        report = await LoadGenerator(
            LoadgenConfig(
                port=port, mode="closed", concurrency=4, duration_s=0.5, seed=5
            )
        ).run()
        await server.stop()
        return report

    report = asyncio.run(scenario())
    assert report.received > 0
    assert report.parse_errors == 0


def test_tcp_round_trip():
    async def scenario():
        server, _ = make_server()
        port = await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        query = Message.make_query("www.domain2.nl.", RdataType.A, id=99)
        wire = query.to_wire()
        writer.write(struct.pack(">H", len(wire)) + wire)
        await writer.drain()
        (length,) = struct.unpack(">H", await reader.readexactly(2))
        response = Message.from_wire(await reader.readexactly(length))
        writer.close()
        await writer.wait_closed()
        await server.stop()
        return response

    response = asyncio.run(scenario())
    assert response.id == 99
    assert response.rcode == Rcode.NOERROR
    assert response.answer


def test_udp_truncation_then_tcp_retry():
    """The dig workflow: EDNS query, TC=1 over UDP, full answer over TCP."""

    async def scenario():
        server, _ = make_server(max_udp_payload=100)
        port = await server.start()
        loop = asyncio.get_running_loop()
        import socket

        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.connect(("127.0.0.1", port))
        query = Message.make_query("nl.", RdataType.NS, id=44).use_edns()
        await loop.sock_sendall(sock, query.to_wire())
        udp_response = Message.from_wire(
            await asyncio.wait_for(loop.sock_recv(sock, 4096), 5)
        )
        sock.close()

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        wire = query.to_wire()
        writer.write(struct.pack(">H", len(wire)) + wire)
        await writer.drain()
        (length,) = struct.unpack(">H", await reader.readexactly(2))
        tcp_response = Message.from_wire(await reader.readexactly(length))
        writer.close()
        await writer.wait_closed()
        await server.stop()
        return udp_response, tcp_response

    udp_response, tcp_response = asyncio.run(scenario())
    assert udp_response.flags.tc
    assert not tcp_response.flags.tc
    (ns_set,) = tcp_response.answer
    assert len(ns_set) == 4  # the full .nl NS set


def test_predict_refreshes_hot_name_in_background():
    """The live refresh-ahead loop: a hot name is re-resolved before its
    TTL runs out with *no* query in flight, so the follow-up query after
    the original expiry is still a cache hit."""

    async def scenario():
        import socket

        frontend, registry = build_frontend(
            # 2000 sim s per wall s: the 3600 s TTL expires ~1.8 wall s in,
            # and the 360 s refresh window spans several 20 ms pump ticks.
            ServeConfig(world="nl", predict=True, time_scale=2000.0)
        )
        server = ServeServer(frontend, predict_interval=0.02)
        port = await server.start()
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.connect(("127.0.0.1", port))

        async def ask(id):
            query = Message.make_query("www.domain2.nl.", RdataType.A, id=id)
            await loop.sock_sendall(sock, query.to_wire())
            return Message.from_wire(
                await asyncio.wait_for(loop.sock_recv(sock, 4096), 5)
            )

        await ask(1)
        await ask(2)  # second arrival: the name is now hot
        await asyncio.sleep(2.2)  # idle past the original expiry
        late = await ask(3)
        await server.stop()
        sock.close()
        return late, registry.snapshot()

    late, snapshot = asyncio.run(scenario())
    assert late.rcode == Rcode.NOERROR
    assert snapshot.value("predict.refreshes") >= 1
    # The background refresh kept the entry warm: the late query never
    # paid a full recursive walk.
    assert snapshot.value("serve.cache_hits") >= 2


def test_querylog_records_live_traffic(tmp_path):
    log_path = tmp_path / "live.jsonl"

    async def scenario():
        server, _ = make_server(querylog_path=str(log_path))
        port = await server.start()
        report = await LoadGenerator(
            LoadgenConfig(port=port, rate_qps=200, duration_s=0.5, seed=9)
        ).run()
        await server.stop()
        return report

    report = asyncio.run(scenario())
    from repro.server.querylog import QueryLog

    log = QueryLog.read_jsonl(log_path)
    assert len(log) == report.attempts
    groups = log.by_group()
    assert groups  # consumable by repro.analysis.interarrival
    assert all(address == "127.0.0.1" for address, _ in groups)
