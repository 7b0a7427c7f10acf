"""The asyncio serving loop: eager UDP drain, framed TCP, bounded in-flight.

One :class:`ServeServer` is one event loop owning one
:class:`DnsFrontend`.  The UDP socket is drained *eagerly* on every
readiness event — a burst sitting in the kernel buffer is read out with
``recvfrom`` until the socket would block — and each datagram takes one
of three doors, cheapest first:

1. **fast path** — a memoized hot response is spliced with the client's
   DNS ID and sent once the wakeup's reads are done, never touching the
   queue, the decoder, or the resolver;
2. **admission** — everything else enters the bounded in-flight queue
   for the full decode→resolve→encode pipeline;
3. **shed** — a full queue answers straight from the receive path with a
   bare SERVFAIL.  Shedding early and explicitly is what keeps an
   overloaded server's latency bounded instead of its backlog; leaving
   the burst in the kernel buffer would just convert overload into
   silent drops.

(asyncio's DatagramProtocol reads one datagram per loop iteration, which
interleaves 1:1 with the drain task and can never surface a burst —
hence the raw ``add_reader`` socket.)  TCP connections use the RFC 1035
§4.2.2 two-octet length framing and serve the truncation-retry path.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Optional

from repro.metrics.registry import GAUGE, HOST
from repro.serve.frontend import DnsFrontend, servfail_wire

#: Longest framed TCP query we will read (RFC 1035 allows up to 64 KiB).
MAX_TCP_QUERY = 0xFFFF

#: Largest UDP datagram one read accepts (EDNS can advertise up to 64 KiB).
MAX_DATAGRAM = 0xFFFF

#: Readiness callbacks read at most this many datagrams before yielding,
#: so a sustained flood of fast-path hits cannot starve the drain task,
#: TCP readers, or signal handlers.  Level-triggered ``add_reader``
#: re-fires immediately if datagrams remain.
MAX_DATAGRAMS_PER_WAKEUP = 256


class ServeServer:
    """One worker: a UDP endpoint, a TCP listener, and a drain task."""

    def __init__(
        self,
        frontend: DnsFrontend,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 256,
        reuse_port: bool = False,
        predict_interval: float = 1.0,
    ) -> None:
        self.frontend = frontend
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.reuse_port = reuse_port
        self.predict_interval = predict_interval
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_inflight)
        self._udp_sock: Optional[socket.socket] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._predict_task: Optional[asyncio.Task] = None
        self._inflight_peak = 0
        self.bound_port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> int:
        """Bind UDP + TCP and start draining; returns the bound port."""
        loop = asyncio.get_running_loop()
        udp_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        if self.reuse_port:
            udp_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        udp_sock.setblocking(False)
        udp_sock.bind((self.host, self.port))
        self.bound_port = udp_sock.getsockname()[1]
        self._udp_sock = udp_sock
        loop.add_reader(udp_sock.fileno(), self._on_udp_readable)
        self._tcp_server = await asyncio.start_server(
            self._serve_tcp,
            host=self.host,
            port=self.bound_port,
            reuse_port=self.reuse_port or None,
        )
        self._drain_task = asyncio.create_task(self._drain())
        if self.frontend.resolver.policy.predict:
            self._predict_task = asyncio.create_task(self._predict_pump())
        return self.bound_port

    async def stop(self) -> None:
        """Graceful drain: stop accepting, answer what was admitted."""
        loop = asyncio.get_running_loop()
        if self._udp_sock is not None:
            loop.remove_reader(self._udp_sock.fileno())
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        if self._predict_task is not None:
            self._predict_task.cancel()
            try:
                await self._predict_task
            except asyncio.CancelledError:
                pass
        await self._queue.join()
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
        if self._udp_sock is not None:
            self._udp_sock.close()
            self._udp_sock = None
        peak = (("serve.inflight_peak", GAUGE, "_inflight_peak"),)
        self.frontend.registry.collect(self, peak, HOST)
        self.frontend.close()

    # -- UDP ---------------------------------------------------------------
    def _on_udp_readable(self) -> None:
        """Drain the kernel buffer; answer, admit, or shed each datagram.

        Pulling the burst out in one callback is what makes overload
        visible: every datagram is either answered inline from the memo,
        admitted under the in-flight budget, or refused with an early
        SERVFAIL right here, instead of rotting in (and eventually
        overflowing) the kernel's receive buffer.  All inline responses
        from one wakeup — fast-path hits and sheds alike — leave after the
        reads, one ``sendto`` each.
        """
        sock = self._udp_sock
        if sock is None:
            return
        recvfrom = sock.recvfrom
        frontend = self.frontend
        fast_answer = frontend.fast_answer if frontend.memo is not None else None
        queue = self._queue
        out: list[tuple[bytes, tuple]] = []
        for _ in range(MAX_DATAGRAMS_PER_WAKEUP):
            try:
                data, addr = recvfrom(MAX_DATAGRAM)
            except (BlockingIOError, InterruptedError, OSError):
                break  # drained (or the socket failed): wait for readiness
            if fast_answer is not None:
                wire = fast_answer(data, addr[0])
                if wire is not None:
                    out.append((wire, addr))
                    continue
            try:
                queue.put_nowait((data, addr))
                depth = queue.qsize()
                if depth > self._inflight_peak:
                    self._inflight_peak = depth
            except asyncio.QueueFull:
                frontend.shed += 1
                shed = servfail_wire(data)
                if shed is not None:
                    out.append((shed, addr))
        for wire, addr in out:
            self._sendto(wire, addr)

    def _sendto(self, wire: bytes, addr) -> None:
        if self._udp_sock is None:
            return
        try:
            self._udp_sock.sendto(wire, addr)
        except (BlockingIOError, InterruptedError, OSError):
            pass  # UDP is best-effort; a full send buffer is a drop

    async def _drain(self) -> None:
        while True:
            data, addr = await self._queue.get()
            try:
                result = self.frontend.handle_wire(data, client=addr[0], via_tcp=False)
                if result.wire is not None:
                    self._sendto(result.wire, addr)
            finally:
                self._queue.task_done()
            # One handled datagram per loop tick keeps TCP readers and
            # signal handlers responsive under a UDP flood.
            await asyncio.sleep(0)

    async def _predict_pump(self) -> None:
        """The live refresh-ahead loop: re-resolve hot names off-path.

        Runs due predictive work against the wall-clock bridge once per
        interval so refreshes land before expiry even on an idle socket.
        A resolver bug here must not kill the worker: the pump is
        best-effort and the client path never depends on it.
        """
        while True:
            await asyncio.sleep(self.predict_interval)
            try:
                self.frontend.pump()
            except Exception:
                continue

    # -- TCP ---------------------------------------------------------------
    async def _serve_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "tcp"
        try:
            while True:
                try:
                    header = await reader.readexactly(2)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                (length,) = struct.unpack(">H", header)
                if length == 0 or length > MAX_TCP_QUERY:
                    break
                try:
                    data = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                result = self.frontend.handle_wire(data, client=client, via_tcp=True)
                if result.wire is None:
                    break
                writer.write(struct.pack(">H", len(result.wire)) + result.wire)
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
