"""Batched UDP datagram I/O: ``recvmmsg``/``sendmmsg`` with a fallback.

CPython's :mod:`socket` exposes ``recvmsg``/``sendmsg`` but not the
Linux batch variants, so the hot-path win of draining a burst in one
syscall is normally out of reach.  :class:`MmsgBatcher` binds
``recvmmsg(2)``/``sendmmsg(2)`` through :mod:`ctypes` with preallocated
buffer rings (message headers, iovecs, receive buffers, and sockaddr
scratch are built once and reused on every call), so a 32-datagram burst
costs one syscall and zero per-datagram allocations on the C side.
:class:`FallbackBatcher` presents the identical interface over plain
``recvfrom``/``sendto`` loops for platforms without the syscalls — the
two are byte-equivalent by construction and by test
(``tests/serve/test_batch_io.py``), so the serving loop never needs to
know which one it got.

Use :func:`make_batcher` to pick the best implementation for a socket.
"""

from __future__ import annotations

import ctypes
import errno
import socket
import struct
import sys
from typing import Optional

#: Largest datagram one slot accepts (EDNS can advertise up to 64 KiB).
RECV_BUFFER_SIZE = 0xFFFF

#: Scratch large enough for sockaddr_in and sockaddr_in6.
_SOCKADDR_SIZE = 28

#: Bound on the per-batcher sockaddr parse/pack caches.
_ADDR_CACHE_LIMIT = 4096

Datagram = tuple[bytes, tuple]


class _IoVec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p), ("iov_len", ctypes.c_size_t)]


class _MsgHdr(ctypes.Structure):
    # The glibc/musl layout on Linux; ctypes inserts the arch padding.
    _fields_ = [
        ("msg_name", ctypes.c_void_p),
        ("msg_namelen", ctypes.c_uint),
        ("msg_iov", ctypes.POINTER(_IoVec)),
        ("msg_iovlen", ctypes.c_size_t),
        ("msg_control", ctypes.c_void_p),
        ("msg_controllen", ctypes.c_size_t),
        ("msg_flags", ctypes.c_int),
    ]


class _MMsgHdr(ctypes.Structure):
    _fields_ = [("msg_hdr", _MsgHdr), ("msg_len", ctypes.c_uint)]


def _load_mmsg_symbols():
    """The (recvmmsg, sendmmsg) pair, or ``None`` when unavailable."""
    if sys.platform != "linux":
        return None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        recvmmsg = libc.recvmmsg
        sendmmsg = libc.sendmmsg
    except (OSError, AttributeError):
        return None
    for fn in (recvmmsg, sendmmsg):
        fn.restype = ctypes.c_int
    recvmmsg.argtypes = [
        ctypes.c_int,
        ctypes.POINTER(_MMsgHdr),
        ctypes.c_uint,
        ctypes.c_int,
        ctypes.c_void_p,
    ]
    sendmmsg.argtypes = [
        ctypes.c_int,
        ctypes.POINTER(_MMsgHdr),
        ctypes.c_uint,
        ctypes.c_int,
    ]
    return recvmmsg, sendmmsg


_MMSG_SYMBOLS = _load_mmsg_symbols()

#: Errnos that mean "no more datagrams right now", not "broken socket".
_SOFT_ERRNOS = frozenset({errno.EAGAIN, errno.EWOULDBLOCK, errno.EINTR})


def _parse_sockaddr(raw: bytes, length: int) -> tuple:
    """Decode a kernel-written sockaddr into the (host, port) tuple shape
    :meth:`socket.socket.recvfrom` produces."""
    if length >= 8:
        (family,) = struct.unpack_from("H", raw)  # sa_family_t, host order
        if family == socket.AF_INET:
            port, packed = struct.unpack_from(">H4s", raw, 2)
            return (socket.inet_ntop(socket.AF_INET, packed), port)
        if family == socket.AF_INET6 and length >= 28:
            port, flowinfo, packed, scope = struct.unpack_from(">HI16sI", raw, 2)
            return (socket.inet_ntop(socket.AF_INET6, packed), port, flowinfo, scope)
    return ("?", 0)


def _pack_sockaddr(addr: tuple, out: ctypes.Array) -> int:
    """Fill ``out`` with a sockaddr for ``addr``; returns its length."""
    host, port = addr[0], addr[1]
    if ":" in host:
        struct.pack_into("H", out, 0, socket.AF_INET6)  # sa_family_t, host order
        struct.pack_into(
            ">HI16sI",
            out,
            2,
            port,
            addr[2] if len(addr) > 2 else 0,
            socket.inet_pton(socket.AF_INET6, host),
            addr[3] if len(addr) > 3 else 0,
        )
        return 28
    struct.pack_into("H", out, 0, socket.AF_INET)  # sa_family_t, host order
    struct.pack_into(">H4s8s", out, 2, port, socket.inet_pton(socket.AF_INET, host), b"\x00" * 8)
    return 16


class MmsgBatcher:
    """recvmmsg/sendmmsg over preallocated rings; Linux only."""

    kind = "mmsg"

    def __init__(self, sock: socket.socket, batch_size: int) -> None:
        if _MMSG_SYMBOLS is None:
            raise OSError("recvmmsg/sendmmsg unavailable on this platform")
        if batch_size < 1:
            raise ValueError(f"batch size must be positive, not {batch_size}")
        self.sock = sock
        self.batch_size = batch_size
        self._fd = sock.fileno()
        self._recvmmsg, self._sendmmsg = _MMSG_SYMBOLS
        # Every per-datagram touch of ctypes machinery (attribute
        # descriptors, Array indexing, string_at) is an FFI-priced call —
        # expensive enough to eat the batching win.  So the rings are
        # bytearray-backed (payload/addr extraction is plain slicing) and
        # the header arrays are read and written through struct over a
        # memoryview; the only ctypes call per batch is the syscall.
        hdr_stride = ctypes.sizeof(_MMsgHdr)
        len_offset = _MMsgHdr.msg_len.offset
        self._namelen_offset = _MsgHdr.msg_namelen.offset
        self._u32 = struct.Struct("@I")
        self._size_t = struct.Struct("@N")
        # One unpack per received datagram: msg_namelen and msg_len in a
        # single read (the pad covers the msghdr fields between them).
        pad = len_offset - self._namelen_offset - 4
        self._namelen_and_len = struct.Struct(f"@I{pad}xI")
        iov_stride = ctypes.sizeof(_IoVec)
        iov_len_offset = _IoVec.iov_len.offset

        def build_ring():
            """One direction's ring: buffers, iovecs, headers, views."""
            data = [bytearray(RECV_BUFFER_SIZE) for _ in range(batch_size)]
            addrs = [bytearray(_SOCKADDR_SIZE) for _ in range(batch_size)]
            iovs = (_IoVec * batch_size)()
            hdrs = (_MMsgHdr * batch_size)()
            # from_buffer pins each bytearray (resize is forbidden while
            # exported, slice-assign is fine) and gives the kernel-visible
            # address; the arrays hold the only reference it needs.
            pins = []
            for index in range(batch_size):
                data_pin = (ctypes.c_char * RECV_BUFFER_SIZE).from_buffer(data[index])
                addr_pin = (ctypes.c_char * _SOCKADDR_SIZE).from_buffer(addrs[index])
                pins.append((data_pin, addr_pin))
                iov = iovs[index]
                iov.iov_base = ctypes.addressof(data_pin)
                iov.iov_len = RECV_BUFFER_SIZE
                hdr = hdrs[index].msg_hdr
                hdr.msg_name = ctypes.addressof(addr_pin)
                hdr.msg_namelen = _SOCKADDR_SIZE
                hdr.msg_iov = ctypes.pointer(iov)
                hdr.msg_iovlen = 1
            hdr_view = memoryview(hdrs).cast("B")
            iov_view = memoryview(iovs).cast("B")
            hdr_offsets = [index * hdr_stride for index in range(batch_size)]
            iov_offsets = [
                index * iov_stride + iov_len_offset for index in range(batch_size)
            ]
            data_views = [memoryview(buf) for buf in data]
            addr_views = [memoryview(buf) for buf in addrs]
            return (
                data, addrs, data_views, addr_views, hdrs, hdr_view, iov_view,
                hdr_offsets, iov_offsets, pins,
            )

        (
            self._recv_data,
            self._recv_addr,
            self._recv_data_views,
            self._recv_addr_views,
            self._recv_hdrs,
            self._recv_hdr_view,
            _,
            self._recv_offsets,
            _,
            self._recv_pins,
        ) = build_ring()
        (
            self._send_data,
            self._send_addr,
            _,
            _,
            self._send_hdrs,
            self._send_hdr_view,
            self._send_iov_view,
            self._send_offsets,
            self._send_iov_offsets,
            self._send_pins,
        ) = build_ring()
        # Per-slot change tracking on the send side: a slot that already
        # holds the right sockaddr (identity — the raw cache interns
        # them) or iov_len skips the rewrite entirely.
        self._send_slot_raw: list = [None] * batch_size
        self._send_slot_len: list = [-1] * batch_size
        # Raw-sockaddr <-> addr-tuple caches.  A server talks to a bounded
        # client set per batcher lifetime, so parsing/packing each peer
        # once and dict-probing thereafter keeps the per-datagram Python
        # cost at one lookup instead of struct+inet_ntop work.
        self._addr_by_raw: dict[bytes, tuple] = {}
        self._raw_by_addr: dict[tuple, bytes] = {}

    def recv_batch(self) -> list[Datagram]:
        """Up to ``batch_size`` datagrams in one syscall; ``[]`` when the
        kernel buffer is empty."""
        count = self._recvmmsg(self._fd, self._recv_hdrs, self.batch_size, 0, None)
        if count < 0:
            if ctypes.get_errno() in _SOFT_ERRNOS:
                return []
            raise OSError(ctypes.get_errno(), "recvmmsg failed")
        out: list[Datagram] = []
        addr_by_raw = self._addr_by_raw
        view = self._recv_hdr_view
        offsets = self._recv_offsets
        unpack_pair = self._namelen_and_len.unpack_from
        namelen_offset = self._namelen_offset
        data_views = self._recv_data_views
        addr_views = self._recv_addr_views
        for index in range(count):
            namelen, length = unpack_pair(view, offsets[index] + namelen_offset)
            raw = bytes(addr_views[index][:namelen])
            addr = addr_by_raw.get(raw)
            if addr is None:
                addr = _parse_sockaddr(raw, namelen)
                if len(addr_by_raw) < _ADDR_CACHE_LIMIT:
                    addr_by_raw[raw] = addr
            out.append((bytes(data_views[index][:length]), addr))
        # msg_namelen is in/out, but a socket's address family never
        # changes, so the kernel-written length from this call is exactly
        # the scratch size the next call needs — no per-slot reset.
        return out

    def send_batch(self, items: list[Datagram]) -> int:
        """Flush ``items`` in ``batch_size`` chunks; returns datagrams sent.

        UDP responses are best-effort (matching the single-datagram
        ``sendto`` path): kernel backpressure mid-batch drops the
        remainder instead of blocking the event loop.
        """
        sent = 0
        raw_by_addr = self._raw_by_addr
        hdr_view = self._send_hdr_view
        iov_view = self._send_iov_view
        offsets = self._send_offsets
        iov_offsets = self._send_iov_offsets
        pack_u32 = self._u32.pack_into
        pack_size_t = self._size_t.pack_into
        namelen_offset = self._namelen_offset
        send_data = self._send_data
        send_addr = self._send_addr
        slot_raw = self._send_slot_raw
        slot_len = self._send_slot_len
        for start in range(0, len(items), self.batch_size):
            chunk = items[start : start + self.batch_size]
            for index, (payload, addr) in enumerate(chunk):
                # Copy the payload into the slot's fixed buffer; iov_base
                # was pointed there once at construction.
                length = len(payload)
                send_data[index][:length] = payload
                if length != slot_len[index]:
                    slot_len[index] = length
                    pack_size_t(iov_view, iov_offsets[index], length)
                raw = raw_by_addr.get(addr)
                if raw is None:
                    scratch = bytearray(_SOCKADDR_SIZE)
                    raw = bytes(scratch[: _pack_sockaddr(addr, scratch)])
                    if len(raw_by_addr) < _ADDR_CACHE_LIMIT:
                        raw_by_addr[addr] = raw
                if raw is not slot_raw[index]:
                    slot_raw[index] = raw
                    send_addr[index][: len(raw)] = raw
                    pack_u32(hdr_view, offsets[index] + namelen_offset, len(raw))
            count = self._sendmmsg(self._fd, self._send_hdrs, len(chunk), 0)
            if count < 0:
                if ctypes.get_errno() in _SOFT_ERRNOS:
                    return sent
                return sent  # best-effort: a dead socket drops the batch
            sent += count
            if count < len(chunk):
                return sent
        return sent


class FallbackBatcher:
    """The same interface over one-datagram syscalls; works everywhere."""

    kind = "fallback"

    def __init__(self, sock: socket.socket, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch size must be positive, not {batch_size}")
        self.sock = sock
        self.batch_size = batch_size

    def recv_batch(self) -> list[Datagram]:
        out: list[Datagram] = []
        recvfrom = self.sock.recvfrom
        for _ in range(self.batch_size):
            try:
                out.append(recvfrom(RECV_BUFFER_SIZE))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break
        return out

    def send_batch(self, items: list[Datagram]) -> int:
        sent = 0
        sendto = self.sock.sendto
        for payload, addr in items:
            try:
                sendto(payload, addr)
            except (BlockingIOError, InterruptedError):
                return sent  # kernel backpressure: drop the rest
            except OSError:
                return sent
            sent += 1
        return sent


def mmsg_available() -> bool:
    """True when the Linux batch syscalls can be bound."""
    return _MMSG_SYMBOLS is not None


def make_batcher(
    sock: socket.socket,
    batch_size: int,
    prefer_mmsg: Optional[bool] = None,
):
    """The best batcher for ``sock``: mmsg where possible, else fallback.

    ``prefer_mmsg=False`` forces the portable path (the CI equivalence
    job and the `--no-batch` flag); ``None`` auto-detects.  A batch size
    of 1 always uses the fallback — one datagram per syscall *is* the
    unbatched path, so ``--batch 1`` degenerates cleanly.
    """
    use_mmsg = mmsg_available() if prefer_mmsg is None else (prefer_mmsg and mmsg_available())
    if use_mmsg and batch_size > 1:
        return MmsgBatcher(sock, batch_size)
    return FallbackBatcher(sock, batch_size)
