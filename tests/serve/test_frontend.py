"""DnsFrontend unit tests: decode policy, EDNS negotiation, truncation.

These drive the frontend synchronously with hand-built wire bytes — no
sockets — so every policy branch is cheap to pin down.
"""

import struct

import pytest

from repro.dns.message import Message, Opcode, Rcode
from repro.dns.rdtypes import RdataType
from repro.serve.bridge import WallClockBridge
from repro.serve.config import ServeConfig, build_frontend
from repro.serve.frontend import servfail_wire
from repro.server.rrl import ResponseRateLimiter


class FakeWall:
    def __init__(self, at: float = 0.0) -> None:
        self.at = at

    def __call__(self) -> float:
        return self.at


@pytest.fixture(scope="module")
def frontend_and_wall():
    wall = FakeWall()
    frontend, _registry = build_frontend(ServeConfig(world="nl"), wall_clock=wall)
    return frontend, wall


def query_wire(qname="www.domain1.nl.", qtype=RdataType.A, id=1, edns=False):
    query = Message.make_query(qname, qtype, id=id)
    if edns:
        query.use_edns()
    return query.to_wire()


def test_answers_a_plain_query(frontend_and_wall):
    frontend, _ = frontend_and_wall
    result = frontend.handle_wire(query_wire(id=11), client="10.0.0.1")
    assert result.outcome == "answered"
    response = Message.from_wire(result.wire)
    assert response.id == 11
    assert response.rcode == Rcode.NOERROR
    assert response.flags.qr and response.flags.ra
    assert response.answer


def test_nxdomain_for_missing_name(frontend_and_wall):
    frontend, _ = frontend_and_wall
    result = frontend.handle_wire(
        query_wire(qname="no-such-name.nl.", id=12), client="10.0.0.1"
    )
    response = Message.from_wire(result.wire)
    assert response.rcode == Rcode.NXDOMAIN


def test_edns_echoed_with_server_payload(frontend_and_wall):
    frontend, _ = frontend_and_wall
    result = frontend.handle_wire(query_wire(id=13, edns=True), client="10.0.0.1")
    response = Message.from_wire(result.wire)
    assert response.edns is not None
    assert response.edns.udp_payload == frontend.max_udp_payload


def test_no_edns_in_response_to_plain_query(frontend_and_wall):
    frontend, _ = frontend_and_wall
    result = frontend.handle_wire(query_wire(id=14), client="10.0.0.1")
    assert Message.from_wire(result.wire).edns is None


def test_garbage_gets_formerr_with_echoed_id(frontend_and_wall):
    frontend, _ = frontend_and_wall
    blob = struct.pack(">HHHHHH", 0xBEEF, 0x0100, 1, 0, 0, 0) + b"\xff\xff\xff"
    result = frontend.handle_wire(blob, client="10.0.0.1")
    assert result.outcome == "malformed"
    response = Message.from_wire(result.wire)
    assert response.id == 0xBEEF
    assert response.rcode == Rcode.FORMERR
    assert response.flags.qr


def test_record_ttl_with_top_bit_set_is_answered(frontend_and_wall):
    # RFC 2181 §8: the additional record's TTL reads as 0; the query is
    # well formed and gets an answer, not FORMERR.
    frontend, _ = frontend_and_wall
    wire = bytearray(query_wire(id=14))
    wire[11] = 1  # ARCOUNT
    wire += b"\x00" + struct.pack("!HHIH", RdataType.A, 1, 0x80000000, 4)
    wire += bytes([192, 0, 2, 1])
    result = frontend.handle_wire(bytes(wire), client="10.0.0.1")
    assert result.outcome == "answered"
    response = Message.from_wire(result.wire)
    assert response.id == 14 and response.rcode == Rcode.NOERROR


def test_short_garbage_is_dropped_silently(frontend_and_wall):
    frontend, _ = frontend_and_wall
    result = frontend.handle_wire(b"\x01\x02\x03", client="10.0.0.1")
    assert result.outcome == "malformed"
    assert result.wire is None


def test_responses_are_never_answered(frontend_and_wall):
    frontend, _ = frontend_and_wall
    query = Message.make_query("www.domain1.nl.", RdataType.A, id=15)
    response_wire = query.make_response().to_wire()
    result = frontend.handle_wire(response_wire, client="10.0.0.1")
    assert result.outcome == "dropped"
    assert result.wire is None


def test_non_query_opcode_gets_notimp(frontend_and_wall):
    frontend, _ = frontend_and_wall
    query = Message.make_query("www.domain1.nl.", RdataType.A, id=16)
    query.opcode = Opcode.STATUS
    result = frontend.handle_wire(query.to_wire(), client="10.0.0.1")
    response = Message.from_wire(result.wire)
    assert response.rcode == Rcode.NOTIMP


def test_oversize_udp_response_truncates_with_tc(frontend_and_wall):
    frontend, _ = frontend_and_wall
    original = frontend.max_udp_payload
    frontend.max_udp_payload = 100  # the 4-record NS set cannot fit
    try:
        result = frontend.handle_wire(
            query_wire(qname="nl.", qtype=RdataType.NS, id=17), client="10.0.0.1"
        )
        response = Message.from_wire(result.wire)
        assert response.flags.tc
        assert len(result.wire) <= 512  # client limit still respected
    finally:
        frontend.max_udp_payload = original


def test_truncated_and_full_answer_bytes_unchanged():
    """The wire bytes of a truncated UDP answer and of its TCP retry, as
    recorded at the last commit whose sections held individual records
    (94f8531; the rest of that frozen set is tests/dns/test_message.py's
    TestWireGolden): truncation clears RRset sections to the same octets."""
    frontend, _ = build_frontend(
        ServeConfig(world="nl", max_udp_payload=100), wall_clock=FakeWall()
    )
    query = Message.make_query("nl.", RdataType.NS, id=44).use_edns().to_wire()
    udp = frontend.handle_wire(query, client="10.0.0.1")
    tcp = frontend.handle_wire(query, client="10.0.0.1", via_tcp=True)
    assert udp.wire.hex() == (
        "002c83800001000000000001026e6c00000200010000290064000000000000"
    )
    assert tcp.wire.hex() == (
        "002c81800001000400000001026e6c0000020001c00c0002000100000e10000a036e733103646e73"
        "c00cc00c0002000100000e100006036e7332c024c00c0002000100000e100006036e7333c024c00c"
        "0002000100000e10001006736e732d706203697363036f7267000000290064000000000000"
    )


def test_tcp_never_truncates(frontend_and_wall):
    frontend, _ = frontend_and_wall
    original = frontend.max_udp_payload
    frontend.max_udp_payload = 100
    try:
        result = frontend.handle_wire(
            query_wire(qname="nl.", qtype=RdataType.NS, id=18),
            client="10.0.0.1",
            via_tcp=True,
        )
        response = Message.from_wire(result.wire)
        assert not response.flags.tc
        assert response.answer
    finally:
        frontend.max_udp_payload = original


def test_ttls_age_with_the_bridge(frontend_and_wall):
    frontend, wall = frontend_and_wall
    first = Message.from_wire(
        frontend.handle_wire(query_wire(id=19), client="10.9.9.9").wire
    )
    ttl_start = first.answer[0].ttl
    wall.at += 100.0
    second = Message.from_wire(
        frontend.handle_wire(query_wire(id=20), client="10.9.9.9").wire
    )
    assert second.answer[0].ttl <= ttl_start - 100 + 1  # aged in the cache


def test_rrl_slips_tc_over_budget():
    wall = FakeWall()
    frontend, _ = build_frontend(ServeConfig(world="nl", rrl_rate=2), wall_clock=wall)
    assert isinstance(frontend.rrl, ResponseRateLimiter)
    outcomes = [
        frontend.handle_wire(query_wire(id=30 + i), client="10.1.1.1").outcome
        for i in range(4)
    ]
    assert outcomes[:2] == ["answered", "answered"]
    assert "slipped" in outcomes[2:]


def test_metrics_count_queries(frontend_and_wall):
    frontend, _ = frontend_and_wall
    snapshot = frontend.registry.snapshot()
    assert snapshot.value("serve.queries") > 0
    assert snapshot.value("serve.malformed") >= 2


def test_servfail_wire_echoes_id():
    wire = servfail_wire(query_wire(id=0x0102))
    response = Message.from_wire(wire)
    assert response.id == 0x0102
    assert response.rcode == Rcode.SERVFAIL
    assert response.flags.qr


def test_servfail_wire_never_answers_a_response():
    # A shed SERVFAIL to a datagram with QR set would let two overloaded
    # servers ping-pong, as handle_wire and _formerr already refuse to.
    response = struct.pack(">HHHHHH", 0x0102, 0x8180, 1, 1, 0, 0)
    assert servfail_wire(response) is None


def test_servfail_wire_copies_rd():
    # RFC 1035 §4.1.1: RD is copied from the query into the response.
    for rd in (False, True):
        query = Message.make_query("www.domain1.nl.", RdataType.A, id=3, recursion_desired=rd)
        response = Message.from_wire(servfail_wire(query.to_wire()))
        assert response.flags.rd is rd
        assert response.flags.ra and response.rcode == Rcode.SERVFAIL


def test_servfail_wire_rejects_short_datagrams():
    assert servfail_wire(b"\x00\x01") is None


def serve_counts(frontend) -> dict:
    """Every ``serve.*`` instrument: counter value, label map, histogram count."""
    counts = {}
    for name, metric in frontend.registry.snapshot().to_payload()["metrics"].items():
        if name.startswith("serve."):
            kind = metric["kind"]
            counts[name] = metric[
                {"counter": "value", "labeled_counter": "values", "histogram": "count"}[kind]
            ]
    return counts


def scripted_query_mix(frontend=None, responses=None):
    """A frontend that has served one query of each accounting shape: by
    default a fresh one, on the 100-octet UDP limit the truncation case
    needs.  ``responses``, if given, collects what each datagram got."""
    if frontend is None:
        frontend, _ = build_frontend(
            ServeConfig(world="nl", max_udp_payload=100), wall_clock=FakeWall()
        )
    responses = [] if responses is None else responses
    assert serve_counts(frontend)["serve.worker_queries"] == {}  # before any datagram
    client = "10.0.0.1"
    status = Message.make_query("www.domain1.nl.", RdataType.A, id=7)
    status.opcode = Opcode.STATUS
    script = [
        # (wire, via_tcp, expected outcome)
        (query_wire(id=1), False, "answered"),  # slow path, cache miss
        (query_wire(id=2), False, "memo"),  # memo hit
        (query_wire(id=3, edns=True), False, "answered"),  # slow path, cache hit
        (query_wire(id=4), True, "answered"),  # TCP
        (query_wire(qname="no-such-name.nl.", id=5), False, "answered"),  # NXDOMAIN
        (query_wire(id=6)[:20], False, "malformed"),
        (b"\x01\x02\x03", False, "malformed"),
        (Message.make_query("nl.", RdataType.A, id=8).make_response().to_wire(),
         False, "dropped"),
        (status.to_wire(), False, "answered"),  # NOTIMP
        (query_wire(qname="nl.", qtype=RdataType.NS, id=9, edns=True),
         False, "answered"),  # truncated: four NS records over 100 octets
    ]
    for wire, via_tcp, expected in script:
        fast = None if via_tcp else frontend.fast_answer(wire, client)
        responses.append(fast)
        if fast is not None:
            assert expected == "memo"
            continue
        result = frontend.handle_wire(wire, client, via_tcp=via_tcp)
        assert result.outcome == expected
        responses[-1] = result.wire
    return frontend


def test_accounting_of_a_scripted_query_mix():
    """The whole ``serve.*`` snapshot after one query of each accounting
    shape, as recorded at f00e1de (one ``inc()`` per instrument): the
    single per-query bump must leave every count where it was."""
    assert serve_counts(scripted_query_mix()) == {
        "serve.cache_hits": 3,  # memo hit, EDNS repeat, TCP repeat
        "serve.dropped": 1,
        "serve.latency_ms": 7,  # every query that got an rcode
        "serve.malformed": 2,
        "serve.memo_hits": 1,
        "serve.queries": 10,
        "serve.rcode": {"NOERROR": 5, "NOTIMP": 1, "NXDOMAIN": 1},
        "serve.rrl_slipped": 0,
        "serve.shed": 0,
        "serve.tcp_queries": 1,
        "serve.truncated": 1,
        "serve.worker_queries": {"serve": 10},
    }


def test_accounting_of_rrl_slips_and_drops():
    frontend, _ = build_frontend(
        ServeConfig(world="nl", rrl_rate=2), wall_clock=FakeWall()
    )
    outcomes = [
        frontend.handle_wire(query_wire(id=30 + i), client="10.1.1.1").outcome
        for i in range(8)
    ]
    assert sorted(set(outcomes)) == ["answered", "dropped", "slipped"]
    assert serve_counts(frontend) == {
        "serve.cache_hits": 1,
        "serve.dropped": 2,
        "serve.latency_ms": 6,  # slips are answered; drops are not
        "serve.malformed": 0,
        "serve.memo_hits": 0,
        "serve.queries": 8,
        "serve.rcode": {"NOERROR": 6},
        "serve.rrl_slipped": 4,
        "serve.shed": 0,
        "serve.tcp_queries": 0,
        "serve.truncated": 0,
        "serve.worker_queries": {"serve": 8},
    }
