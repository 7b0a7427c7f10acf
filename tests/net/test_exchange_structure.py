"""One exchange does only what differs per datagram.

What is fixed per path (the base RTT) or per server and qname (the zone
route) is one dict probe; the jitter is drawn in ``rtt``'s own frame.  These
tests profile calls by code object (``sys.setprofile``; builtins by
qualified name), so they are exact and independent of host speed.
"""

import enum
import random

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.dns.zone import Zone
from repro.net.latency import LatencyModel
from repro.net.topology import Region
from repro.net.transport import Network, NetworkTimeout
from repro.server.authoritative import AuthoritativeServer
from repro.server.querylog import QueryLog, QueryLogEntry
from tests.conftest import build_mini_world
from tests.metrics.test_count_once_structure import calls

QNAME = "www.example.tld."

#: Every call of one warm unicast exchange, 40 before the per-path and
#: per-qname memos, 16 before the site and the compiled answer were read
#: in the caller's frame and 14 before query logs were opt-in and the
#: zone's response shared: exchange, rtt and its jitter draw (2 random and
#: exp, and log only when the try lands in the squeeze's gap, about one
#: draw in ten: this one's does not, so it makes 9), handle_query, the RTT
#: histogram's observe (it only stores the value) and two dict.get.  The
#: compiled response is a subscript, and hashing the name keys of the
#: probes is tuple's C slot: neither is a call.
EXCHANGE_CALLS = 10

NEVER_CALLED = {
    LatencyModel.base_rtt_ms.__code__: "base RTT is memoized per endpoint pair",
    random.Random.lognormvariate.__code__: "rtt draws the same jitter itself",
    random.Random.normalvariate.__code__: "rtt runs the same rejection loop itself",
    Name.lineage.__code__: "the zone route is memoized per qname",
    enum.Enum.__hash__.__code__: "no dict is keyed by a Region",
    QueryLog.append.__code__: "servers append to the entry list",
    AuthoritativeServer.endpoint_for.__code__: "a unicast server's site is an attribute",
    Zone.respond.__code__: "the server reads a compiled answer itself",
    Message.__init__.__code__: "a plain query gets the zone's shared response",
    QueryLogEntry.__init__.__code__: "query logs are opt-in",
}


def warm_exchange() -> tuple:
    world = build_mini_world()
    client = world.topology.endpoint_in_region(Region.EU)
    query = Message.make_query(QNAME, RdataType.A, recursion_desired=False)
    address = world.hints[next(iter(world.hints))]
    world.network.exchange(client, address, query, 0.0)
    answered = {}

    def exchange():
        answered["exchange"] = world.network.exchange(client, address, query, 1.0)

    seen = calls(exchange)
    del seen[exchange.__code__], seen["setprofile"]  # the harness's own frames
    return seen, answered["exchange"]


def test_a_warm_exchange_rederives_nothing_fixed():
    seen, (response, elapsed) = warm_exchange()
    assert response.authority and elapsed > 0  # the root's referral
    assert {NEVER_CALLED[code] for code in seen if code in NEVER_CALLED} == set()


def test_a_warm_exchange_makes_a_pinned_number_of_calls():
    seen, _ = warm_exchange()
    assert sum(seen.values()) <= EXCHANGE_CALLS, seen


def test_a_down_address_is_still_asked_and_dropped():
    """Three lost attempts make no call but the probe for the server and
    the timeout they end in: no loss draw, no per-attempt wait."""
    world = build_mini_world()
    client = world.topology.endpoint_in_region(Region.EU)
    address = world.hints[next(iter(world.hints))]
    world.network.down.add(address)
    query = Message.make_query(QNAME, RdataType.A, recursion_desired=False)
    timeouts = []

    def exchange():
        try:
            world.network.exchange(client, address, query, 0.0)
        except NetworkTimeout as timeout:
            timeouts.append(timeout)

    seen = calls(exchange)
    # The harness's own frames, and its append of the timeout.
    del seen[exchange.__code__], seen["setprofile"], seen["list.append"]
    assert [timeout.elapsed for timeout in timeouts] == [6.0]
    assert seen == {
        Network.exchange.__code__: 1,
        "dict.get": 1,
        NetworkTimeout.__init__.__code__: 1,
    }
    assert world.network.tally.lost_transmissions == 3
