"""Structural guard on the serve slow path: the codec works by layout block.

A short TTL pushes every live query through decode → resolve → encode
(§5.3 of the paper; the ``serve_churn`` workload).  On that path a fixed
wire layout — header, question tail, record block, OPT — is one ``struct``
call, an enum member comes out of a table, and an address is encoded from
the octets it was built with.  Counting calls under the profiler states
that without depending on how many calls this interpreter version happens
to make for anything else.
"""

import cProfile
import pstats

from repro.dns.message import Message
from repro.dns.rdtypes import RdataType
from repro.serve.config import ServeConfig, build_frontend


def profile_one_warm_query():
    frontend, _ = build_frontend(
        ServeConfig(world="nl", memo=False), wall_clock=lambda: 0.0
    )
    wire = Message.make_query("www.domain1.nl.", RdataType.A, id=7).use_edns().to_wire()
    warm = frontend.handle_wire(wire, "10.0.0.1")
    profiler = cProfile.Profile()
    profiler.enable()
    result = frontend.handle_wire(wire, "10.0.0.1")
    profiler.disable()
    assert result.wire == warm.wire and result.outcome == "answered"
    assert Message.from_wire(result.wire).answer[0].rdtype == RdataType.A
    return pstats.Stats(profiler).stats


def calls(stats, predicate) -> int:
    return sum(
        row[1] for (filename, _, name), row in stats.items() if predicate(filename, name)
    )


def struct_calls(stats, *methods) -> int:
    """Calls of these methods of a compiled ``Struct``."""
    names = {f"<method '{method}' of '_struct.Struct' objects>" for method in methods}
    return calls(stats, lambda filename, name: name in names)


def test_warm_query_decodes_and_encodes_by_block():
    stats = profile_one_warm_query()
    # Header, question tail, OPT block in; header, question tail, record
    # block, RDLENGTH patch, OPT out.
    assert 0 < struct_calls(stats, "unpack", "unpack_from") <= 4
    assert 0 < struct_calls(stats, "pack", "pack_into") <= 5
    # ... and no format string is parsed per call.
    assert calls(stats, lambda f, n: "_struct.pack" in n or "_struct.unpack" in n) == 0
    # No address is re-parsed and no enum member is looked up by call.
    assert calls(stats, lambda f, n: f.endswith("ipaddress.py")) == 0
    assert calls(stats, lambda f, n: f.endswith("enum.py") and n == "__call__") == 0
