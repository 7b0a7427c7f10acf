"""Tests for repro.dns.dnssec — the TTL-enclosure mechanics of §2."""

import pytest

from repro.dns.dnssec import (
    clamp_to_signed_ttl,
    covering_rrsig,
    make_rrsig,
    sign_zone,
)
from repro.dns.message import Message, Section
from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RRSIG, RdataType
from repro.dns.record import RRset
from repro.dns.zone import Zone


@pytest.fixture
def zone():
    z = Zone("example.org.", default_ttl=3600)
    z.add_soa("ns1.example.org.")
    z.add("example.org.", RdataType.NS, NS("ns1.example.org."), ttl=3600)
    z.add("ns1.example.org.", RdataType.A, A("192.0.2.53"), ttl=3600)
    z.add("www.example.org.", RdataType.A, A("192.0.2.80"), ttl=300)
    # A delegation with glue: must stay unsigned.
    z.add("sub.example.org.", RdataType.NS, NS("ns.sub.example.org."), ttl=1800)
    z.add("ns.sub.example.org.", RdataType.A, A("192.0.2.99"), ttl=1800)
    return z


class TestSigning:
    def test_sign_zone_counts(self, zone):
        signed = sign_zone(zone)
        assert signed > 0

    def test_adds_apex_dnskey(self, zone):
        sign_zone(zone)
        assert zone.get("example.org.", RdataType.DNSKEY) is not None

    def test_original_ttl_enclosed(self, zone):
        sign_zone(zone)
        sig_set = zone.get("www.example.org.", RdataType.RRSIG)
        assert sig_set is not None
        (rrsig,) = [r for r in sig_set.rdatas if r.type_covered == RdataType.A]
        assert rrsig.original_ttl == 300

    def test_delegation_ns_not_signed(self, zone):
        sign_zone(zone)
        assert zone.get("sub.example.org.", RdataType.RRSIG) is None

    def test_glue_not_signed(self, zone):
        sign_zone(zone)
        assert zone.get("ns.sub.example.org.", RdataType.RRSIG) is None

    def test_apex_ns_signed(self, zone):
        sign_zone(zone)
        sig_set = zone.get("example.org.", RdataType.RRSIG)
        assert any(r.type_covered == RdataType.NS for r in sig_set.rdatas)


class TestResponses:
    def test_answer_carries_covering_rrsig(self, zone):
        sign_zone(zone)
        response = zone.respond(Message.make_query("www.example.org.", RdataType.A))
        (sig_set,) = [r for r in response.answer if r.rdtype == RdataType.RRSIG]
        (sig,) = sig_set.rdatas  # one signature, not the name's whole RRSIG set
        assert sig.type_covered == RdataType.A

    def test_referral_carries_no_rrsig(self, zone):
        sign_zone(zone)
        response = zone.respond(Message.make_query("x.sub.example.org.", RdataType.A))
        assert not any(
            r.rdtype == RdataType.RRSIG for _, r in response.all_records()
        )

    def test_unsigned_zone_unchanged(self, zone):
        response = zone.respond(Message.make_query("www.example.org.", RdataType.A))
        assert not any(r.rdtype == RdataType.RRSIG for r in response.answer)


class TestValidationHelpers:
    def test_covering_rrsig_found(self, zone):
        sign_zone(zone)
        response = zone.respond(Message.make_query("www.example.org.", RdataType.A))
        rrset = response.find_rrset(Section.ANSWER, Name("www.example.org."), RdataType.A)
        assert covering_rrsig(response.answer, rrset) is not None

    def test_covering_rrsig_type_specific(self):
        rrset = RRset(Name("x.example."), RdataType.A, 300, [A("192.0.2.1")])
        wrong = make_rrsig(
            RRset(Name("x.example."), RdataType.AAAA, 300, []), Name("example.")
        )
        sig_set = RRset(Name("x.example."), RdataType.RRSIG, 300, [wrong])
        assert covering_rrsig([sig_set], rrset) is None

    def test_clamp_reduces_inflated_ttl(self):
        rrset = RRset(Name("x."), RdataType.A, 999999, [A("192.0.2.1")])
        rrsig = make_rrsig(RRset(Name("x."), RdataType.A, 300, []), Name("."))
        assert clamp_to_signed_ttl(rrset, rrsig).ttl == 300

    def test_clamp_keeps_lower_ttl(self):
        rrset = RRset(Name("x."), RdataType.A, 100, [A("192.0.2.1")])
        rrsig = make_rrsig(RRset(Name("x."), RdataType.A, 300, []), Name("."))
        assert clamp_to_signed_ttl(rrset, rrsig).ttl == 100


class TestValidatingResolver:
    def test_validating_resolver_clamps_to_signed_ttl(self, mini_world):
        """A zone operator inflates the served TTL above the signed value;
        a validating resolver caches only the signed (child) TTL."""
        from repro.resolver.policy import ResolverPolicy
        from repro.resolver.recursive import RecursiveResolver
        from repro.net.topology import Region

        sign_zone(mini_world.child_zone)
        # Inflate the served A TTL without re-signing.
        mini_world.child_zone.set_ttl("www.example.tld.", RdataType.A, 7200)
        resolver = RecursiveResolver(
            endpoint=mini_world.topology.endpoint_in_region(Region.EU),
            network=mini_world.network,
            root_hints=mini_world.hints,
            policy=ResolverPolicy.validating(),
        )
        out = resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.answers[-1].ttl == 60  # the signed original, not 7200

    def test_plain_resolver_accepts_inflated_ttl(self, mini_world):
        from repro.resolver.recursive import RecursiveResolver
        from repro.net.topology import Region

        sign_zone(mini_world.child_zone)
        mini_world.child_zone.set_ttl("www.example.tld.", RdataType.A, 7200)
        resolver = RecursiveResolver(
            endpoint=mini_world.topology.endpoint_in_region(Region.EU),
            network=mini_world.network,
            root_hints=mini_world.hints,
        )
        out = resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.answers[-1].ttl == 7200
