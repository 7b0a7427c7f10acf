"""Tests for repro.dns.zone: lookups, delegations, glue, wildcards."""

import pytest

from repro.dns.message import Message, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import AAAA, A, CNAME, NS, RdataClass, RdataType
from repro.dns.zone import LookupStatus, Zone, ZoneError


@pytest.fixture
def zone():
    z = Zone("example.com.", default_ttl=3600)
    z.add_soa("ns1.example.com.", minimum=900)
    z.add("example.com.", RdataType.NS, NS("ns1.example.com."), ttl=3600)
    z.add("ns1.example.com.", RdataType.A, A("192.0.2.53"), ttl=7200)
    z.add("www.example.com.", RdataType.A, A("192.0.2.80"), ttl=300)
    z.add("alias.example.com.", RdataType.CNAME, CNAME("www.example.com."), ttl=600)
    # A delegated subzone with in-bailiwick glue.
    z.add("sub.example.com.", RdataType.NS, NS("ns1.sub.example.com."), ttl=1800)
    z.add("ns1.sub.example.com.", RdataType.A, A("192.0.2.99"), ttl=1800)
    return z


class TestMutation:
    def test_add_out_of_zone_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add("other.org.", RdataType.A, A("192.0.2.1"))

    def test_add_merges_rdatas(self, zone):
        zone.add("www.example.com.", RdataType.A, A("192.0.2.81"))
        assert len(zone.get("www.example.com.", RdataType.A)) == 2

    def test_add_merge_keeps_existing_ttl(self, zone):
        zone.add("www.example.com.", RdataType.A, A("192.0.2.81"), ttl=999)
        assert zone.get("www.example.com.", RdataType.A).ttl == 300

    def test_add_dedupes_identical_rdata(self, zone):
        zone.add("www.example.com.", RdataType.A, A("192.0.2.80"))
        assert len(zone.get("www.example.com.", RdataType.A)) == 1

    def test_replace_swaps_rdata(self, zone):
        zone.replace("www.example.com.", RdataType.A, A("198.51.100.1"), ttl=60)
        rrset = zone.get("www.example.com.", RdataType.A)
        assert rrset.ttl == 60
        assert str(rrset.rdatas[0]) == "198.51.100.1"

    def test_remove(self, zone):
        zone.remove("www.example.com.", RdataType.A)
        assert zone.get("www.example.com.", RdataType.A) is None

    def test_set_ttl(self, zone):
        zone.set_ttl("example.com.", RdataType.NS, 86400)
        assert zone.get("example.com.", RdataType.NS).ttl == 86400

    def test_set_ttl_missing_raises(self, zone):
        with pytest.raises(ZoneError):
            zone.set_ttl("nope.example.com.", RdataType.NS, 60)


class TestLookup:
    def test_exact_answer(self, zone):
        result = zone.lookup("www.example.com.", RdataType.A)
        assert result.status is LookupStatus.ANSWER
        assert result.rrsets[0].ttl == 300

    def test_apex_ns_answer(self, zone):
        result = zone.lookup("example.com.", RdataType.NS)
        assert result.status is LookupStatus.ANSWER

    def test_nodata(self, zone):
        result = zone.lookup("www.example.com.", RdataType.AAAA)
        assert result.status is LookupStatus.NODATA
        assert result.soa is not None

    def test_nxdomain(self, zone):
        result = zone.lookup("missing.example.com.", RdataType.A)
        assert result.status is LookupStatus.NXDOMAIN

    def test_empty_non_terminal_is_nodata(self, zone):
        zone.add("a.b.example.com.", RdataType.A, A("192.0.2.7"))
        result = zone.lookup("b.example.com.", RdataType.A)
        assert result.status is LookupStatus.NODATA

    def test_out_of_zone_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.lookup("other.org.", RdataType.A)

    def test_cname_followed_in_zone(self, zone):
        result = zone.lookup("alias.example.com.", RdataType.A)
        assert result.status is LookupStatus.CNAME
        assert len(result.rrsets) == 2  # CNAME + target A

    def test_cname_query_returns_cname_directly(self, zone):
        result = zone.lookup("alias.example.com.", RdataType.CNAME)
        assert result.status is LookupStatus.ANSWER

    def test_cname_dangling_out_of_zone(self, zone):
        zone.add("ext.example.com.", RdataType.CNAME, CNAME("target.other.org."))
        result = zone.lookup("ext.example.com.", RdataType.A)
        assert result.status is LookupStatus.CNAME
        assert len(result.rrsets) == 1


class TestDelegation:
    def test_names_below_cut_are_referred(self, zone):
        result = zone.lookup("host.sub.example.com.", RdataType.A)
        assert result.status is LookupStatus.DELEGATION
        assert result.rrsets[0].name == Name("sub.example.com.")

    def test_cut_itself_is_referred(self, zone):
        result = zone.lookup("sub.example.com.", RdataType.A)
        assert result.status is LookupStatus.DELEGATION

    def test_glue_attached(self, zone):
        result = zone.lookup("host.sub.example.com.", RdataType.A)
        glue_names = {str(g.name) for g in result.glue}
        assert glue_names == {"ns1.sub.example.com."}

    def test_out_of_bailiwick_delegation_has_no_glue(self, zone):
        zone.add("ext.example.com.", RdataType.NS, NS("ns.provider.net."), ttl=1800)
        result = zone.lookup("www.ext.example.com.", RdataType.A)
        assert result.status is LookupStatus.DELEGATION
        assert result.glue == []

    def test_shallowest_cut_wins(self, zone):
        # A (bogus) deeper NS below the cut must not shadow the first cut.
        result = zone.lookup("a.b.sub.example.com.", RdataType.A)
        assert result.rrsets[0].name == Name("sub.example.com.")

    def test_removing_ns_removes_cut(self, zone):
        zone.remove("sub.example.com.", RdataType.NS)
        result = zone.lookup("host.sub.example.com.", RdataType.A)
        assert result.status is LookupStatus.NXDOMAIN


class TestWildcard:
    def test_wildcard_synthesis(self, zone):
        zone.add("*.dyn.example.com.", RdataType.AAAA, AAAA("2001:db8::1"), ttl=60)
        result = zone.lookup("p123.dyn.example.com.", RdataType.AAAA)
        assert result.status is LookupStatus.ANSWER
        assert result.rrsets[0].name == Name("p123.dyn.example.com.")
        assert result.rrsets[0].ttl == 60

    def test_wildcard_does_not_cover_existing_name(self, zone):
        zone.add("*.dyn.example.com.", RdataType.AAAA, AAAA("2001:db8::1"), ttl=60)
        zone.add("real.dyn.example.com.", RdataType.A, A("192.0.2.5"))
        result = zone.lookup("real.dyn.example.com.", RdataType.AAAA)
        assert result.status is LookupStatus.NODATA

    def test_wildcard_wrong_type_is_nxdomain(self, zone):
        zone.add("*.dyn.example.com.", RdataType.AAAA, AAAA("2001:db8::1"), ttl=60)
        result = zone.lookup("p9.dyn.example.com.", RdataType.MX)
        assert result.status is LookupStatus.NXDOMAIN


class TestRespond:
    def test_authoritative_answer_sets_aa(self, zone):
        query = Message.make_query("www.example.com.", RdataType.A)
        response = zone.respond(query)
        assert response.flags.aa
        assert response.rcode == Rcode.NOERROR
        assert response.answer[0].ttl == 300

    def test_answer_carries_apex_ns_and_glue(self, zone):
        query = Message.make_query("www.example.com.", RdataType.A)
        response = zone.respond(query)
        assert any(r.rdtype == RdataType.NS for r in response.authority)
        assert any(r.name == Name("ns1.example.com.") for r in response.additional)

    def test_referral_clears_aa(self, zone):
        query = Message.make_query("x.sub.example.com.", RdataType.A)
        response = zone.respond(query)
        assert not response.flags.aa
        assert response.is_referral()

    def test_referral_glue_in_additional(self, zone):
        query = Message.make_query("x.sub.example.com.", RdataType.A)
        response = zone.respond(query)
        assert any(
            r.name == Name("ns1.sub.example.com.") for r in response.additional
        )

    def test_nxdomain_response(self, zone):
        query = Message.make_query("gone.example.com.", RdataType.A)
        response = zone.respond(query)
        assert response.rcode == Rcode.NXDOMAIN
        assert any(r.rdtype == RdataType.SOA for r in response.authority)

    def test_nodata_response(self, zone):
        query = Message.make_query("www.example.com.", RdataType.MX)
        response = zone.respond(query)
        assert response.rcode == Rcode.NOERROR
        assert not response.answer
        assert any(r.rdtype == RdataType.SOA for r in response.authority)

    def test_out_of_zone_refused(self, zone):
        query = Message.make_query("other.org.", RdataType.A)
        assert zone.respond(query).rcode == Rcode.REFUSED

    def test_no_question_formerr(self, zone):
        assert zone.respond(Message()).rcode == Rcode.FORMERR

    def test_parent_and_child_ttls_differ_across_cut(self, zone):
        """The paper's core setup: same NS record, different TTLs, depending
        on which side of the delegation answers (§3.1, Table 1)."""
        child = Zone("sub.example.com.", default_ttl=300)
        child.add_soa("ns1.sub.example.com.")
        child.add("sub.example.com.", RdataType.NS, NS("ns1.sub.example.com."), ttl=300)
        parent_view = zone.respond(
            Message.make_query("sub.example.com.", RdataType.NS)
        )
        child_view = child.respond(
            Message.make_query("sub.example.com.", RdataType.NS)
        )
        parent_ttl = parent_view.authority[0].ttl
        child_ttl = child_view.answer[0].ttl
        assert (parent_ttl, child_ttl) == (1800, 300)
        assert not parent_view.flags.aa and child_view.flags.aa


class TestCompiledAnswers:
    """respond() compiles a body once per question and reuses it until the
    zone changes (tests/dns/test_zone_properties.py holds the equivalence
    property; these pin the table's own rules)."""

    @staticmethod
    def ask(zone, qname, qtype=RdataType.A, **kwargs):
        return zone.respond(Message.make_query(qname, qtype, **kwargs))

    def test_filled_on_first_query_never_at_build(self, zone):
        assert zone.compiled == {}
        self.ask(zone, "www.example.com.")
        assert list(zone.compiled) == [(Name("www.example.com."), RdataType.A)]

    def test_responses_carry_the_zones_own_rrsets(self, zone):
        first = self.ask(zone, "www.example.com.", id=1)
        again = self.ask(zone, "www.example.com.", id=2, recursion_desired=False)
        assert first.answer[0] is zone.get("www.example.com.", RdataType.A)
        assert first.authority[0] is zone.get("example.com.", RdataType.NS)
        assert first.additional[0] is zone.get("ns1.example.com.", RdataType.A)
        assert (first.id, first.flags.rd) == (1, True)
        assert (again.id, again.flags.rd) == (2, False)
        # A fresh message per non-zero ID, over the same section tuples.
        assert again is not first and again.answer is first.answer

    def test_a_plain_query_gets_the_shared_response(self, zone):
        """ID 0, RD clear, class IN — a resolver's query — gets the one
        shared response; any other query a fresh message over its sections."""
        shared = self.ask(zone, "www.example.com.", recursion_desired=False)
        assert self.ask(zone, "www.example.com.", recursion_desired=False) is shared
        assert (shared.id, shared.flags.rd, shared.flags.aa) == (0, False, True)
        recursive = self.ask(zone, "www.example.com.")
        assert recursive is not shared and recursive.flags.rd and recursive.flags.aa
        assert recursive.answer is shared.answer
        chaos = self.ask(zone, "www.example.com.", qclass=RdataClass.CH, recursion_desired=False)
        assert chaos is not shared and chaos.question.qclass is RdataClass.CH

    def test_clearing_one_responses_sections_leaves_the_next_intact(self, zone):
        first = self.ask(zone, "www.example.com.")
        for section in Section:
            held = first.section(section)
            assert type(held) is tuple and held
            with pytest.raises(AttributeError):
                held.clear()
        again = self.ask(zone, "www.example.com.")
        assert again.answer and again.authority and again.additional

    @staticmethod
    def list_built(zone, query):
        """The response as built before sections were shared tuples: a
        ``make_response`` skeleton whose section lists are filled from
        :meth:`Zone.lookup`."""
        qname, qtype = query.question.qname, query.question.qtype
        result = zone.lookup(qname, qtype)
        delegation = result.status is LookupStatus.DELEGATION
        response = query.make_response(authoritative=not delegation)
        if delegation:
            response.add(Section.AUTHORITY, *result.rrsets)
            response.add(Section.ADDITIONAL, *result.glue)
        elif result.status in (LookupStatus.ANSWER, LookupStatus.CNAME):
            apex_ns = zone.get(zone.origin, RdataType.NS)
            response.add(Section.ANSWER, *result.rrsets)
            response.add(Section.AUTHORITY, apex_ns)
            response.add(Section.ADDITIONAL, *zone._glue_for(apex_ns))
        else:
            if result.status is LookupStatus.NXDOMAIN:
                response.rcode = Rcode.NXDOMAIN
            response.add(Section.AUTHORITY, result.soa)
        return response

    @pytest.mark.parametrize("qname, qtype, status", [
        ("www.example.com.", RdataType.A, LookupStatus.ANSWER),
        ("x.sub.example.com.", RdataType.A, LookupStatus.DELEGATION),
        ("www.example.com.", RdataType.MX, LookupStatus.NODATA),
        ("gone.example.com.", RdataType.A, LookupStatus.NXDOMAIN),
        ("alias.example.com.", RdataType.A, LookupStatus.CNAME),
    ])
    @pytest.mark.parametrize("query_id", [0, 0x1234])
    @pytest.mark.parametrize("rd", [False, True])
    def test_shared_and_fresh_responses_encode_as_list_built_ones(
        self, zone, qname, qtype, status, query_id, rd
    ):
        from repro.net.topology import Region, Topology
        from repro.server.authoritative import AuthoritativeServer

        assert zone.lookup(qname, qtype).status is status
        topology = Topology(seed=0)
        server = AuthoritativeServer(topology.endpoint_in_region(Region.EU), [zone])
        client = topology.endpoint_in_region(Region.NA)
        query = Message.make_query(qname, qtype, id=query_id, recursion_desired=rd)
        expected = self.list_built(zone, query).to_wire()
        # Compiling, then from the table; through the zone and the server.
        for _ in range(2):
            assert zone.respond(query).to_wire() == expected
            assert server.handle_query(query, client, 0.0).to_wire() == expected

    def test_the_table_holds_its_zone_weakly_and_pickles_with_it(self):
        import gc
        import pickle
        import weakref

        zone = Zone("example.net.")
        zone.add_soa("ns1.example.net.")
        zone.add("www.example.net.", RdataType.A, A("192.0.2.8"))
        self.ask(zone, "www.example.net.")
        copy = pickle.loads(pickle.dumps(zone))
        assert copy.compiled.zone() is copy and list(copy.compiled) == list(zone.compiled)
        assert self.ask(copy, "nope.example.net.").rcode == Rcode.NXDOMAIN  # compiles
        gc.disable()  # a dropped zone goes by reference count alone
        try:
            dropped = weakref.ref(zone)
            del zone
            assert dropped() is None
        finally:
            gc.enable()

    def test_retains_only_bodies_for_names_the_zone_holds(self, zone):
        zone.add("*.dyn.example.com.", RdataType.A, A("192.0.2.7"), ttl=60)
        self.ask(zone, "www.example.com.")  # answer
        self.ask(zone, "alias.example.com.")  # CNAME chain
        self.ask(zone, "www.example.com.", RdataType.MX)  # NODATA
        self.ask(zone, "x.sub.example.com.")  # referral
        kept = set(zone.compiled)
        assert len(kept) == 4
        assert self.ask(zone, "p1.dyn.example.com.").answer[0].ttl == 60  # wildcard
        assert self.ask(zone, "gone.example.com.").rcode == Rcode.NXDOMAIN
        assert self.ask(zone, "other.org.").rcode == Rcode.REFUSED
        assert set(zone.compiled) == kept

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda z: z.add("www.example.com.", RdataType.A, A("192.0.2.81")),
            lambda z: z.replace("www.example.com.", RdataType.A, A("192.0.2.82")),
            lambda z: z.remove("www.example.com.", RdataType.A),
            lambda z: z.set_ttl("www.example.com.", RdataType.A, 5),
        ],
        ids=["add", "replace", "remove", "set_ttl"],
    )
    def test_every_mutator_drops_the_table(self, zone, mutate):
        before = self.ask(zone, "www.example.com.")
        assert zone.compiled
        mutate(zone)
        assert zone.compiled == {}
        assert self.ask(zone, "www.example.com.") != before

    def test_a_refused_replace_still_drops_the_table(self, zone):
        """replace() removes the old set before add() validates the new
        one; the answer compiled from the old set must go with it."""
        assert self.ask(zone, "www.example.com.").answer
        with pytest.raises(ValueError):
            zone.replace("www.example.com.", RdataType.A, A("192.0.2.9"), ttl=-1)
        assert zone.get("www.example.com.", RdataType.A) is None
        assert not self.ask(zone, "www.example.com.").answer

    def test_table_resets_when_full(self, zone, monkeypatch):
        from repro.dns import zone as zone_module

        monkeypatch.setattr(zone_module, "_COMPILED_MAX", 3)
        for qtype in (RdataType.A, RdataType.AAAA, RdataType.MX, RdataType.NS):
            self.ask(zone, "www.example.com.", qtype)
            assert len(zone.compiled) <= 3
        assert list(zone.compiled) == [(Name("www.example.com."), RdataType.NS)]


class TestRenumbering:
    """§4.2 end to end: a renumbered zone answers with its new record set
    at once; a cache that took the old set keeps that very object until
    its TTL runs out.  Immutable RRsets are what make sharing them safe."""

    def test_zone_answers_new_at_once_cache_holds_old_until_expiry(self, mini_world):
        from repro.resolver.cache import Credibility

        ns_host = Name("ns1.example.tld.")
        zone, server = mini_world.child_zone, mini_world.child_server
        old = zone.get(ns_host, RdataType.A)
        resolver = mini_world.make_resolver()
        assert resolver.resolve(ns_host, RdataType.A, now=0.0).answers[0].rdatas == old.rdatas
        entry = resolver.cache.peek(ns_host, RdataType.A)
        assert entry.credibility is Credibility.AUTH_ANSWER
        assert entry.rrset is old  # by reference: zone -> response -> cache

        new = zone.replace(ns_host, RdataType.A, A("203.0.113.53"), ttl=old.ttl)
        assert new is not old and old.rdatas == (A(server.endpoint.address),)
        client = mini_world.topology.endpoint_in_region(
            mini_world.child_server.endpoint.region
        )
        query = Message.make_query(ns_host, RdataType.A)
        assert server.handle_query(query, client, now=1.0).answer[0] is new

        held = resolver.resolve(ns_host, RdataType.A, now=old.ttl - 1.0)
        assert held.cache_hit and held.answers[0].rdatas == old.rdatas
        assert resolver.cache.peek(ns_host, RdataType.A).rrset is old
        fresh = resolver.resolve(ns_host, RdataType.A, now=old.ttl + 1.0)
        assert not fresh.cache_hit and fresh.answers[0].rdatas == new.rdatas
        assert resolver.cache.peek(ns_host, RdataType.A).rrset is new

    @pytest.mark.parametrize(
        "field,value",
        [
            ("name", Name("x.")),
            ("rdtype", RdataType.AAAA),
            ("ttl", 1),
            ("rdatas", ()),
            ("rdclass", None),
        ],
    )
    def test_assigning_to_an_rrset_field_raises(self, zone, field, value):
        rrset = zone.get("www.example.com.", RdataType.A)
        with pytest.raises(AttributeError):
            setattr(rrset, field, value)
        with pytest.raises(AttributeError):
            delattr(rrset, field)
        assert rrset.with_ttl(1) is not rrset and rrset.ttl == 300


class TestToText:
    def test_renders_sorted(self, zone):
        text = zone.to_text()
        assert text.startswith("; zone example.com.")
        assert "www.example.com. 300 IN A 192.0.2.80" in text
