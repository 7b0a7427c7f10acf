"""Tests for repro.dns.message."""

import pytest

from repro.dns.message import Flags, Message, Opcode, Question, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.record import ResourceRecord, RRset


def answer_rrset(name="example.com", ttl=300, address="192.0.2.1"):
    return RRset(Name(name), RdataType.A, ttl, [A(address)])


def ns_rrset(owner="com", target="a.gtld-servers.net", ttl=172800):
    return RRset(Name(owner), RdataType.NS, ttl, [NS(Name(target))])


class TestFlags:
    def test_bit_round_trip(self):
        flags = Flags(qr=True, aa=True, rd=True, ra=True)
        bits = flags.to_wire_bits(Opcode.QUERY, Rcode.NXDOMAIN)
        decoded, opcode, rcode = Flags.from_wire_bits(bits)
        assert decoded == flags
        assert opcode == Opcode.QUERY
        assert rcode == Rcode.NXDOMAIN

    def test_aa_bit_position(self):
        bits = Flags(aa=True, rd=False).to_wire_bits(Opcode.QUERY, Rcode.NOERROR)
        assert bits & 0x0400


class TestConstruction:
    def test_make_query(self):
        query = Message.make_query("example.com", RdataType.A, id=7)
        assert query.id == 7
        assert not query.flags.qr
        assert query.question == Question(Name("example.com"), RdataType.A)

    def test_make_response_echoes_question(self):
        query = Message.make_query("example.com", RdataType.A, id=9)
        response = query.make_response(authoritative=True)
        assert response.id == 9
        assert response.flags.qr and response.flags.aa
        assert response.question == query.question

    def test_response_preserves_rd(self):
        query = Message.make_query("x", RdataType.A, recursion_desired=False)
        assert not query.make_response().flags.rd


class TestSections:
    def test_add_and_section(self):
        message = Message()
        message.add(Section.ANSWER, answer_rrset())
        message.add(Section.AUTHORITY, ns_rrset())
        assert len(message.answer) == 1
        assert len(message.authority) == 1
        assert len(message.additional) == 0

    def test_all_records_tagged(self):
        message = Message()
        message.add(Section.ADDITIONAL, answer_rrset())
        tagged = list(message.all_records())
        record = ResourceRecord(Name("example.com"), RdataType.A, 300, A("192.0.2.1"))
        assert tagged == [(Section.ADDITIONAL, record)]

    def test_records_is_the_per_record_view(self):
        message = Message()
        ns = RRset(
            Name("com"), RdataType.NS, 172800,
            [NS(Name("a.gtld-servers.net")), NS(Name("b.gtld-servers.net"))],
        )
        message.add(Section.AUTHORITY, ns)
        assert message.rrsets(Section.AUTHORITY) == [ns]
        assert list(message.records(Section.AUTHORITY)) == list(ns.records())
        assert len(list(message.records(Section.AUTHORITY))) == 2

    def test_find_rrset(self):
        message = Message()
        message.add(Section.ANSWER, answer_rrset(), answer_rrset())
        rrset = message.find_rrset(Section.ANSWER, Name("example.com"), RdataType.A)
        assert rrset is not None and rrset.ttl == 300

    def test_find_rrset_returns_the_held_object(self):
        message = Message()
        held = answer_rrset()
        message.add(Section.ANSWER, held)
        assert message.find_rrset(Section.ANSWER, held.name, RdataType.A) is held

    def test_add_merges_a_second_set_with_the_same_key(self):
        """One RRset per (name, type, class) per section: rdatas appended,
        minimum TTL, at the first one's position."""
        message = Message()
        message.add(Section.ANSWER, answer_rrset(ttl=300, address="192.0.2.1"))
        message.add(Section.ANSWER, answer_rrset("other.example.com"))
        message.add(Section.ANSWER, answer_rrset(ttl=60, address="192.0.2.2"))
        assert len(message.answer) == 2
        merged = message.answer[0]
        assert merged.name == Name("example.com")
        assert merged.ttl == 60
        assert merged.rdatas == (A("192.0.2.1"), A("192.0.2.2"))
        # The same key in another section is a different set.
        message.add(Section.ADDITIONAL, answer_rrset(ttl=10))
        assert message.answer[0].ttl == 60 and message.additional[0].ttl == 10

    def test_find_rrset_missing(self):
        assert Message().find_rrset(Section.ANSWER, Name("x"), RdataType.A) is None

    def test_answer_rrset_matches_question(self):
        query = Message.make_query("example.com", RdataType.A)
        response = query.make_response()
        response.add(Section.ANSWER, answer_rrset())
        assert response.answer_rrset() is not None


class TestClassification:
    def test_referral_shape(self):
        message = Message(flags=Flags(qr=True))
        message.add(Section.AUTHORITY, ns_rrset())
        assert message.is_referral()

    def test_answer_is_not_referral(self):
        message = Message(flags=Flags(qr=True))
        message.add(Section.ANSWER, answer_rrset())
        message.add(Section.AUTHORITY, ns_rrset())
        assert not message.is_referral()

    def test_nxdomain_is_not_referral(self):
        message = Message(flags=Flags(qr=True), rcode=Rcode.NXDOMAIN)
        message.add(Section.AUTHORITY, ns_rrset())
        assert not message.is_referral()


class TestAging:
    def test_aged_decrements_all_sections(self):
        message = Message()
        message.add(Section.ANSWER, answer_rrset(ttl=300))
        message.add(Section.ADDITIONAL, answer_rrset(ttl=100))
        aged = message.aged(100)
        assert aged.answer[0].ttl == 200
        assert aged.additional[0].ttl == 0

    def test_aged_does_not_mutate(self):
        message = Message()
        message.add(Section.ANSWER, answer_rrset(ttl=300))
        message.aged(100)
        assert message.answer[0].ttl == 300


class TestWire:
    def full_message(self):
        query = Message.make_query("www.example.com", RdataType.A, id=0x1234)
        response = query.make_response(authoritative=True, recursion_available=True)
        response.add(Section.ANSWER, answer_rrset("www.example.com"))
        response.add(Section.AUTHORITY, ns_rrset("example.com", "ns1.example.com"))
        response.add(
            Section.ADDITIONAL,
            RRset(Name("ns1.example.com"), RdataType.A, 7200, [A("192.0.2.53")]),
        )
        return response

    def test_round_trip(self):
        message = self.full_message()
        decoded = Message.from_wire(message.to_wire())
        assert decoded.to_text() == message.to_text()

    def test_compression_reduces_size(self):
        message = self.full_message()
        assert len(message.to_wire()) < 120  # far below the uncompressed size

    def test_query_round_trip(self):
        query = Message.make_query("example.com", RdataType.NS, id=1)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.question == query.question
        assert not decoded.flags.qr

    def test_trailing_bytes_rejected(self):
        from repro.dns.wire import WireError

        blob = Message.make_query("x", RdataType.A).to_wire() + b"\x00"
        with pytest.raises(WireError):
            Message.from_wire(blob)

    def test_multi_question_rejected(self):
        from repro.dns.wire import WireError

        blob = bytearray(Message.make_query("x", RdataType.A).to_wire())
        blob[5] = 2  # QDCOUNT
        with pytest.raises(WireError):
            Message.from_wire(bytes(blob))

    @pytest.mark.parametrize("wire_ttl", [0x80000000, 0xC000012C, 0xFFFFFFFF])
    def test_ttl_with_top_bit_set_decodes_as_zero(self, wire_ttl):
        # RFC 2181 §8: a TTL whose most significant bit is set is read as 0.
        query = Message.make_query("example.com", RdataType.A, id=7)
        query.add(Section.ADDITIONAL, answer_rrset("x.example.com"))
        blob = bytearray(query.to_wire())
        blob[-10:-6] = wire_ttl.to_bytes(4, "big")  # TTL, RDLENGTH, 4-octet A
        decoded = Message.from_wire(bytes(blob))
        assert [rrset.ttl for rrset in decoded.additional] == [0]
        blob[-10:-6] = (0x7FFFFFFF).to_bytes(4, "big")
        assert Message.from_wire(bytes(blob)).additional[0].ttl == 0x7FFFFFFF


def golden_zone():
    from repro.dns.rdtypes import AAAA, CNAME
    from repro.dns.zone import Zone

    z = Zone("example.org.", default_ttl=3600)
    z.add_soa("ns1.example.org.")
    z.add("example.org.", RdataType.NS, [NS("ns1.example.org."), NS("ns2.example.org.")])
    z.add("ns1.example.org.", RdataType.A, A("192.0.2.53"))
    z.add("ns1.example.org.", RdataType.AAAA, AAAA("2001:db8::53"))
    z.add("ns2.example.org.", RdataType.A, A("192.0.2.54"))
    z.add("www.example.org.", RdataType.A, [A("192.0.2.80"), A("192.0.2.81")], ttl=300)
    z.add("alias.example.org.", RdataType.CNAME, CNAME("hop.example.org."), ttl=120)
    z.add("hop.example.org.", RdataType.CNAME, CNAME("www.example.org."), ttl=60)
    z.add(
        "sub.example.org.", RdataType.NS,
        [NS("ns.sub.example.org."), NS("ns.elsewhere.net.")], ttl=1800,
    )
    z.add("ns.sub.example.org.", RdataType.A, A("192.0.2.99"), ttl=1800)
    z.add("ns.sub.example.org.", RdataType.AAAA, AAAA("2001:db8::99"), ttl=900)
    return z


class TestWireGolden:
    """``to_wire`` bytes recorded at the last commit whose sections held
    individual records (94f8531): the RRset-native encoder must write the
    same octets.  (The truncated-UDP member of the set lives next to the
    frontend's truncation test, tests/serve/test_frontend.py.)"""

    EXPECTED = {
        "referral_with_glue": (
            "010181000001000000020002046465657003737562076578616d706c65036f72670000010001c011"
            "00020001000007080005026e73c011c01100020001000007080012026e7309656c73657768657265"
            "036e657400c03200010001000007080004c0000263c032001c000100000384001020010db8000000"
            "000000000000000099"
        ),
        "cname_chain": (
            "01028500000100040002000305616c696173076578616d706c65036f72670000010001c00c000500"
            "0100000078000603686f70c012c02f000500010000003c000603777777c012c04100010001000001"
            "2c0004c0000250c041000100010000012c0004c0000251c0120002000100000e100006036e7331c0"
            "12c0120002000100000e100006036e7332c012c0730001000100000e100004c0000235c073001c00"
            "0100000e10001020010db8000000000000000000000053c0850001000100000e100004c0000236"
        ),
        "rrsig_answer": (
            "01038500000100030002000303777777076578616d706c65036f72670000010001c00c0001000100"
            "00012c0004c0000250c00c000100010000012c0004c0000251c00c002e00010000012c002700010d"
            "030000012c7fffffff000000003039076578616d706c65036f7267003a3a3a3a3a3a3a3ac05f0002"
            "000100000e100006036e7331c05fc05f0002000100000e100006036e7332c05fc080000100010000"
            "0e100004c0000235c080001c000100000e10001020010db8000000000000000000000053c0920001"
            "000100000e100004c0000236"
        ),
        "nxdomain_soa": (
            "010485030001000000010000076d697373696e67076578616d706c65036f72670000010001c01400"
            "06000100000e10002e036e7331c0140a686f73746d617374657207696e76616c6964000000000100"
            "001c2000000e100012750000000e10"
        ),
        "edns_ecs": (
            "01058500000100020002000403777777076578616d706c65036f72670000010001c00c0001000100"
            "00012c0004c0000250c00c000100010000012c0004c0000251c0100002000100000e100006036e73"
            "31c010c0100002000100000e100006036e7332c010c04d0001000100000e100004c0000235c04d00"
            "1c000100000e10001020010db8000000000000000000000053c05f0001000100000e100004c00002"
            "3600002904d000000000000b0008000700011810c00002"
        ),
    }

    @staticmethod
    def messages():
        from repro.dns.ecs import ClientSubnet
        from repro.dns.rdtypes import RRSIG

        zone = golden_zone()

        def ask(qname, id):
            return zone.respond(Message.make_query(qname, RdataType.A, id=id))

        ecs = ask("www.example.org.", 0x0105)
        ecs.use_edns(options=ClientSubnet.from_ip("192.0.2.0", 24, scope=16).to_wire())
        # The A RRset followed by the RRSIG a signer encloses its TTL in
        # (RFC 4034 §3.1.4), with opaque signature bytes.
        signed = ask("www.example.org.", 0x0103)
        www = signed.answer[0]
        rrsig = RRSIG(type_covered=RdataType.A, algorithm=13, labels=3,
                      original_ttl=www.ttl, expiration=2**31 - 1, inception=0,
                      key_tag=12345, signer=Name("example.org."), signature=b"\x3a" * 8)
        # A zone's response sections are tuples it shares: the signed copy
        # gets a section of its own.
        signed.answer = [*signed.answer, RRset(www.name, RdataType.RRSIG, www.ttl, [rrsig])]
        return {
            "referral_with_glue": ask("deep.sub.example.org.", 0x0101),
            "cname_chain": ask("alias.example.org.", 0x0102),
            "rrsig_answer": signed,
            "nxdomain_soa": ask("missing.example.org.", 0x0104),
            "edns_ecs": ecs,
        }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_bytes_unchanged(self, name):
        assert self.messages()[name].to_wire().hex() == self.EXPECTED[name]

    def test_shapes_are_what_the_names_say(self):
        messages = self.messages()
        referral = messages["referral_with_glue"]
        assert referral.is_referral()
        assert [len(rrset) for rrset in referral.authority] == [2]
        assert [rrset.rdtype.name for rrset in referral.additional] == ["A", "AAAA"]
        chain = messages["cname_chain"]
        assert [rrset.rdtype.name for rrset in chain.answer] == ["CNAME", "CNAME", "A"]
        signed = messages["rrsig_answer"]
        assert [rrset.rdtype.name for rrset in signed.answer] == ["A", "RRSIG"]
        assert messages["nxdomain_soa"].rcode == Rcode.NXDOMAIN
        assert [rrset.rdtype.name for rrset in messages["nxdomain_soa"].authority] == ["SOA"]
        assert messages["edns_ecs"].edns.options


class TestText:
    def test_to_text_sections(self):
        message = self.make()
        text = message.to_text()
        assert ";; QUESTION" in text
        assert ";; ANSWER" in text

    def make(self):
        query = Message.make_query("example.com", RdataType.A)
        response = query.make_response()
        response.add(Section.ANSWER, answer_rrset())
        return response
