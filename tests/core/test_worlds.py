"""Tests for repro.core.worlds — the canonical configurations."""

import pytest

from repro.core.worlds import (
    ROOT_DELEGATION_TTL,
    build_base_world,
    build_cachetest_world,
    build_cl_world,
    build_controlled_world,
    build_googleco_world,
    build_nl_world,
    build_uy_world,
)
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType


def direct_query(world, server_name, qname, qtype):
    from repro.net.topology import Region

    client = world.topology.endpoint_in_region(Region.EU, "test-client")
    query = Message.make_query(qname, qtype, recursion_desired=False)
    response, _ = world.network.exchange(
        client, world.address_of(server_name), query, 0.0
    )
    return response


def is_referral(response) -> bool:
    """A delegation: no answer, not authoritative, an NS set in authority."""
    return (
        not response.answer
        and not response.flags.aa
        and any(rrset.rdtype == RdataType.NS for rrset in response.authority)
    )


class TestBaseWorld:
    def test_root_servers_serve_root(self):
        world = build_base_world()
        response = direct_query(world, "a.root-servers.net", ".", RdataType.NS)
        assert response.flags.aa
        assert len(world.hints) == 2


class TestAddDelegatedZone:
    def test_mixed_bailiwick_servers(self):
        from repro.net.topology import Region

        world = build_base_world()
        servers = [("ns.hoster.net", Region.NA), ("ns1.example", Region.EU)]
        child = world.add_delegated_zone("example.", servers, 300, a_ttl=600)
        in_zone = world.address_of("ns1.example")

        assert child.default_ttl == 300
        assert str(child.soa.rdatas[0].mname) == "ns.hoster.net."
        ns = child.get("example.", RdataType.NS)
        assert [str(r.target) for r in ns.rdatas] == ["ns.hoster.net.", "ns1.example."]
        assert ns.ttl == 300
        glue = child.get("ns1.example.", RdataType.A)
        assert [str(r) for r in glue.rdatas] == [in_zone] and glue.ttl == 600
        assert child.get("ns.hoster.net.", RdataType.A) is None

        parent = world.root_zone
        delegation = parent.get("example.", RdataType.NS)
        assert [str(r.target) for r in delegation.rdatas] == ["ns.hoster.net.", "ns1.example."]
        assert delegation.ttl == ROOT_DELEGATION_TTL
        assert [str(r) for r in parent.get("ns1.example.", RdataType.A).rdatas] == [in_zone]
        assert parent.get("ns.hoster.net.", RdataType.A) is None
        assert world.zone("example.") is child
        assert list(world.servers)[-2:] == ["ns.hoster.net", "ns1.example"]


class TestClWorld:
    def test_table1_parent_ttls(self):
        world = build_cl_world()
        response = direct_query(world, "a.root-servers.net", "cl.", RdataType.NS)
        ns = [r for r in response.authority if r.rdtype == RdataType.NS]
        glue = [r for r in response.additional if r.rdtype == RdataType.A]
        assert ns[0].ttl == ROOT_DELEGATION_TTL
        assert glue[0].ttl == ROOT_DELEGATION_TTL

    def test_table1_child_ttls(self):
        world = build_cl_world()
        ns_answer = direct_query(world, "a.nic.cl", "cl.", RdataType.NS)
        a_answer = direct_query(world, "a.nic.cl", "a.nic.cl.", RdataType.A)
        assert ns_answer.answer[0].ttl == 3600
        assert a_answer.answer[0].ttl == 43200
        assert ns_answer.flags.aa and a_answer.flags.aa


class TestUyWorld:
    def test_initial_ttls(self):
        uy = build_uy_world()
        response = direct_query(uy.world, "a.nic.uy", "uy.", RdataType.NS)
        assert response.answer[0].ttl == 300

    def test_natural_experiment_change(self):
        uy = build_uy_world(child_ns_ttl=86400)
        response = direct_query(uy.world, "a.nic.uy", "uy.", RdataType.NS)
        assert response.answer[0].ttl == 86400
        assert uy.child_ns_ttl == 86400

    def test_parent_unchanged_by_child_change(self):
        uy = build_uy_world(child_ns_ttl=86400)
        response = direct_query(uy.world, "a.root-servers.net", "uy.", RdataType.NS)
        assert response.authority[0].ttl == ROOT_DELEGATION_TTL


class TestGoogleCoWorld:
    def test_parent_ns_ttl_900(self):
        world = build_googleco_world()
        response = direct_query(world, "ns.cctld.co", "google.co.", RdataType.NS)
        assert is_referral(response)
        assert response.authority[0].ttl == 900

    def test_child_ns_ttl_345600(self):
        world = build_googleco_world()
        response = direct_query(world, "ns1.google.com", "google.co.", RdataType.NS)
        assert response.flags.aa
        assert response.answer[0].ttl == 345600

    def test_servers_out_of_bailiwick(self):
        world = build_googleco_world()
        response = direct_query(world, "ns.cctld.co", "google.co.", RdataType.NS)
        assert not response.additional  # no glue possible


class TestCachetestWorld:
    def test_in_bailiwick_glue_present(self):
        ct = build_cachetest_world(in_bailiwick=True)
        response = direct_query(
            ct.world, "ns1.cachetest.net", "x.sub.cachetest.net.", RdataType.AAAA
        )
        assert is_referral(response)
        assert any(r.name == Name("ns1.sub.cachetest.net.") for r in response.additional)

    def test_out_of_bailiwick_no_glue(self):
        ct = build_cachetest_world(in_bailiwick=False)
        response = direct_query(
            ct.world, "ns1.cachetest.net", "x.sub.cachetest.net.", RdataType.AAAA
        )
        assert is_referral(response)
        assert not response.additional

    def test_wildcard_answers_with_probe_ids(self):
        ct = build_cachetest_world(in_bailiwick=True)
        client_answer = ct.sub_zone_old.lookup("p77.sub.cachetest.net.", RdataType.AAAA)
        assert str(client_answer.rrsets[0].rdatas[0]) == ct.old_answer
        assert client_answer.rrsets[0].ttl == 60

    def test_renumber_changes_glue_only(self):
        ct = build_cachetest_world(in_bailiwick=True)
        ct.renumber()
        parent = ct.world.zone("cachetest.net.")
        glue = parent.get("ns1.sub.cachetest.net.", RdataType.A)
        assert str(glue.rdatas[0]) == ct.new_server.endpoint.address
        # Old VM still serves its original data.
        old = ct.sub_zone_old.get("ns1.sub.cachetest.net.", RdataType.A)
        assert str(old.rdatas[0]) == ct.old_server.endpoint.address

    def test_renumber_out_of_bailiwick_updates_com_glue(self):
        ct = build_cachetest_world(in_bailiwick=False)
        ct.renumber()
        com = ct.world.zone("com.")
        glue = com.get("ns1.zurrundedu.com.", RdataType.A)
        assert str(glue.rdatas[0]) == ct.new_server.endpoint.address

    def test_take_child_offline(self):
        from repro.net.transport import NetworkTimeout
        from repro.net.topology import Region

        ct = build_cachetest_world(in_bailiwick=False)
        ct.take_child_offline()
        client = ct.world.topology.endpoint_in_region(Region.EU)
        with pytest.raises(NetworkTimeout):
            ct.world.network.exchange(
                client,
                ct.old_server.endpoint.address,
                Message.make_query("sub.cachetest.net.", RdataType.NS),
                0.0,
                retries=0,
            )

    def test_old_and_new_answers_differ(self):
        ct = build_cachetest_world()
        assert ct.old_answer != ct.new_answer


class TestNlWorld:
    def test_four_servers_two_monitored(self):
        nl = build_nl_world(domain_count=20)
        assert len(nl.server_names) == 4
        assert nl.monitored == ["ns1.dns.nl", "ns3.dns.nl"]

    def test_glue_at_root_two_days(self):
        nl = build_nl_world(domain_count=10)
        response = direct_query(nl.world, "a.root-servers.net", "nl.", RdataType.NS)
        glue = [r for r in response.additional if r.rdtype == RdataType.A]
        assert glue and all(r.ttl == ROOT_DELEGATION_TTL for r in glue)

    def test_child_a_ttl_one_hour(self):
        nl = build_nl_world(domain_count=10)
        response = direct_query(nl.world, "ns1.dns.nl", "ns1.dns.nl.", RdataType.A)
        assert response.answer[0].ttl == 3600

    def test_out_of_bailiwick_server_resolvable(self):
        nl = build_nl_world(domain_count=10)
        response = direct_query(nl.world, "ns.isc.org", "sns-pb.isc.org.", RdataType.A)
        assert response.flags.aa and response.answer

    def test_content_domains_served(self):
        nl = build_nl_world(domain_count=10)
        response = direct_query(nl.world, "ns.hoster0.nl", "www.domain0.nl.", RdataType.A)
        assert response.flags.aa and response.answer


class TestControlledWorld:
    def test_anycast_has_45_sites(self):
        world = build_controlled_world()
        assert len(world.anycast.sites) == 45

    def test_ttl_configurations(self):
        world = build_controlled_world()
        assert world.zone_unicast_60.get(
            "*.ttl60.mapache-de-madrid.co.", RdataType.AAAA
        ).ttl == 60
        assert world.zone_unicast_86400.get(
            "*.ttl86400.mapache-de-madrid.co.", RdataType.AAAA
        ).ttl == 86400

    def test_unicast_answers(self):
        world = build_controlled_world()
        response = direct_query(
            world.world,
            "ns1-unicast.mapache-de-madrid.co",
            "p5.ttl60.mapache-de-madrid.co.",
            RdataType.AAAA,
        )
        assert response.flags.aa and response.answer[0].ttl == 60


def describe_world(built) -> str:
    """Everything a builder decides, as canonical text: endpoint
    allocation, server registration, hints, every zone's records in
    insertion order, and the fabric's first latency draws."""
    world = getattr(built, "world", built)
    endpoints = world.topology.endpoints
    lines = [f"{e.address} {e.region.name} {e.asn} {e.name}" for e in endpoints]
    lines += [f"server {name} {addr}" for name, addr in world._server_addresses.items()]
    lines += [f"registered {name} {s.endpoint.address}" for name, s in world.servers.items()]
    lines += [f"hint {name} {addr}" for name, addr in world.hints.items()]
    for origin, zone in world.zones.items():
        lines.append(f"zone {origin} default_ttl={zone.default_ttl}")
        lines += [rrset.to_text() for rrset in zone.rrsets()]
    latency = world.network.latency
    lines += [repr(latency.rtt(endpoints[0], endpoints[-1])) for _ in range(20)]
    return "\n".join(lines)


class TestSingleZoneWorldsFrozen:
    """Every builder's structure, frozen.  The single-zone testbeds share
    one root/child construction helper and the paper worlds write their
    delegations through ``World.add_delegated_zone``; these digests were
    captured from the hand-written builders those helpers replaced, so
    endpoint allocation, record order and RNG draws are pinned to what
    every recorded figure was produced with."""

    EXPECTED = {
        ("ecs_cdn", 60, 0): "90903e8317abf679bf26bc0fae6384ce3feeb04c75958a4c63573c44429e203c",
        ("ecs_cdn", 60, 7): "45f13d612653d84ad839179a0a45a3439a1d14d76f86af08dd474a3920faa7bb",
        ("ecs_cdn", 86400, 0): "0598662cf8116205005a6755f24be1a956d2e666d7ff1d0dc0f798e290bc65ef",
        ("ecs_cdn", 86400, 7): "50983793e26920b2b4f720174b4e43c83997f86f1365a5647db4b48a38a944b0",
        ("hotset", 60, 0): "f625b0a1b614130034532d28e395d5f3cf5332f3bc8d6875f8fb5af94792a6e6",
        ("hotset", 60, 7): "67adefd2ac3c6a8fc593ff4c2b93a5f553aa3fa9adab425f24101d51db710675",
        ("hotset", 86400, 0): "221f41617c319454252c504fd6bcdbc5bb8945f398066b751d362ec83fa8a8a3",
        ("hotset", 86400, 7): "2d947e9a0201e6d33a021647b37a99957892949340c40aa01a424fbea15e72a8",
        ("outage", 60, 0): "566490b24c24dfb87f1317953daf9c4b18e10af6c4db71b10b86fe49fc2d599c",
        ("outage", 60, 7): "73462cc70b8572872043779bf9f6f46a554c4692645779cda1ebd97cfc15d2ff",
        ("outage", 86400, 0): "9c1afecff08175433db9a8367598de6f43de8a5f922342ac35471ca177fd7f97",
        ("outage", 86400, 7): "86e861e0c5cde5ac5ad56d34bb1ec612cb8fd840ad486da672a77373244b069c",
        ("push", 60, 0): "3fc830bb4107f993b130cd915c6b83e310c6fccfad86e2831ebb7d1d8e95c3aa",
        ("push", 60, 7): "5f781bb4eaee5f1656acc7fa5dddc2f3b4cfc2b4d49d6ba98a687498c10cd39c",
        ("push", 86400, 0): "eedcf94cf0e79338420e3927c80b92cb603b75de6e574f86d24de971fe3d52e9",
        ("push", 86400, 7): "d2498507de3e4d1efd5bc9cc91ceccc2349b39a594b4b696bfdc37c609e5a404",
    }

    @pytest.mark.parametrize("name,ttl,seed", sorted(EXPECTED))
    def test_matches_frozen_description(self, name, ttl, seed):
        import hashlib

        from repro.core import worlds

        built = getattr(worlds, f"build_{name}_world")(ttl, seed)
        digest = hashlib.sha256(describe_world(built).encode()).hexdigest()
        assert digest == self.EXPECTED[(name, ttl, seed)]

    #: The paper worlds: label -> (builder name, keyword arguments).
    PAPER_WORLDS = {
        "base": ("base", {}),
        "cl": ("cl", {}),
        "googleco": ("googleco", {}),
        "controlled": ("controlled", {}),
        "uy-300": ("uy", {"child_ns_ttl": 300}),
        "uy-86400": ("uy", {"child_ns_ttl": 86400}),
        "cachetest-in": ("cachetest", {"in_bailiwick": True}),
        "cachetest-out": ("cachetest", {"in_bailiwick": False}),
        "nl-120": ("nl", {"domain_count": 120}),
    }

    PAPER_EXPECTED = {
        ("base", 0): "33abcbd0b149c01fdb8b9683ec0c95fb25e5056551b6926c33e51e298811bb4e",
        ("base", 7): "12852d5bc78eaea5d5d470dbe4ee268c6064a3930ab1239d9522c473c892165a",
        ("cachetest-in", 0): "dde0bc61ff8cd8b7f68c0783a073c93e9c07b240acccd7bcfab73992be33fdc1",
        ("cachetest-in", 7): "73c10e176d6dd792ca657ecfe8058c5d1786ee3111e4ad341ccb0d7d07c0b69e",
        ("cachetest-out", 0): "88705036c69f74e8970d74cbc1a0b6f7f678946ed4b71e16d40a7d3f72b0c373",
        ("cachetest-out", 7): "0e7d66208001caab5c1ef4d9f1076a89e382e0ce2622e0c0d9c4d05e7b99c4ac",
        ("cl", 0): "78c2983f881e7ae342b8d4eb709bfbe50d2b186923bcfaf04fdb034fc38f5977",
        ("cl", 7): "7a03741162150124ee643788f977127cf9b7f22299a5b3b3298a55bdf89ed1cf",
        ("controlled", 0): "a53f197933e1bc3a8e6274155faa85f64e1f4a69e5b87bbd2f3516629424bd77",
        ("controlled", 7): "0c54451f870a543442d6ef24da97ccedecc6a315dc3dfd9952717f4c44af050e",
        ("googleco", 0): "cce25fa774d2300678d1811242e110a537d51e11ce978bcd91864ec3b03f1ef1",
        ("googleco", 7): "100b908569a766bac906161dc1f3e64635ed2c2c0dd915078dd0f35481331e12",
        ("nl-120", 0): "f8f26f707426cc692156efdc2e9ba48ca9963a009fa04456b127ac895ecead45",
        ("nl-120", 7): "db2ae97ecea08f92969610a54dfd05a1703306aa0d136d30ea565ab2f94056f0",
        ("uy-300", 0): "0a365e2fd82119f0e617d2d4edefcbf7f8dd180f20e64d7bc74106a450d302ae",
        ("uy-300", 7): "2013ca85f347a4e16126ebe4a45f483aba562ce8bbf3a35ef6c51d87cf823e1a",
        ("uy-86400", 0): "952f09bc352298fa6578c0ebe859eebb04828cbd3eece6f5279f8886f3db944f",
        ("uy-86400", 7): "550a44761fac4101e50daf473031f3fbd17b7cfa781917e64a9aa17f0ed0dbe5",
    }

    @pytest.mark.parametrize("label,seed", sorted(PAPER_EXPECTED))
    def test_paper_world_matches_frozen_description(self, label, seed):
        import hashlib

        from repro.core import worlds

        name, kwargs = self.PAPER_WORLDS[label]
        built = getattr(worlds, f"build_{name}_world")(seed=seed, **kwargs)
        digest = hashlib.sha256(describe_world(built).encode()).hexdigest()
        assert digest == self.PAPER_EXPECTED[(label, seed)]
