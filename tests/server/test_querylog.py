"""Tests for repro.server.querylog."""

from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.server.querylog import QueryLog, QueryLogEntry, QueryLogWriter


def entry(ts=0.0, client="10.0.0.1", qname="ns1.dns.nl.", qtype=RdataType.A,
          server="ns1.dns.nl", asn=64512):
    return QueryLogEntry(
        timestamp=ts,
        client_address=client,
        client_asn=asn,
        qname=Name(qname),
        qtype=qtype,
        server=server,
    )


def make_log(entries):
    log = QueryLog()
    for e in entries:
        log.append(e)
    return log


class TestBasics:
    def test_append_and_len(self):
        log = make_log([entry(), entry(ts=1.0)])
        assert len(log) == 2

    def test_clear(self):
        log = make_log([entry()])
        log.clear()
        assert len(log) == 0

    def test_iteration_order_preserved(self):
        log = make_log([entry(ts=2.0), entry(ts=1.0)])
        assert [e.timestamp for e in log] == [2.0, 1.0]


class TestAggregation:
    def test_unique_clients(self):
        log = make_log([entry(client="10.0.0.1"), entry(client="10.0.0.2"),
                        entry(client="10.0.0.1")])
        assert log.unique_clients() == {"10.0.0.1", "10.0.0.2"}

    def test_unique_ases(self):
        log = make_log([entry(asn=1), entry(asn=2), entry(asn=1)])
        assert log.unique_client_ases() == {1, 2}

    def test_by_group_sorted_timestamps(self):
        log = make_log([
            entry(ts=5.0, client="10.0.0.1", qname="ns1.dns.nl."),
            entry(ts=1.0, client="10.0.0.1", qname="ns1.dns.nl."),
            entry(ts=3.0, client="10.0.0.2", qname="ns1.dns.nl."),
        ])
        groups = log.by_group()
        assert groups[("10.0.0.1", Name("ns1.dns.nl."))] == [1.0, 5.0]
        assert len(groups) == 2

    def test_query_count_by_server(self):
        log = make_log([entry(server="s1"), entry(server="s1"), entry(server="s2")])
        assert log.query_count_by_server() == {"s1": 2, "s2": 1}

    def test_timeseries_bins(self):
        log = make_log([entry(ts=t) for t in (0.0, 5.0, 650.0)])
        series = log.timeseries(600.0)
        assert series == {0: 2, 1: 1}

    def test_timeseries_with_window(self):
        log = make_log([entry(ts=t) for t in (0.0, 700.0, 1300.0)])
        series = log.timeseries(600.0, start=600.0, end=1200.0)
        assert series == {0: 1}

    def test_timeseries_invalid_bin(self):
        import pytest

        with pytest.raises(ValueError):
            make_log([entry()]).timeseries(0)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = make_log([entry(), entry(ts=1.5, qname="www.domain7.nl.")])
        with QueryLogWriter(path) as writer:
            writer.extend(log)
        back = QueryLog.read_jsonl(path)
        assert back.entries == log.entries

    def test_unknown_qtype_round_trips(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with QueryLogWriter(path) as writer:
            writer.append(entry(qtype=RdataType(999)))
        back = QueryLog.read_jsonl(path)
        assert back.entries[0].qtype == 999
        assert back.entries[0].qtype.name == "TYPE999"

    def test_streaming_writer(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with QueryLogWriter(path) as writer:
            writer.append(entry())
            writer.extend([entry(ts=1.0), entry(ts=2.0)])
            assert writer.count == 3
        back = QueryLog.read_jsonl(path)
        assert len(back) == 3
        assert back.by_group()  # analysis-ready

    def test_writer_rejects_use_after_close(self, tmp_path):
        import pytest

        writer = QueryLogWriter(tmp_path / "x.jsonl")
        writer.close()
        with pytest.raises(ValueError):
            writer.append(entry())

    def test_entry_dict_codec(self):
        from repro.server.querylog import entry_from_dict, entry_to_dict

        original = entry(ts=3.25, client="192.0.2.9", asn=7)
        data = entry_to_dict(original)
        assert data["qtype"] == "A"
        assert entry_from_dict(data) == original
