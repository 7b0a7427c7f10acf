"""DNS protocol substrate.

A self-contained implementation of the parts of the DNS that the paper's
experiments exercise: domain names with bailiwick semantics, resource
records and RRsets, query/response messages with the four RFC 1035 sections
and header flags, a wire-format codec with name compression, and zones with
delegations and glue.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "ecs": ("OPTION_CLIENT_SUBNET", "ClientSubnet", "extract_client_subnet"),
    "name": ("Name", "NameError_", "root"),
    "rdtypes": ("A", "AAAA", "CNAME", "DNSKEY", "MX", "NS", "OPT", "RRSIG", "SOA", "TXT",
                "OpaqueRdata", "Rdata", "RdataClass", "RdataType"),
    "record": ("ResourceRecord", "RRset"),
    "message": ("CLASSIC_UDP_PAYLOAD", "DEFAULT_EDNS_PAYLOAD", "Edns", "Flags", "Message",
                "Opcode", "Question", "Rcode", "Section"),
    "zone": ("LookupResult", "LookupStatus", "Zone", "ZoneError"),
    "ttl": ("TTL_MAX", "format_ttl", "parse_ttl", "validate_ttl"),
})
