"""repro.dnslib — a self-contained DNS wire-protocol library.

The analogue of the miekg/dns layer ZDNS builds on: domain names,
message encode/decode with compression, EDNS(0), and RDATA codecs for
every record type the paper lists.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".edns": ("EDNSInfo", "EDNSOption", "add_edns", "get_edns", "max_payload"),
        ".message": (
            "CODEC_STATS",
            "EDNS_UDP_PAYLOAD",
            "MAX_UDP_PAYLOAD",
            "Flags",
            "Message",
            "Question",
            "ResourceRecord",
            "clear_codec_caches",
            "codec_memo_stats",
            "decode_many",
        ),
        ".name": ("Name", "NameError_", "name_from_ipv4_ptr"),
        ".rdata": ("GenericRData", "RData", "rdata_class", "registered_types"),
        ".text_format": ("PARSEABLE_TYPES", "TextParseError", "rdata_from_text"),
        ".types": ("DNSClass", "Opcode", "Rcode", "RRType", "type_from_text"),
        ".wire": ("WireError", "WireReader", "WireWriter", "peek_header", "peek_txid"),
        ".zonefile": (
            "Zone",
            "ZoneParseError",
            "load_zone",
            "parse_zone",
            "parse_zone_lines",
            "zone_to_text",
        ),
    },
)
