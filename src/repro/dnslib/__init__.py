"""repro.dnslib — a self-contained DNS wire-protocol library.

The analogue of the miekg/dns layer ZDNS builds on: domain names,
message encode/decode with compression, EDNS(0), and RDATA codecs for
every record type the paper lists.
"""

from .edns import EDNSInfo, EDNSOption, add_edns, get_edns, max_payload
from .message import (
    CODEC_STATS,
    EDNS_UDP_PAYLOAD,
    MAX_UDP_PAYLOAD,
    Flags,
    Message,
    Question,
    ResourceRecord,
    clear_codec_caches,
    codec_memo_stats,
    decode_many,
)
from .name import Name, NameError_, name_from_ipv4_ptr
from .rdata import GenericRData, RData, rdata_class, registered_types
from .text_format import PARSEABLE_TYPES, TextParseError, rdata_from_text
from .types import DNSClass, Opcode, Rcode, RRType, type_from_text
from .wire import WireError, WireReader, WireWriter, peek_header, peek_txid
from .zonefile import (
    Zone,
    ZoneParseError,
    load_zone,
    parse_zone,
    parse_zone_lines,
    zone_to_text,
)

__all__ = [
    "CODEC_STATS",
    "DNSClass",
    "EDNSInfo",
    "EDNSOption",
    "EDNS_UDP_PAYLOAD",
    "Flags",
    "GenericRData",
    "MAX_UDP_PAYLOAD",
    "Message",
    "Name",
    "NameError_",
    "Opcode",
    "PARSEABLE_TYPES",
    "Question",
    "RData",
    "TextParseError",
    "Zone",
    "ZoneParseError",
    "Rcode",
    "ResourceRecord",
    "RRType",
    "WireError",
    "WireReader",
    "WireWriter",
    "add_edns",
    "clear_codec_caches",
    "codec_memo_stats",
    "decode_many",
    "get_edns",
    "load_zone",
    "max_payload",
    "name_from_ipv4_ptr",
    "parse_zone",
    "parse_zone_lines",
    "peek_header",
    "peek_txid",
    "rdata_class",
    "rdata_from_text",
    "registered_types",
    "type_from_text",
    "zone_to_text",
]
