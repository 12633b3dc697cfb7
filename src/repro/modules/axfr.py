"""AXFR module: attempt a zone transfer (RFC 5936).

Zone transfers run over TCP and are refused by almost every properly
configured server — measuring *who still allows them* is a classic DNS
hygiene survey.  Input lines are ``zone@server_ip`` (or just a zone,
which is resolved to its nameservers first in iterative mode)."""

from __future__ import annotations

from ..core import Status
from ..core.machine import SendQuery
from ..dnslib import Name, RRType
from .base import ModuleContext, ScanModule, register_module


@register_module
class AXFRModule(ScanModule):
    """Attempt zone transfers and record the outcome."""

    name = "AXFR"
    qtype = RRType.AXFR

    def lookup(self, raw_input: str, context: ModuleContext):
        text = raw_input.strip()
        if "@" in text:
            zone_text, _, server_ip = text.partition("@")
            servers = [(server_ip.strip(), None)]
            zone = Name.from_text(zone_text.strip())
        else:
            zone = Name.from_text(text)
            ns_result = yield from context.machine().resolve(zone, RRType.NS)
            servers = []
            for record in ns_result.answers:
                if int(record.rrtype) != int(RRType.NS):
                    continue
                addr_result = yield from context.machine().resolve(record.rdata.target, RRType.A)
                for r in addr_result.answers:
                    if int(r.rrtype) == int(RRType.A):
                        servers.append((r.rdata.address, record.rdata.target))
                        break

        attempts = []
        transferred = False
        records = 0
        for server_ip, ns_name in servers:
            server = f"{server_ip}:{context.port}"
            response = yield SendQuery(
                server_ip=server_ip,
                name=zone,
                qtype=RRType.AXFR,
                timeout=context.config.external_timeout,
                protocol="tcp",  # AXFR always rides TCP
            )
            if response is None:
                attempts.append({"server": server, "status": str(Status.TIMEOUT)})
                continue
            status = str(response.rcode)
            allowed = bool(response.answers) and str(response.rcode) == "NOERROR"
            attempts.append(
                {
                    "server": server,
                    "status": status,
                    "allowed": allowed,
                    "records": len(response.answers),
                }
            )
            if allowed:
                transferred = True
                records = max(records, len(response.answers))

        return {
            "name": text,
            "status": str(Status.NOERROR) if attempts else str(Status.ERROR),
            "data": {
                "transferable": transferred,
                "record_count": records,
                "attempts": attempts,
            },
        }
