"""repro.ecosystem — the simulated global DNS.

Procedurally synthesised zones (root → TLD → provider-hosted domains,
plus the in-addr.arpa hierarchy), authoritative server models with the
paper's observed misbehaviours, and public recursive resolver models.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".deltas": ("ZoneDelta", "publish_zone_delta"),
        ".dnssec": ("EPOCH_BASE",),
        ".params": (
            "CLOUDFLARE_RESOLVER_IP",
            "GOOGLE_RESOLVER_IP",
            "ROOT_SERVER_IPS",
            "EcosystemParams",
            "ProviderProfile",
            "all_tlds",
            "tld_class",
        ),
        ".publicresolver": ("PublicResolver",),
        ".servers": (
            "ArpaServer",
            "InfraServer",
            "ProviderAuthServer",
            "RdnsOperatorServer",
            "RootServer",
            "TLDServer",
        ),
        ".universe": ("SimInternet", "build_internet"),
        ".zonegen": (
            "CAAProfile",
            "DnssecProfile",
            "DomainProfile",
            "NameserverInfo",
            "ZoneSynthesizer",
        ),
    },
)
