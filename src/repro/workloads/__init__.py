"""repro.workloads — deterministic scan target generation: the CT-log
style domain corpus (Table 3) and the IPv4 PTR space."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".corpus": ("FQDNS_PER_DOMAIN", "CorpusCensus", "CorpusConfig", "DomainCorpus", "census"),
        ".ipv4": (
            "PUBLIC_IPV4_COUNT",
            "dense_ptr_targets",
            "is_public",
            "permuted_ipv4",
            "ptr_names",
        ),
    },
)
