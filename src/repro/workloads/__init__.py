"""repro.workloads — deterministic scan target generation: the CT-log
style domain corpus (Table 3) and the IPv4 PTR space."""

from .corpus import (
    FQDNS_PER_DOMAIN,
    CorpusCensus,
    CorpusConfig,
    DomainCorpus,
    census,
)
from .ipv4 import (
    PUBLIC_IPV4_COUNT,
    dense_ptr_targets,
    is_public,
    permuted_ipv4,
    ptr_names,
)

__all__ = [
    "CorpusCensus",
    "CorpusConfig",
    "DomainCorpus",
    "FQDNS_PER_DOMAIN",
    "PUBLIC_IPV4_COUNT",
    "census",
    "dense_ptr_targets",
    "is_public",
    "permuted_ipv4",
    "ptr_names",
]
