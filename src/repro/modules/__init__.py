"""repro.modules — composable scan modules (Section 3.3).

Raw modules for every supported record type, lookup modules (alookup,
mxlookup, nslookup), misc modules (spf, dmarc, bind.version), the CAA
case-study module, and the all-nameservers case-study module.
"""

from .._lazy import lazy_exports

# the record-type modules register with the package; the rest register
# when the registry first meets a name it does not know (``base``)
from . import raw  # noqa: F401

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".allnameservers": ("AllNameserversModule",),
        ".axfr": ("AXFRModule",),
        ".base": (
            "ModuleContext",
            "ScanModule",
            "available_modules",
            "get_module",
            "register_module",
        ),
        ".lookups": ("ALookupModule", "MXLookupModule", "NSLookupModule"),
        ".misc": ("BindVersionModule", "CAAModule", "DMARCModule", "SPFModule"),
        ".openresolver": ("OpenResolverModule",),
        ".raw": ("RAW_MODULE_TYPES", "RawModule"),
    },
)
