"""Remaining record types: LOC."""

from __future__ import annotations

from ..types import RRType
from ..wire import WireError, WireReader, WireWriter
from . import RData, register

_POWERS_OF_TEN = [10**i for i in range(10)]


def _size_to_text(value: int) -> str:
    """Decode RFC 1876 exponent/mantissa size encoding into metres."""
    mantissa = (value >> 4) & 0x0F
    exponent = value & 0x0F
    if exponent >= len(_POWERS_OF_TEN):
        raise WireError(f"LOC size exponent {exponent} out of range")
    centimetres = mantissa * _POWERS_OF_TEN[exponent]
    metres, rem = divmod(centimetres, 100)
    return f"{metres}.{rem:02d}m" if rem else f"{metres}m"


def _angle_to_text(value: int, positive: str, negative: str) -> str:
    """Render a thousandths-of-arcsecond angle relative to 2**31."""
    value -= 2**31
    hemisphere = positive if value >= 0 else negative
    value = abs(value)
    msec = value % 1000
    value //= 1000
    seconds = value % 60
    value //= 60
    minutes = value % 60
    degrees = value // 60
    return f"{degrees} {minutes} {seconds}.{msec:03d} {hemisphere}"


@register(RRType.LOC)
class LOC(RData):
    """Geographic location (RFC 1876).

    Latitude/longitude are stored in thousandths of an arcsecond offset
    by 2**31; altitude in centimetres offset by 100 000 m.
    """

    __slots__ = ("version", "size", "horiz_pre", "vert_pre", "latitude", "longitude", "altitude")

    def __init__(
        self,
        latitude: int,
        longitude: int,
        altitude: int,
        size: int = 0x12,
        horiz_pre: int = 0x16,
        vert_pre: int = 0x13,
        version: int = 0,
    ):
        self.version = version
        self.size = size
        self.horiz_pre = horiz_pre
        self.vert_pre = vert_pre
        self.latitude = latitude
        self.longitude = longitude
        self.altitude = altitude

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u8(self.version)
        writer.write_u8(self.size)
        writer.write_u8(self.horiz_pre)
        writer.write_u8(self.vert_pre)
        writer.write_u32(self.latitude)
        writer.write_u32(self.longitude)
        writer.write_u32(self.altitude)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "LOC":
        if rdlength != 16:
            raise WireError(f"LOC rdlength {rdlength} != 16")
        version = reader.read_u8()
        size = reader.read_u8()
        horiz_pre = reader.read_u8()
        vert_pre = reader.read_u8()
        latitude = reader.read_u32()
        longitude = reader.read_u32()
        altitude = reader.read_u32()
        return cls(latitude, longitude, altitude, size, horiz_pre, vert_pre, version)

    def to_text(self) -> str:
        alt_cm = self.altitude - 100_000_00
        metres, rem = divmod(abs(alt_cm), 100)
        sign = "-" if alt_cm < 0 else ""
        alt = f"{sign}{metres}.{rem:02d}m" if rem else f"{sign}{metres}m"
        return (
            f"{_angle_to_text(self.latitude, 'N', 'S')} "
            f"{_angle_to_text(self.longitude, 'E', 'W')} {alt} "
            f"{_size_to_text(self.size)} {_size_to_text(self.horiz_pre)} "
            f"{_size_to_text(self.vert_pre)}"
        )
