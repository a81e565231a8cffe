#!/usr/bin/env python3
"""Walk through the wireless data-collection cost model.

A sensor application requests N samples at some bit precision; the radio
fragments them into packets and pays protocol overhead per packet.  This
script compares the bundled technology profiles and shows why per-bit
energy, not overhead, dominates the ranking.
"""

from ecal import (
    BLE5,
    LORAWAN,
    PayloadSpec,
    ZIGBEE,
    cumulative_transmission_energy,
    fixed_overhead_profile,
    packet_count,
    payload_bits,
    transmission_energy,
    transmission_energy_per_bit,
    transmitted_bits,
    without_packet_override,
)

spec = PayloadSpec(bits_per_sample=64, sample_count=256)
print(f"Requesting {spec.sample_count} double-precision samples "
      f"= {payload_bits(spec).bits} payload bits\n")

print(f"{'technology':>10} {'packets':>8} {'on-air bits':>12} "
      f"{'overhead %':>11} {'J per bit':>12} {'J per transfer':>15}")
for profile in (BLE5, ZIGBEE, LORAWAN):
    b_t = transmitted_bits(profile, spec)
    pct = 100 * profile.packet_overhead / profile.packet_capacity
    per_bit = transmission_energy_per_bit(profile)
    energy = transmission_energy(profile, b_t)
    print(f"{profile.name:>10} {packet_count(profile, spec):>8} {b_t.bits:>12} "
          f"{pct:>10.2f}% {per_bit.joules_per_bit:>12.4g} {energy.joules:>15.4g}")

# The bundled LoRaWAN profile pins its packet count at the published 9;
# the raw capacity rule gives 8.
strict = without_packet_override(LORAWAN)
print(f"\nLoRaWAN strict fragmentation: {transmitted_bits(strict, spec).bits} bits "
      f"vs {transmitted_bits(LORAWAN, spec).bits} with the pinned packet count")

# Overhead percentage experiment on a generic 2000-bit packet, 10 mW, 1 kb/s.
print("\nOverhead sweep (2000-bit packets, 10 mW at 1 kb/s):")
for pct in (1.0, 30.0, 50.0, 70.0):
    profile = fixed_overhead_profile(pct)
    b_t = transmitted_bits(profile, spec)
    energy = transmission_energy(profile, b_t)
    print(f"  {pct:>4.0f}% overhead -> {b_t.bits:>6} bits, {energy.joules:.5f} J")
print("Per-bit cost stays at P/R = 1e-05 J/b regardless of overhead;")
print("overhead inflates how many bits you pay for, not the price per bit.")

# A day of one-minute reports.
print("\nOne transfer per minute for 24 h:")
for profile in (BLE5, ZIGBEE, LORAWAN):
    series = cumulative_transmission_energy(profile, spec, interval_s=60.0, horizon_s=86400.0)
    print(f"  {profile.name:>10}: {series[-1][1].joules:.4g} J across {len(series) - 1} transfers")
