#!/usr/bin/env python3
"""Storage write costs and the preprocessing FLOP ledger.

Cleaning is comparisons only (free under the counting convention); the
standardization step is what costs FLOPs, and normalization is exactly
three times min-max scaling.
"""

import math

from ecal import (
    DEFAULT_PROCESSING_UNIT,
    HDD,
    PayloadSpec,
    RawDataset,
    SSD,
    StandardizationMethod,
    clean,
    minmax_scale,
    normalize,
    payload_bits,
    preprocessing_energy,
    preprocessing_energy_per_bit,
    preprocessing_flops,
    storage_energy,
    storage_energy_per_bit,
)

spec = PayloadSpec(64, 256)
payload = payload_bits(spec)

print("Writing the 256-sample dataset once:")
for medium in (HDD, SSD):
    print(f"  {medium.name}: {medium.wh_per_terabyte} Wh/TB -> "
          f"{storage_energy_per_bit(medium).joules_per_bit:.4g} J/b -> "
          f"{storage_energy(medium, payload).joules:.4g} J for {payload.bits} bits")

# A small dataset with two broken readings.
raw = RawDataset((21.5, math.nan, 22.1, 21.9, math.nan, 23.4, 22.8, 21.2))
valid, clean_flops = clean(raw)
print(f"\nCleaning {raw.sample_count} samples with {raw.invalid_count} invalid: "
      f"{len(valid)} kept, {clean_flops.flops} FLOPs")

scaled, ledger = minmax_scale(valid)
print(f"min-max scaled into [{min(scaled):.3f}, {max(scaled):.3f}] "
      f"using {ledger.total.flops} FLOPs "
      f"({ledger.subtractions} sub, {ledger.divisions} div)")

normalized, ledger = normalize(valid)
print(f"normalized (mean ~{sum(normalized) / len(normalized):+.1e}) "
      f"using {ledger.total.flops} FLOPs "
      f"({ledger.additions} add, {ledger.subtractions} sub, "
      f"{ledger.multiplications} mul, {ledger.divisions} div, "
      f"{ledger.square_roots} sqrt)")

# Closed-form accounting used for all pricing.
print("\nClosed-form FLOP counts (what the energy model charges):")
for n in (64, 256, 1024):
    mm = preprocessing_flops(StandardizationMethod.MINMAX, n, 0)
    no = preprocessing_flops(StandardizationMethod.NORMALIZATION, n, 0)
    print(f"  n={n:>5}: min-max {mm.flops:>5}, normalization {no.flops:>5} "
          f"(ratio {no.flops / mm.flops:.0f})")

pu = DEFAULT_PROCESSING_UNIT
flops = preprocessing_flops(StandardizationMethod.NORMALIZATION, 256, 0)
t_pre, e_pre = preprocessing_energy(pu, flops)
per_bit = preprocessing_energy_per_bit(e_pre, spec)
print(f"\nNormalizing 256 samples on a {pu.preprocessing_power:.0f} W, "
      f"{pu.preprocessing_flops_per_s:.0e} FLOPs/s unit: "
      f"{t_pre:.3g} s, {e_pre.joules:.4g} J, {per_bit.joules_per_bit:.4g} J/b")
