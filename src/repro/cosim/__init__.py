"""Circuit-agnostic RTN/transient co-simulation.

The package's one live-coupled RTN/transient loop, for *arbitrary*
circuits: attach a trap population to any MOSFET, run a transient, and
the traps evolve against the device's live bias while their occupancy
feeds back as an opposing current source.  :mod:`repro.core.coupled`
(the 6T cell) and :mod:`repro.oscillators.ring` (the ring oscillator)
are adapters over it.
"""
