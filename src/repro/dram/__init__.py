"""DRAM Variable Retention Time from trap RTN (paper future-work #4).

The paper's conclusions: "RTN is thought to be responsible for Variable
Retention Time (VRT) in DRAMs [22], [23]".  This package models the
mechanism: a 1T1C DRAM cell whose storage-node leakage is modulated by
the state of a single defect (trap-assisted junction leakage, per
Restle [22] / Umeda [23]).  Because the defect toggles slowly compared
to a retention interval, repeated retention measurements of the *same*
cell jump between two discrete values — the VRT signature.
"""
