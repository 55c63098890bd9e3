"""Ring-oscillator RTN analysis (paper future-work #4).

The paper's conclusions: "RTN is also known to impact ring oscillators
[3] ... In future, we would like to extend SAMURAI to conduct RTN
analysis for all these different circuits."  This package does that for
the CMOS ring oscillator: build the ring from the same EKV devices,
co-simulate a trap population against the live node voltages (the
oscillator's bias is never stationary, so the coupled treatment is the
only honest one) and measure the per-cycle period jitter RTN induces.
"""
