"""Outside-in performance benchmark of the SAMURAI reproduction.

``python -m benchmarks.perf run`` measures every workload end to end and
layer by layer; ``python -m benchmarks.perf compare A.json B.json`` checks
two result files against the bounds in ``BENCHMARK.json``.  See
``benchmarks/perf/README.md``.
"""
