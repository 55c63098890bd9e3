"""Test-support utilities shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness the resilience tests use to prove each recovery path; it is
stdlib-only and inert unless explicitly armed.
"""
