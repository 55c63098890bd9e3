"""Tests for the :mod:`repro.api` facade surface."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro import api

pytestmark = pytest.mark.tier1


class TestSurface:
    def test_every_blessed_name_resolves(self):
        for name in api.__all__:
            value = getattr(api, name)
            assert value is not None, name

    def test_all_matches_export_table(self):
        assert sorted(api.__all__) == sorted(api._EXPORTS)
        assert len(set(api.__all__)) == len(api.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_thing"):
            api.no_such_thing

    def test_dir_lists_surface(self):
        listed = dir(api)
        for name in api.__all__:
            assert name in listed

    def test_repro_reexports_api(self):
        import repro

        assert repro.api is api
        assert "api" in repro.__all__

    def test_resolved_names_match_deep_paths(self):
        from repro.core.ensemble import EnsembleRunner
        from repro.markov.batch import simulate_traps_batch

        assert api.EnsembleRunner is EnsembleRunner
        assert api.simulate_traps_batch is simulate_traps_batch


class TestLaziness:
    def test_import_repro_does_not_load_heavy_stacks(self):
        # Run in a clean interpreter: `import repro` must not drag in the
        # SPICE engine or the SRAM stack until an api name is touched.
        code = (
            "import sys, repro\n"
            "assert 'repro.sram' not in sys.modules\n"
            "assert 'repro.spice' not in sys.modules\n"
            "repro.api.SramCellSpec\n"
            "assert 'repro.sram' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_entry_points_load_only_what_they_run(self):
        # Package __init__s re-export nothing, so the ensemble skips the
        # packages it never calls.  The run paths need NumPy alone: the
        # CLI, the ensemble and a scenario lookup (which imports every
        # built-in scenario) load no SciPy module at all.
        code = (
            "import sys\n"
            "import repro.cli\n"
            "import repro.api\n"
            "repro.api.EnsembleRunner\n"
            "for name in ('repro.rtn.ye_baseline', 'repro.markov.analytic',\n"
            "             'repro.analysis', 'repro.verify', 'repro.cosim'):\n"
            "    assert name not in sys.modules, name\n"
            "repro.api.available_scenarios()\n"
            "repro.api.get_scenario('dram.retention').default_config(2)\n"
            "scipy = sorted(m for m in sys.modules\n"
            "               if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not scipy, scipy\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_access_caches_in_module_globals(self):
        api.__dict__.pop("OccupancyTrace", None)
        first = api.OccupancyTrace
        assert api.__dict__["OccupancyTrace"] is first
