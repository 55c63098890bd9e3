"""The layering gate: parallel dispatch stays inside ``repro.core.engine``,
transient ``pre_step`` coupling inside ``repro.cosim.engine``, RTN
source injection inside ``repro.core.methodology``, the SPICE package's
private names inside ``repro.spice``, checkpoint writing inside
``repro.core.scenario``, per-trap propensity construction inside
``repro.markov``, trace materialisation inside
``repro.markov.occupancy``, per-trap objects off the sampling path,
imports out of package ``__init__``s (``repro.api`` is the one facade)
and no private NumPy/SciPy API anywhere.

Runs ``scripts/check_layers.py`` in-process (tier-1, so a violation
fails every CI lane, not just the lint job) and pins down the checker's
own behaviour on synthetic trees.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_layers", REPO_ROOT / "scripts" / "check_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_source_tree_has_no_layering_violations(capsys):
    checker = _load_checker()
    assert checker.main([]) == 0
    out = capsys.readouterr().out
    assert "0 layering violations" in out


def test_checker_flags_direct_pool_imports(tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "engine.py").write_text(
        "import multiprocessing\n")
    (tmp_path / "rogue.py").write_text(
        "def run():\n    from multiprocessing import Pool\n    return Pool\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "rogue.py" in err and "multiprocessing" in err
    assert "engine.py" not in err  # the engine is allowed


def test_checker_flags_multiprocessing_elsewhere_in_core(tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "scenario.py").write_text(
        "import multiprocessing\n")
    assert checker.main([str(tmp_path)]) == 1
    assert "scenario.py" in capsys.readouterr().err


def test_checker_flags_pre_step_outside_the_cosim_engine(tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "cosim").mkdir()
    (tmp_path / "cosim" / "engine.py").write_text(
        "options = TransientOptions(pre_step=hook)\n")
    (tmp_path / "ring.py").write_text(
        "options = TransientOptions(record_every=2, pre_step=hook)\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "ring.py:1" in err and "pre_step" in err
    assert "engine.py" not in err  # the engine is the loop's home


def test_checker_flags_injection_outside_the_methodology(tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "methodology.py").write_text(
        "attach_rtn_sources(cell, traces, scale=1.0)\n")
    (tmp_path / "core" / "ensemble.py").write_text(
        "import x\nx.attach_rtn_sources(cell, traces)\n")
    (tmp_path / "rogue.py").write_text(
        "from x import attach_rtn_sources\nattach_rtn_sources(cell, t)\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "ensemble.py:2" in err and "rogue.py:2" in err
    assert "attach_rtn_sources" in err
    assert "methodology.py" not in err  # the injected pass's home


def test_checker_flags_private_spice_imports_outside_spice(tmp_path, capsys):
    checker = _load_checker()
    for package in ("spice", "verify", "sram"):
        (tmp_path / package).mkdir()
    (tmp_path / "spice" / "dcop.py").write_text(
        "from .mna import _GMIN\nfrom ._helpers import x\n")
    (tmp_path / "verify" / "spice_checks.py").write_text(
        "from ..spice.dcop import GMIN_FLOOR, _assemble_factory\n")
    (tmp_path / "sram" / "cell.py").write_text(
        "import repro.spice._internal\n"
        "from repro.spice.mna import StampProgram\n"
        "from repro.spice import _stamps\n"
        "from ..devices.ekv import _softplus\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "spice_checks.py:1" in err
    assert "repro.spice.dcop._assemble_factory" in err
    assert "cell.py:1" in err and "cell.py:3" in err
    assert "cell.py:2" not in err  # public names are fine
    assert "cell.py:4" not in err  # other packages are not this rule's
    assert "dcop.py" not in err  # the SPICE package may use its own


def test_checker_flags_private_numpy_and_scipy_anywhere(tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "spice").mkdir()
    (tmp_path / "spice" / "newton.py").write_text(
        "from numpy.linalg import _umath_linalg\n"
        "import numpy.linalg._umath_linalg as fast\n"
        "from scipy.special._ufuncs import expit\n"
        "import numpy as np\n"
        "from numpy import linalg\n"
        "solve = np.linalg._umath_linalg.solve1\n"
        "core = linalg._umath_linalg\n"
        "public = np.linalg.solve, np.__version__\n"
        "from numpy.linalg import solve, LinAlgError\n"
        "from ._helpers import x\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    for line in (1, 2, 3):
        assert f"newton.py:{line}:" in err
    assert "numpy.linalg._umath_linalg.solve1" in err  # newton.py:6
    assert "newton.py:7:" in err
    for line in (4, 5, 8, 9, 10):
        assert f"newton.py:{line}:" not in err  # public, or our own


def test_checker_flags_checkpoints_outside_the_scenario_layer(tmp_path,
                                                             capsys):
    checker = _load_checker()
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "scenario.py").write_text(
        "checkpoint = RunCheckpoint(checkpoint_dir)\n")
    (tmp_path / "core" / "ensemble.py").write_text(
        "from .resilience import RunCheckpoint\n"
        "checkpoint = RunCheckpoint(directory)\n")
    (tmp_path / "rogue.py").write_text(
        "import resilience\nresilience.RunCheckpoint(path).save()\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "ensemble.py:2" in err and "rogue.py:2" in err
    assert "RunCheckpoint" in err
    assert "ensemble.py:1" not in err  # importing the class is not writing
    assert "scenario.py" not in err  # run_scenario is the one writer


def test_checker_flags_per_trap_propensities_outside_markov(tmp_path,
                                                           capsys):
    checker = _load_checker()
    for package in ("markov", "traps", "rtn"):
        (tmp_path / package).mkdir()
    (tmp_path / "markov" / "batch.py").write_text(
        "prop = SampledTwoStatePropensity(times=t, capture_values=c,\n"
        "                                 emission_values=e)\n")
    (tmp_path / "traps" / "propensity.py").write_text(
        "from ..markov.propensity import SampledTwoStatePropensity\n"
        "prop = SampledTwoStatePropensity(times=t, capture_values=c,\n"
        "                                 emission_values=e)\n")
    (tmp_path / "rtn" / "generator.py").write_text(
        "import propensity\n"
        "prop = propensity.SampledTwoStatePropensity(times=t)\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "propensity.py:2" in err and "generator.py:2" in err
    assert "SampledTwoStatePropensity" in err
    assert "propensity.py:1" not in err  # importing the class is fine
    assert "batch.py" not in err  # the markov package owns the class


def test_checker_flags_propensity_cache_calls_outside_the_engine(tmp_path,
                                                                 capsys):
    checker = _load_checker()
    for package in ("core", "sram"):
        (tmp_path / package).mkdir()
    (tmp_path / "core" / "engine.py").write_text(
        "def propensity_cache():\n"
        "    return _CACHE\n"
        "propensity_cache().clear()\n")
    (tmp_path / "core" / "ensemble.py").write_text(
        "from .engine import propensity_cache\n"
        "batch = propensity_cache().population(traps, tech, t, v)\n")
    (tmp_path / "sram" / "array.py").write_text(
        "from ..core import engine\n"
        "table = engine.propensity_cache().population(traps, tech, t, v)\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "ensemble.py:2" in err and "array.py:2" in err
    assert "propensity_cache" in err
    assert "ensemble.py:1" not in err  # importing the name is not a call
    assert "engine.py" not in err  # the engine defines the cache


def test_checker_flags_trusted_traces_outside_occupancy(tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "markov").mkdir()
    (tmp_path / "markov" / "occupancy.py").write_text(
        "trace = OccupancyTrace._trusted(times, states)\n")
    (tmp_path / "markov" / "batch.py").write_text(
        "from .occupancy import OccupancyTrace\n"
        "traces = [OccupancyTrace._trusted(t, s) for t, s in pairs]\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "batch.py:2" in err and "_trusted" in err
    assert "batch.py:1" not in err  # importing the class is fine
    assert "occupancy.py" not in err  # the flat type materialises traces


def test_checker_flags_trap_objects_on_the_sampling_path(tmp_path, capsys):
    checker = _load_checker()
    for package in ("traps", "core", "dram"):
        (tmp_path / package).mkdir()
    (tmp_path / "traps" / "trap.py").write_text(
        "trap = Trap(y_tr=y, e_tr=e)\n")
    (tmp_path / "traps" / "profiling.py").write_text(
        "from .trap import Trap, TrapPopulation\n"
        "traps = [Trap(y_tr=y, e_tr=e) for y, e in pairs]\n")
    (tmp_path / "core" / "ensemble.py").write_text(
        "import repro.traps.trap as t\nextra = t.Trap(1e-9, 0.1)\n")
    (tmp_path / "dram" / "cell.py").write_text(
        "defect = Trap(y_tr=y, e_tr=e)\n")
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "profiling.py:2" in err and "ensemble.py:2" in err
    assert "constructs Trap" in err
    assert "profiling.py:1" not in err  # importing the class is fine
    assert "trap.py" not in err  # the population builds Traps on access
    assert "cell.py" not in err  # a single hand-placed trap is fine


def test_checker_flags_imports_in_package_inits(tmp_path, capsys):
    checker = _load_checker()
    for package in ("obs", "core", "traps"):
        (tmp_path / package).mkdir()
    (tmp_path / "__init__.py").write_text(
        '"""Root."""\nfrom . import api, constants, errors\n')
    (tmp_path / "obs" / "__init__.py").write_text(
        '"""Instruments."""\nfrom .tracer import Tracer\n')
    (tmp_path / "core" / "__init__.py").write_text(
        '"""Engine guide."""\n\nfrom .ensemble import EnsembleRunner\n')
    (tmp_path / "core" / "ensemble.py").write_text(
        "from ..traps.trap import TrapPopulation\n")
    (tmp_path / "traps" / "__init__.py").write_text(
        '"""Trap guide."""\n\n\ndef helper():\n    import numpy\n')
    assert checker.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "core/__init__.py:3" in err and "traps/__init__.py:5" in err
    assert "package __init__" in err
    assert "ensemble.py" not in err  # submodules import freely
    assert "obs/__init__.py" not in err  # the instrumentation module
    assert f"{tmp_path}/__init__.py" not in err  # the root binds api


def test_checker_catches_smuggled_futures(tmp_path):
    checker = _load_checker()
    (tmp_path / "sneaky.py").write_text("from concurrent import futures\n")
    assert checker.main([str(tmp_path)]) == 1


def test_checker_ignores_unrelated_imports(tmp_path):
    checker = _load_checker()
    (tmp_path / "clean.py").write_text(
        "import numpy\nfrom concurrent_lib import thing\n")
    assert checker.main([str(tmp_path)]) == 0


def test_exemptions_still_carry_their_rationale():
    checker = _load_checker()
    src = REPO_ROOT / "src" / "repro"
    for relative, reason in checker.EXEMPT.items():
        assert (src / relative).exists(), relative
        assert reason  # an exemption without a why is a violation


def test_banned_list_is_the_documented_one():
    checker = _load_checker()
    assert checker.BANNED == ("multiprocessing", "concurrent.futures")
