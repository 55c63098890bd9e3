"""The layering gate: parallel dispatch stays inside ``repro.core.engine``,
transient ``pre_step`` coupling inside ``repro.cosim.engine`` and RTN
source injection inside ``repro.core.methodology``.

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
