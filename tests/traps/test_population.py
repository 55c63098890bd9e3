"""Tests for trap populations as columns (:class:`TrapPopulation`) and the
initial-state draw from a rate table's first column."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.devices.technology import TECH_90NM
from repro.errors import ModelError
from repro.traps.profiling import TrapProfiler
from repro.traps.propensity import (
    draw_initial_states,
    equilibrium_occupancy_population,
    population_propensity,
    rates_for_population,
)
from repro.traps.trap import Trap, TrapPopulation

pytestmark = pytest.mark.tier1

WIDTH, LENGTH = 2e-7, 1e-7


def list_path_sample(profiler: TrapProfiler, rng: np.random.Generator,
                     width: float, length: float,
                     label_prefix: str = "trap") -> list:
    """The list-of-objects sampler: one Poisson count, one interleaved
    uniform draw, one :class:`Trap` per pair."""
    count = int(rng.poisson(profiler.expected_count(width, length)))
    y_min, y_max = profiler.depth_bounds()
    u = rng.random(2 * count)
    y_tr = y_min + (y_max - y_min) * u[0::2]
    e_low, e_high = profiler.energy_bounds(y_tr)
    e_tr = e_low + (e_high - e_low) * u[1::2]
    return [Trap(y_tr=float(y), e_tr=float(e), label=f"{label_prefix}{i}")
            for i, (y, e) in enumerate(zip(y_tr, e_tr))]


def _fields(traps) -> list:
    return [(t.y_tr, t.e_tr, t.degeneracy, t.label) for t in traps]


class TestSampleMatchesListPath:
    @pytest.mark.parametrize("seed", [0, 1, 7, 20110314])
    @pytest.mark.parametrize("max_rate", [None, 1e6])
    def test_traps_and_generator_state(self, seed, max_rate):
        profiler = TrapProfiler(TECH_90NM, max_rate=max_rate)
        columns_rng = np.random.default_rng(seed)
        list_rng = np.random.default_rng(seed)
        for _ in range(3):  # consecutive devices share the stream
            population = profiler.sample(columns_rng, WIDTH, LENGTH,
                                         label_prefix="m2_t")
            reference = list_path_sample(profiler, list_rng, WIDTH, LENGTH,
                                         label_prefix="m2_t")
            assert isinstance(population, TrapPopulation)
            assert len(population) == len(reference) > 0
            assert _fields(population) == _fields(reference)
            assert population == reference
        assert (columns_rng.bit_generator.state
                == list_rng.bit_generator.state)

    def test_sampled_columns_are_valid_and_read_only(self):
        profiler = TrapProfiler(TECH_90NM)
        rng = np.random.default_rng(5)
        population = profiler.sample_fixed_count(rng, 30, label_prefix="m4_t")
        rebuilt = TrapPopulation(y_tr=population.y_tr, e_tr=population.e_tr,
                                 label_prefix="m4_t")
        assert rebuilt == population
        assert np.array_equal(population.degeneracy, np.ones(30))
        for column in (population.y_tr, population.e_tr,
                       population.degeneracy):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 1.0
        joined = TrapPopulation.concatenate([population, rebuilt])
        assert len(joined) == 60
        with pytest.raises(ValueError):
            joined.e_tr[0] = 1.0

    def test_rate_tables_agree(self):
        population = TrapProfiler(TECH_90NM).sample_fixed_count(
            np.random.default_rng(3), 40)
        v_gs = np.linspace(0.0, TECH_90NM.vdd, 9)
        for columns, objects in zip(
                rates_for_population(v_gs, population, TECH_90NM),
                rates_for_population(v_gs, list(population), TECH_90NM)):
            assert np.array_equal(columns, objects)


@pytest.fixture
def population() -> TrapPopulation:
    return TrapPopulation(y_tr=[1e-9, 1.5e-9, 2e-9], e_tr=[0.1, 0.2, 0.3],
                          degeneracy=[1.0, 2.0, 0.5], label_prefix="m1_t")


class TestSequence:
    def test_len_index_and_labels(self, population):
        assert len(population) == 3
        assert population[1] == Trap(y_tr=1.5e-9, e_tr=0.2, degeneracy=2.0,
                                     label="m1_t1")
        assert population[-1].label == "m1_t2"
        with pytest.raises(IndexError):
            population[3]
        with pytest.raises(IndexError):
            population[-4]

    def test_slice_is_a_list_with_original_labels(self, population):
        part = population[1:]
        assert isinstance(part, list)
        assert [t.label for t in part] == ["m1_t1", "m1_t2"]
        assert population[::-1] == list(population)[::-1]

    def test_iteration_and_equality(self, population):
        traps = list(population)
        assert all(isinstance(t, Trap) for t in traps)
        assert population == traps
        assert traps == population
        assert population == tuple(traps)
        assert population != traps[:2]
        assert population != [Trap(y_tr=1e-9, e_tr=0.1)] * 3
        rebuilt = TrapPopulation.from_traps(traps)
        assert [t.label for t in rebuilt] == ["trap0", "trap1", "trap2"]
        assert all(np.array_equal(getattr(rebuilt, name),
                                  getattr(population, name))
                   for name in ("y_tr", "e_tr", "degeneracy"))
        assert population[0] in population
        assert (population == "m1_t") is False

    def test_columns_are_read_only(self, population):
        for column in (population.y_tr, population.e_tr,
                       population.degeneracy):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_columns_are_copied(self):
        y_tr = np.array([1e-9, 2e-9])
        population = TrapPopulation(y_tr=y_tr, e_tr=[0.0, 0.1])
        y_tr[0] = 5e-9
        assert population[0].y_tr == 1e-9
        assert np.array_equal(population.degeneracy, [1.0, 1.0])

    def test_pickle_round_trip(self, population):
        copy = pickle.loads(pickle.dumps(population))
        assert copy == population
        assert copy.label_prefix == "m1_t"
        with pytest.raises(ValueError):
            copy.y_tr[0] = 1.0

    def test_empty(self):
        empty = TrapPopulation(y_tr=[], e_tr=[])
        assert len(empty) == 0 and not empty
        assert empty == []
        assert list(empty) == []

    def test_concatenate_keeps_order(self, population):
        joined = TrapPopulation.concatenate(
            [population, TrapPopulation(y_tr=[3e-9], e_tr=[0.4])])
        assert np.array_equal(joined.y_tr, [1e-9, 1.5e-9, 2e-9, 3e-9])
        assert np.array_equal(joined.degeneracy, [1.0, 2.0, 0.5, 1.0])
        assert len(TrapPopulation.concatenate([])) == 0

    @pytest.mark.parametrize("y_tr, degeneracy, match", [
        ([1e-9, 0.0], 1.0, "y_tr must be positive"),
        ([1e-9, -2e-9], 1.0, "y_tr must be positive"),
        ([1e-9, 2e-9], [1.0, 0.0], "degeneracy must be positive"),
        ([1e-9, 2e-9], -1.0, "degeneracy must be positive"),
    ])
    def test_refuses_what_trap_refuses(self, y_tr, degeneracy, match):
        with pytest.raises(ModelError, match=match):
            TrapPopulation(y_tr=y_tr, e_tr=[0.0, 0.0], degeneracy=degeneracy)

    def test_refuses_mismatched_columns(self):
        with pytest.raises(ModelError, match="1-D"):
            TrapPopulation(y_tr=[1e-9, 2e-9], e_tr=[0.0])
        with pytest.raises(ModelError, match="1-D"):
            TrapPopulation(y_tr=[[1e-9]], e_tr=[[0.0]])
        with pytest.raises(ModelError, match="degeneracy shape"):
            TrapPopulation(y_tr=[1e-9, 2e-9], e_tr=[0.0, 0.0],
                           degeneracy=[1.0])


class TestInitialDrawFromColumnZero:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_scalar_bias_draw(self, seed):
        rng = np.random.default_rng(seed)
        traps = TrapProfiler(TECH_90NM).sample_fixed_count(rng, 200)
        times = np.linspace(0.0, 1e-6, 64)
        v_gs = np.linspace(rng.uniform(0.0, TECH_90NM.vdd), 0.2, 64)
        table = population_propensity(traps, TECH_90NM, times, v_gs)
        scalar = equilibrium_occupancy_population(float(v_gs[0]), traps,
                                                  TECH_90NM)
        assert np.array_equal(table.equilibrium(0), scalar)

        table_rng = np.random.default_rng(seed + 100)
        scalar_rng = np.random.default_rng(seed + 100)
        drawn = draw_initial_states(table.equilibrium(0), table_rng)
        reference = (scalar_rng.random(len(scalar)) < scalar).astype(np.int8)
        assert drawn.dtype == np.int8
        assert np.array_equal(drawn, reference)
        assert (table_rng.bit_generator.state
                == scalar_rng.bit_generator.state)

    def test_empty_population_draws_nothing(self):
        table = population_propensity([], TECH_90NM, (0.0, 1e-6), (0.0, 0.0))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert draw_initial_states(table.equilibrium(0), rng).size == 0
        assert rng.bit_generator.state == state
