"""Tests for the batched uniformisation kernel.

The load-bearing check is statistical equivalence: under a seed-split,
the batched kernel's occupancy statistics must agree with the scalar
Algorithm-1 kernel within Monte-Carlo tolerance, for both stationary
and strongly non-stationary rates, and the filled count must follow the
exact occupancy recurrence of a constant-sum table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError, SimulationError
from repro.markov.batch import (
    BatchPropensity,
    BatchUniformizationStats,
    simulate_traps_batch,
    simulate_traps_scalar,
)
from repro.markov.occupancy import OccupancyTrace
from repro.markov.propensity import (
    ConstantTwoStatePropensity,
    SampledTwoStatePropensity,
)
from repro.markov.uniformization import simulate_trap
from repro.verify.harness import AlphaBudget
from repro.verify.oracles import check_population_occupancy

pytestmark = pytest.mark.tier1

GRID = np.linspace(0.0, 1.0, 1001)


def _constant_batch(n_traps: int, lam_c: float, lam_e: float
                    ) -> BatchPropensity:
    return BatchPropensity(
        times=GRID,
        capture=np.full((n_traps, GRID.size), lam_c),
        emission=np.full((n_traps, GRID.size), lam_e),
    )


def _revalidate(traces) -> None:
    """Re-run the full OccupancyTrace validation on trusted traces."""
    for trace in traces:
        OccupancyTrace(times=trace.times.copy(), states=trace.states.copy())


class TestBatchPropensity:
    def test_validation(self):
        with pytest.raises(ModelError):
            BatchPropensity(times=np.array([0.0]), capture=np.ones((1, 1)),
                            emission=np.ones((1, 1)))
        with pytest.raises(ModelError):
            BatchPropensity(times=np.array([0.0, 1.0]),
                            capture=np.ones((2, 2)),
                            emission=np.ones((3, 2)))
        with pytest.raises(ModelError):
            BatchPropensity(times=np.array([0.0, 1.0]),
                            capture=-np.ones((1, 2)),
                            emission=np.ones((1, 2)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ModelError):
                BatchPropensity(times=np.array([0.0, bad]),
                                capture=np.ones((1, 2)),
                                emission=np.ones((1, 2)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ModelError, match="finite"):
                BatchPropensity(times=np.array([0.0, 1.0]),
                                capture=np.array([[1.0, bad]]),
                                emission=np.ones((1, 2)))
            with pytest.raises(ModelError, match="finite"):
                BatchPropensity(times=np.array([0.0, 1.0]),
                                capture=np.ones((1, 2)),
                                emission=np.array([[bad, 1.0]]))

    def test_rate_sums_and_single(self):
        batch = _constant_batch(3, 2.0, 5.0)
        assert np.allclose(batch.rate_sums(), 7.0)
        single = batch.single(1)
        assert isinstance(single, SampledTwoStatePropensity)
        assert single.capture(0.5) == pytest.approx(2.0)

    def test_sum_info_detects_constant_sum(self):
        assert _constant_batch(2, 1.0, 2.0)._sum_info()[1]
        varying = BatchPropensity(
            times=GRID,
            capture=np.tile(1.0 + GRID, (2, 1)),
            emission=np.ones((2, GRID.size)),
        )
        assert not varying._sum_info()[1]


class TestInterface:
    def test_rejects_bad_window(self, rng):
        batch = _constant_batch(2, 1.0, 1.0)
        with pytest.raises(SimulationError):
            simulate_traps_batch(batch, 1.0, 1.0, rng)
        for t_start, t_stop in ((np.nan, 1.0), (0.0, np.nan),
                                (-np.inf, 1.0), (0.0, np.inf)):
            with pytest.raises(SimulationError):
                simulate_traps_batch(batch, t_start, t_stop, rng)

    def test_rejects_bad_initial_states(self, rng):
        batch = _constant_batch(2, 1.0, 1.0)
        with pytest.raises(SimulationError):
            simulate_traps_batch(batch, 0.0, 1.0, rng,
                                 initial_states=np.array([0, 2]))
        with pytest.raises(SimulationError):
            simulate_traps_batch(batch, 0.0, 1.0, rng,
                                 initial_states=np.array([0]))
        # Out-of-range values must not wrap or truncate into 0/1.
        for states in ([256, 1], [-255, 0], [1.5, 0]):
            with pytest.raises(SimulationError):
                simulate_traps_batch(batch, 0.0, 1.0, rng,
                                     initial_states=np.array(states))

    def test_sequence_input_names_batch_propensity(self, rng):
        # The kernels take one input, a rate table; a list of per-trap
        # propensity objects is refused with the type to build instead.
        props = [ConstantTwoStatePropensity(lambda_c=40.0, lambda_e=40.0)]
        for kernel in (simulate_traps_batch, simulate_traps_scalar):
            with pytest.raises(TypeError, match="BatchPropensity"):
                kernel(props, 0.0, 1.0, rng)

    def test_trace_window_and_initial_states(self, rng):
        batch = _constant_batch(4, 20.0, 20.0)
        init = np.array([0, 1, 0, 1])
        traces, stats = simulate_traps_batch(batch, 2.0, 3.0, rng,
                                             initial_states=init)
        assert len(traces) == 4
        for trace, state in zip(traces, init):
            assert trace.t_start == 2.0 and trace.t_stop == 3.0
            assert trace.initial_state == int(state)
        assert stats.n_candidates.shape == (4,)
        assert stats.total_accepted == sum(t.n_transitions for t in traces)
        _revalidate(traces)

    def test_stats_aggregate(self, rng):
        batch = _constant_batch(3, 50.0, 50.0)
        _, stats = simulate_traps_batch(batch, 0.0, 1.0, rng)
        agg = stats.aggregate
        assert agg.n_candidates == stats.total_candidates
        assert agg.n_accepted == stats.total_accepted
        assert agg.rate_bound == pytest.approx(100.0)
        assert 0.0 < stats.acceptance_ratio <= 1.0

    def test_empty_stats(self):
        stats = BatchUniformizationStats(
            n_candidates=np.zeros(0, dtype=int),
            n_accepted=np.zeros(0, dtype=int), rate_bounds=np.zeros(0))
        assert stats.acceptance_ratio == 0.0
        assert stats.aggregate.rate_bound == 0.0

    def test_zero_candidate_population(self, rng):
        # Rates so low that every trap's Poisson count is zero: the
        # kernel must return flat traces, not crash on an empty layout.
        batch = _constant_batch(10, 5e-5, 5e-5)
        init = np.array([0, 1] * 5)
        traces, stats = simulate_traps_batch(batch, 0.0, 1.0, rng,
                                             initial_states=init)
        assert stats.total_candidates == 0
        assert stats.total_accepted == 0
        for trace, state in zip(traces, init):
            assert trace.n_transitions == 0
            assert trace.initial_state == int(state)
        _revalidate(traces)

    def test_grid_coordinates_clamp_far_beyond_grid(self):
        # Times astronomically past the grid end must clamp to the last
        # grid point, not wrap negative through the integer cast.
        batch = BatchPropensity(times=np.array([0.0, 1.0]),
                                capture=np.array([[2.0, 8.0]]),
                                emission=np.array([[1.0, 1.0]]))
        idx, w = batch.grid_coordinates(np.array([[-3.0, 0.5, 5e9]]))
        assert idx.tolist() == [[0, 0, 0]]
        assert w.tolist() == [[0.0, 0.5, 1.0]]

    def test_trace_buffers_are_read_only(self, rng):
        # Batched traces share backing buffers; they must be frozen so
        # mutating one trace cannot corrupt its siblings.
        batch = _constant_batch(4, 50.0, 50.0)
        traces, _ = simulate_traps_batch(batch, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            traces[0].times[0] = 99.0
        with pytest.raises(ValueError):
            traces[0].states[0] = 1


class TestSweepPins:
    """Seeded streams of the sweep branches the ensemble digest misses.

    A non-constant-sum table takes the interpolated acceptance path,
    which SAMURAI's Eq.-(1) tables never reach; each pin is the
    occupancy and candidate counts of one seeded run.
    """

    @staticmethod
    def _square_wave() -> BatchPropensity:
        scale = np.linspace(0.5, 2.0, 40)[:, None]
        lam_c = np.where((GRID * 10).astype(int) % 2 == 0, 80.0, 5.0)
        return BatchPropensity(times=GRID, capture=scale * lam_c,
                               emission=np.tile(40.0 * scale, GRID.size))

    def _run(self, seed: int):
        batch = self._square_wave()
        assert not batch._sum_info()[1]
        return simulate_traps_batch(batch, 0.0, 1.0,
                                    np.random.default_rng(seed),
                                    initial_states=np.arange(40) % 2)

    def test_padded_layout(self, occupancy_digest):
        assert occupancy_digest(*self._run(11)) == \
            "677c64476df8bbdb365fb7dbeb1d87b9"

    def test_flat_layout(self, occupancy_digest):
        assert occupancy_digest(*self._run(12)) == \
            "b30c706dcd85a45629da1ac1197dc345"


class TestStatisticalEquivalence:
    """Batch vs scalar kernel under a seed-split: same law."""

    N_TRAPS = 300

    def test_constant_rates_match_scalar_and_theory(self, rng_factory):
        lam_c, lam_e = 30.0, 45.0
        batch = _constant_batch(self.N_TRAPS, lam_c, lam_e)
        traces, _ = simulate_traps_batch(batch, 0.0, 1.0, rng_factory(1))
        _revalidate(traces)
        batch_occ = np.mean([t.fraction_filled() for t in traces])

        prop = ConstantTwoStatePropensity(lambda_c=lam_c, lambda_e=lam_e)
        scalar_rng = rng_factory(2)
        scalar_occ = np.mean([
            simulate_trap(prop, 0.0, 1.0, scalar_rng).fraction_filled()
            for _ in range(self.N_TRAPS)])

        # Both must sit near the analytic time-average from state 0:
        # integral of p(t) = p_inf (1 - exp(-S t)) over [0, 1].
        p_inf = lam_c / (lam_c + lam_e)
        total = lam_c + lam_e
        exact = p_inf * (1.0 - (1.0 - np.exp(-total)) / total)
        assert batch_occ == pytest.approx(exact, abs=0.03)
        assert batch_occ == pytest.approx(scalar_occ, abs=0.04)

    def test_nonstationary_square_wave_matches_scalar(self, rng_factory):
        # Rates that switch every 0.1 s: strongly non-stationary, with a
        # NON-constant sum so the general acceptance path is exercised.
        lam_c = np.where((GRID * 10).astype(int) % 2 == 0, 80.0, 5.0)
        lam_e = np.full(GRID.size, 40.0)
        batch = BatchPropensity(times=GRID,
                                capture=np.tile(lam_c, (self.N_TRAPS, 1)),
                                emission=np.tile(lam_e, (self.N_TRAPS, 1)))
        assert not batch._sum_info()[1]
        traces, _ = simulate_traps_batch(batch, 0.0, 1.0, rng_factory(3))
        _revalidate(traces)

        prop = SampledTwoStatePropensity(times=GRID, capture_values=lam_c,
                                         emission_values=lam_e)
        scalar_rng = rng_factory(4)
        scalar = [simulate_trap(prop, 0.0, 1.0, scalar_rng)
                  for _ in range(self.N_TRAPS)]

        query = np.linspace(0.0, 1.0, 400)
        batch_p = np.mean([t.sample(query) for t in traces], axis=0)
        scalar_p = np.mean([t.sample(query) for t in scalar], axis=0)
        high = (query * 10).astype(int) % 2 == 0
        for phase in (high, ~high):
            assert np.mean(batch_p[phase]) == pytest.approx(
                np.mean(scalar_p[phase]), abs=0.05)

    def test_matches_the_occupancy_recurrence(self, rng_factory):
        # A constant-sum (Eq.-1) table whose capture share swings: the
        # filled count has the recurrence's exact mean and variance.
        rng = rng_factory(5)
        sums = 10.0 ** rng.uniform(0.5, 2.0, size=(self.N_TRAPS, 1))
        share = 0.5 + 0.45 * np.sin(6.0 * np.pi * GRID)
        table = BatchPropensity(times=GRID, capture=sums * share,
                                emission=sums * (1.0 - share))
        init = (rng.random(self.N_TRAPS) < share[0]).astype(np.int8)
        occupancy, _ = simulate_traps_batch(table, 0.0, 1.0, rng,
                                            initial_states=init)
        _revalidate(occupancy)
        check = check_population_occupancy(
            [(table, occupancy)], AlphaBudget().total,
            points=(0.1, 0.3, 0.5, 0.7, 0.9))
        assert check.passed, check.detail
