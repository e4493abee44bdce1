"""Tests for the task cost model and calibration curves."""

import numpy as np
import pytest

from repro import record_program
from repro.apps.strassen import _sadd_t as sadd_t  # the add Strassen runs
from repro.apps.tasks import (
    get_block_t,
    place_t,
    seqmerge_t,
    seqquick_t,
    sgemm_t,
    spotrf_t,
)
from repro.sim import ALTIX_32, CostModel
from repro.sim.cache import CoreCache
from repro.sim.calibration import (
    LIBRARIES,
    MEMORY_CONTENTION_ALPHA,
    interp_efficiency,
)


def record_one(call):
    prog = record_program(call, execute="skip")
    assert prog.task_count >= 1
    return prog.tasks


def tile(m=64):
    return np.zeros((m, m), np.float32)


class TestTileKernels:
    def test_gemm_duration_matches_formula(self):
        (task,) = record_one(lambda: sgemm_t(tile(), tile(), tile()))
        model = CostModel(ALTIX_32, library="goto")
        cost = model.cost(task, None)
        m = 64
        eff = LIBRARIES["goto"].efficiency("gemm", m)
        assert cost.flops == 2 * m ** 3
        assert cost.compute == pytest.approx(
            2 * m ** 3 / (ALTIX_32.core_peak_flops * eff)
        )

    def test_symbolic_blocks_use_configured_size(self):
        (task,) = record_one(lambda: sgemm_t(tile(1), tile(1), tile(1)))
        model = CostModel(ALTIX_32, block_size=256)
        cost = model.cost(task, None)
        assert cost.flops == 2 * 256 ** 3

    def test_symbolic_without_block_size_raises(self):
        (task,) = record_one(lambda: sgemm_t(tile(1), tile(1), tile(1)))
        model = CostModel(ALTIX_32)
        with pytest.raises(ValueError, match="block_size"):
            model.cost(task, None)

    def test_potrf_cheaper_than_gemm(self):
        (g,) = record_one(lambda: sgemm_t(tile(), tile(), tile()))
        (p,) = record_one(lambda: spotrf_t(tile()))
        model = CostModel(ALTIX_32)
        assert model.cost(p, None).flops < model.cost(g, None).flops

    def test_goto_faster_than_mkl_at_large_tiles(self):
        (task,) = record_one(lambda: sgemm_t(tile(512), tile(512), tile(512)))
        goto = CostModel(ALTIX_32, library="goto").cost(task, None)
        (task,) = record_one(lambda: sgemm_t(tile(512), tile(512), tile(512)))
        mkl = CostModel(ALTIX_32, library="mkl").cost(task, None)
        assert goto.compute < mkl.compute

    def test_unknown_library(self):
        with pytest.raises(ValueError, match="unknown library"):
            CostModel(ALTIX_32, library="atlas")


class TestMemoryAndCache:
    def test_cache_hits_remove_traffic(self):
        a, b, c = tile(), tile(), tile()
        (task,) = record_one(lambda: sgemm_t(a, b, c))
        model = CostModel(ALTIX_32)
        cache = CoreCache(ALTIX_32.cache_bytes)
        cold = model.cost(task, cache)
        (task2,) = record_one(lambda: sgemm_t(a, b, c))
        warm = model.cost(task2, cache)
        assert warm.memory == 0.0
        assert cold.memory > 0.0

    def test_add_tasks_are_bandwidth_bound(self):
        a, b, c = tile(256), tile(256), tile(256)
        (task,) = record_one(lambda: sadd_t(a, b, c))
        model = CostModel(ALTIX_32)
        cost = model.cost(task, CoreCache(ALTIX_32.cache_bytes))
        assert cost.memory > cost.compute

    def test_copy_tasks_charge_flat_traffic(self):
        flat = np.zeros((256, 256), np.float32)
        block = tile(64)
        (task,) = record_one(lambda: get_block_t(1, 1, flat, block))
        model = CostModel(ALTIX_32)
        cost = model.cost(task, None)
        assert cost.flops == 0
        # At least the flat side of the copy is charged.
        assert cost.memory >= 64 * 64 * 4 / ALTIX_32.core_bandwidth

    def test_opaque_flat_matrix_does_not_set_tile_size(self):
        flat = np.zeros((256, 256), np.float32)
        block = tile(64)
        (task,) = record_one(lambda: get_block_t(1, 1, flat, block))
        model = CostModel(ALTIX_32)
        cost = model.cost(task, None)
        # Traffic must be tile-scale, nowhere near the 256 KB flat size.
        assert cost.memory < 3 * (64 * 64 * 4) / ALTIX_32.core_bandwidth


class TestRenamingCosts:
    def test_clone_costs_more_than_same(self):
        data = np.zeros(1024, np.float32)

        def hazard():
            place_t(data, 0, 1)
            seqquick_like_reader(data)
            place_t(data, 1, 2)  # pending reader -> CLONE

        @make_reader
        def seqquick_like_reader(a):  # noqa: ARG001
            pass

        prog = record_program(hazard, execute="skip")
        model = CostModel(ALTIX_32)
        costs = [model.cost(t, None) for t in prog.tasks]
        assert costs[0].rename == 0.0
        assert costs[2].rename > 0.0


def make_reader(func):
    from repro import css_task

    return css_task("input(a)")(func)


class TestSortCosts:
    def test_seqquick_scales_nlogn(self):
        data = np.zeros(1 << 16, np.float32)
        (small,) = record_one(lambda: seqquick_t(data, 0, 1023))
        (large,) = record_one(lambda: seqquick_t(data, 0, 65535))
        model = CostModel(ALTIX_32.with_cores(1))
        ratio = model.cost(large, None).compute / model.cost(small, None).compute
        assert 64 < ratio < 64 * 2  # n log n growth between 1K and 64K

    def test_contention_grows_with_cores(self):
        data = np.zeros(4096, np.float32)
        (t1,) = record_one(lambda: seqquick_t(data, 0, 4095))
        single = CostModel(ALTIX_32.with_cores(1)).cost(t1, None).compute
        (t2,) = record_one(lambda: seqquick_t(data, 0, 4095))
        many = CostModel(ALTIX_32.with_cores(32)).cost(t2, None).compute
        expected = 1 + MEMORY_CONTENTION_ALPHA * 31
        assert many / single == pytest.approx(expected)

    def test_merge_cost_linear(self):
        data = np.zeros(8192, np.float32)
        dest = np.zeros(8192, np.float32)
        (a,) = record_one(lambda: seqmerge_t(data, 0, 1023, 1024, 2047, dest))
        (b,) = record_one(lambda: seqmerge_t(data, 0, 2047, 2048, 4095, dest))
        model = CostModel(ALTIX_32.with_cores(1))
        assert model.cost(b, None).compute == pytest.approx(
            2 * model.cost(a, None).compute
        )


class TestEfficiencyInterpolation:
    def test_exact_points(self):
        curve = {32: 0.3, 64: 0.6}
        assert interp_efficiency(curve, 32) == 0.3
        assert interp_efficiency(curve, 64) == 0.6

    def test_midpoint_log2(self):
        curve = {32: 0.3, 128: 0.7}
        assert interp_efficiency(curve, 64) == pytest.approx(0.5)

    def test_clamping(self):
        curve = {32: 0.3, 64: 0.6}
        assert interp_efficiency(curve, 8) == 0.3
        assert interp_efficiency(curve, 4096) == 0.6

    def test_monotone_curves(self):
        for profile in LIBRARIES.values():
            sizes = sorted(profile.gemm_efficiency)
            values = [profile.gemm_efficiency[s] for s in sizes]
            assert values == sorted(values)
