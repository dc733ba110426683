"""Runtime configuration: swap scopes and the knobs subsystems honour."""

import numpy as np
import pytest

from repro import ops
from repro.common.config import get_config, swap
from repro.common.errors import StencilMismatchError


class TestSwap:
    def test_override_and_restore(self):
        base = get_config().plan_block_size
        with swap(plan_block_size=7):
            assert get_config().plan_block_size == 7
        assert get_config().plan_block_size == base

    def test_nested(self):
        with swap(check_stencils=True):
            with swap(plan_block_size=3):
                assert get_config().check_stencils
                assert get_config().plan_block_size == 3
            assert get_config().check_stencils

    def test_restores_on_exception(self):
        base = get_config().cuda_block_size
        with pytest.raises(RuntimeError):
            with swap(cuda_block_size=1):
                raise RuntimeError("boom")
        assert get_config().cuda_block_size == base


class TestCheckStencilsKnob:
    def test_global_flag_enables_checking(self):
        blk = ops.Block(2)
        u = ops.Dat(blk, (6, 6), halo_depth=2)
        v = ops.Dat(blk, (6, 6), halo_depth=2)

        def bad(a, b):
            b[0, 0] = a[2, 0]

        # unchecked by default: executes (the access stays within the halo)
        ops.par_loop(bad, blk, [(2, 4), (2, 4)], u(ops.READ, ops.S2D_5PT), v(ops.WRITE))

        with swap(check_stencils=True):
            with pytest.raises(StencilMismatchError):
                ops.par_loop(bad, blk, [(2, 4), (2, 4)],
                             u(ops.READ, ops.S2D_5PT), v(ops.WRITE))

    def test_explicit_check_overrides_global(self):
        blk = ops.Block(2)
        u = ops.Dat(blk, (6, 6), halo_depth=2)
        v = ops.Dat(blk, (6, 6), halo_depth=2)

        def bad(a, b):
            b[0, 0] = a[2, 0]

        with swap(check_stencils=True):
            # check=False wins over the global flag
            ops.par_loop(bad, blk, [(2, 4), (2, 4)],
                         u(ops.READ, ops.S2D_5PT), v(ops.WRITE), check=False)


class TestPlanBlockSizeKnob:
    def test_plan_uses_config_default(self):
        from repro import op2
        from repro.op2.plan import build_plan, clear_plan_cache

        nodes, edges = op2.Set(33), op2.Set(32)
        m = op2.Map(edges, nodes, 2, [[i, i + 1] for i in range(32)])
        acc = op2.Dat(nodes, 1)
        args = [acc(op2.INC, m, 0), acc(op2.INC, m, 1)]
        clear_plan_cache()
        with swap(plan_block_size=8):
            plan = build_plan(edges, args)
        assert plan.block_size == 8
        assert plan.n_blocks == 4
        clear_plan_cache()
