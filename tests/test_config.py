"""Runtime configuration: swap scopes and the knobs subsystems honour."""

import pytest

from repro import ops
from repro.common.config import get_config, swap
from repro.common.errors import StencilMismatchError


class TestSwap:
    def test_override_and_restore(self):
        base = get_config().execplan_cache_size
        with swap(execplan_cache_size=7):
            assert get_config().execplan_cache_size == 7
        assert get_config().execplan_cache_size == base

    def test_nested(self):
        base = get_config().deadlock_timeout
        base_check = get_config().check_stencils
        with swap(check_stencils=True):
            with swap(deadlock_timeout=3.0):
                assert get_config().check_stencils
                assert get_config().deadlock_timeout == 3.0
            assert get_config().check_stencils
            assert get_config().deadlock_timeout == base
        assert get_config().check_stencils == base_check

    def test_restores_on_exception(self):
        base = get_config().verify_shadow
        with pytest.raises(RuntimeError):
            with swap(verify_shadow=not base):
                raise RuntimeError("boom")
        assert get_config().verify_shadow == base


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

