"""Native compiled-kernel backend (the paper's "active library" endgame).

The translator has always emitted backend C *text* (Fig 7); this package
closes the loop and runs it.  Certified kernels — those whose
:class:`repro.lint.abstract.KernelCertificate` proves complete lowering,
purity and bounded extents — are lowered from the kernel IR to a small C
translation unit, compiled once into an on-disk shared-object cache, and
dispatched as a tier *inside* the existing execplan plans, so eager loops,
lazy cross-loop tiles and distributed ranks all inherit compiled execution
for free.

Admission is deliberately bitwise-conservative: only loops whose C
execution is IEEE-identical to the vec path are compiled (elementwise
arithmetic, ``sqrt``/``fabs``, ternary selects, order-exact MIN/MAX folds,
occurrence-order INC scatters).  Float *sums* whose NumPy reduction is
pairwise (global INC, ``Reduction("inc")``) are staged, not folded: the C
fills the array the vec tier would have summed and the plan layer hands
it to the same NumPy call, so ``REPRO_NATIVE=1`` (the default) never
perturbs a single bit of any existing backend-equivalence guarantee and
every loop of the bundled Airfoil and CloverLeaf runs generated C.
Everything declined — by the certificate, the structural gate, a missing
toolchain, or ``REPRO_NATIVE=0`` — falls back to the vec path with one
``native.fallback`` telemetry instant and a counter tick.
"""

from repro.native.cgen import Untranslatable, generate_op2, generate_ops, ir_for_callable
from repro.native.cache import (
    NativeUnavailable,
    cache_clear,
    cache_dir,
    cache_info,
    cache_prune,
    clear_memory_cache,
    find_compiler,
    load_kernel,
)
from repro.native.plan import NativeOp2Loop, NativeOpsLoop, try_compile_op2, try_compile_ops

__all__ = [
    "Untranslatable",
    "NativeUnavailable",
    "generate_ops",
    "generate_op2",
    "ir_for_callable",
    "cache_dir",
    "cache_info",
    "cache_clear",
    "cache_prune",
    "clear_memory_cache",
    "find_compiler",
    "load_kernel",
    "NativeOpsLoop",
    "NativeOp2Loop",
    "try_compile_ops",
    "try_compile_op2",
]
