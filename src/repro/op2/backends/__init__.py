"""OP2 execution backends: the two executors every ``par_loop`` chooses from.

* ``seq`` — single-threaded reference; per-element calls of the user
  function, recommended for debugging (paper Section II-C),
* ``vec`` — vectorised execution over gathered arrays (the auto-vectorised
  CPU target): one :func:`execute_subset` sweep over the whole range when
  interpreted; :mod:`repro.op2.execplan` compiles that sweep once per loop
  site (native C where admitted) and replays it.

The paper's OpenMP and CUDA targets are generated code here, not executors:
:mod:`repro.translator` emits their C text, :func:`repro.op2.plan.build_plan`
builds their two-level colouring and :mod:`repro.verify.races` checks it.
Distributed memory (MPI) composes with both through
:class:`repro.op2.halo.PartitionedMesh`.
"""

from repro.op2.backends.seq import execute_seq
from repro.op2.backends.base import execute_subset

__all__ = ["execute_seq", "execute_subset"]
