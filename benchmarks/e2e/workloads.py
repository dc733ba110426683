"""The seven fixed workloads, their seeded inputs and their step functions.

Sizes are constants, never derived from the host, so a number measured
here means the same thing on every machine; ``bench.working_set_mb`` is
printed next to the host's cache sizes so "out of cache" is a stated fact.
The step counts are the reference counts for a 10-second run
(``BENCHMARK.json``'s ``run_seconds``); ``--seconds`` scales them
deterministically (never from a clock) so two runs with the same
arguments execute the same work and must reach the same final-state
digest.

Why each workload is here is recorded once, in ``BENCHMARK.json`` (and at
length in README.md).

``--seed`` drives the Airfoil node jitter and a +-0.1 % multiplicative
perturbation of the initial state.  The perturbation matters: on the
unperturbed free stream the Airfoil residual is denormal and the kernels
run 5-10x slower on arithmetic no real mesh would produce.  The program
under test only ever sees the generated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: the run length the reference step counts are sized for
REFERENCE_SECONDS = 10

#: check meshes of the untimed correctness gate (see verify.py)
CHECK_MESH = {"airfoil": (48, 32), "cloverleaf": (64, 64)}
#: the per-point ``seq`` interpreter costs ~45 us per point and loop, 15 s
#: for three CloverLeaf steps on 64x64; its tolerance check runs on this
#: mesh instead, still several lazy tiles per side
SEQ_CHECK_MESH = {"airfoil": (48, 32), "cloverleaf": (16, 16)}
CHECK_STEPS = 3

#: Table-I view: the kernels whose time and computed bandwidth are reported
KERNELS = {
    "airfoil": ("save_soln", "adt_calc", "res_calc", "bres_calc", "update"),
    "cloverleaf": (
        "advec_cell_x", "advec_cell_y", "accelerate", "pdv_predict",
        "viscosity", "calc_dt",
    ),
}


def scaled(steps: int, quick: bool) -> int:
    """A step count under ``--quick``: / 50, at least 3."""
    return max(3, steps // 50) if quick else steps


@dataclass(frozen=True)
class Workload:
    name: str
    app: str  # "airfoil" | "cloverleaf"
    size: tuple[int, int]
    steps: int  # timed steps N of a REFERENCE_SECONDS run
    min_steps: int
    lazy: bool = False
    ranks: int = 0  # > 0: distributed, run_spmd_mp with this many workers
    #: fresh-child set-ups whose median is ``setup_s``: 3 where a set-up is
    #: short (interpreter start, or first touch of 334 MB on cloverleaf_large,
    #: 1.6-2.9 s from run to run) and cheap to repeat, 1 where it costs 5-8 s
    setup_runs: int = 1
    #: steps of each explanatory tier leg in the traced pass (0: no legs)
    tier_steps: int = 0
    #: MB the harness touches and frees before each measuring child, about
    #: 1.25x the child's peak RSS (see run.py: pretouch)
    pretouch_mb: int = 0

    def timed_steps(self, seconds: float, quick: bool) -> int:
        return scaled(max(self.min_steps, round(self.steps * seconds / REFERENCE_SECONDS)), quick)

    def mesh(self, quick: bool) -> tuple[int, int]:
        return tuple(max(2, s // 8) for s in self.size) if quick else self.size


WORKLOADS = (
    Workload("airfoil_large", "airfoil", (1600, 1000), 30, 30,
             tier_steps=3, pretouch_mb=1600),
    Workload("airfoil_small", "airfoil", (20, 12), 10000, 30,
             setup_runs=3, tier_steps=300),
    Workload("cloverleaf_large", "cloverleaf", (1440, 1440), 30, 30,
             setup_runs=3, tier_steps=3, pretouch_mb=640),
    Workload("cloverleaf_large_lazy", "cloverleaf", (1440, 1440), 6, 6,
             lazy=True, pretouch_mb=640),
    Workload("cloverleaf_small", "cloverleaf", (48, 48), 3000, 30,
             setup_runs=3, tier_steps=300),
    Workload("cloverleaf_small_lazy", "cloverleaf", (48, 48), 1500, 30,
             lazy=True, setup_runs=3),
    Workload("airfoil_mp2", "airfoil", (240, 160), 1500, 30,
             ranks=2, setup_runs=3, pretouch_mb=320),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def _perturb(array: np.ndarray, rng: np.random.Generator) -> None:
    array *= 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, array.shape)


class AirfoilCase:
    """One Airfoil instance: build, step, observe."""

    def __init__(self, size: tuple[int, int], seed: int, backend: str = "vec"):
        # looked up at call time so the traced pass sees its wrapper
        from repro.apps.airfoil import app, mesh

        self.mesh = mesh.generate_mesh(*size, jitter=0.2, seed=seed)
        _perturb(self.mesh.q.data, np.random.default_rng([seed, 1]))
        self.app = app.AirfoilApp(self.mesh, backend=backend)
        self.elements = self.mesh.cells.size
        self.step = self.app.iteration

    def working_set_bytes(self) -> int:
        m = self.mesh
        return sum(d.data.nbytes for d in m.all_dats) + sum(
            mp.values.nbytes for mp in m.all_maps
        )

    def outputs(self) -> dict[str, np.ndarray]:
        """Final observation: every output dat plus the RMS residual."""
        m = self.mesh
        out = {d.name: d.data for d in (m.q, m.qold, m.adt, m.res)}
        out["rms"] = np.sqrt(self.app.rms.data / m.cells.size)
        return out

    def gathered_outputs(self, comm, pm) -> dict[str, np.ndarray]:
        """The same observation on a partitioned mesh (collective call)."""
        m = self.mesh
        rm = pm.local(comm.rank)
        out = {d.name: rm.gather_dat(comm, d) for d in (m.q, m.qold, m.adt, m.res)}
        out["rms"] = np.sqrt(rm.local_global(self.app.rms).data / m.cells.size)
        return out


class CloverCase:
    """One CloverLeaf instance; a lazy step ends with ``lazy.flush``.

    Eager instances never call into ``ops.lazy``: the lazy code must stay
    unreachable there, and the traced pass checks that it is.
    """

    def __init__(self, size: tuple[int, int], seed: int, backend: str = "vec",
                 lazy: bool = False):
        from repro.apps.cloverleaf import app, state
        from repro.ops import lazy as ops_lazy

        self.st = state.clover_bm_state(*size)
        rng = np.random.default_rng([seed, 1])
        _perturb(self.st.density0.interior, rng)
        _perturb(self.st.energy0.interior, rng)
        self.app = app.CloverLeafApp(self.st, backend=backend)
        self.elements = size[0] * size[1]
        self._lazy = ops_lazy if lazy else None
        self.mass0 = self.app.field_summary()["mass"]
        self.step = self._lazy_step if lazy else self.app.step

    def _lazy_step(self) -> None:
        self.app.step()
        self._lazy.flush()

    def working_set_bytes(self) -> int:
        return sum(d.data.nbytes for d in self.st.all_dats)

    def outputs(self) -> dict[str, np.ndarray]:
        """Final observation: flush, field_summary, every dat's interior."""
        if self._lazy is not None:
            self._lazy.flush()
        summary = self.app.field_summary()
        self.mass1 = summary["mass"]
        out = {d.name: d.interior for d in self.st.all_dats}
        out["field_summary"] = np.asarray([summary[k] for k in sorted(summary)])
        return out


def build_case(app: str, size: tuple[int, int], seed: int, *, backend: str = "vec",
               lazy: bool = False):
    if app == "airfoil":
        return AirfoilCase(size, seed, backend)
    return CloverCase(size, seed, backend, lazy)
