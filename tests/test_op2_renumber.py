"""RCM renumbering: locality improves, semantics preserved."""

import numpy as np
import pytest

from repro import op2
from repro.common.config import swap
from repro.op2.renumber import (
    apply_permutation,
    bandwidth,
    locality_score,
    rcm_permutation,
    renumber_mesh,
)


def scrambled_mesh(n=40, seed=3):
    """A chain mesh with randomly permuted node numbering (poor locality)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n + 1)
    nodes = op2.Set(n + 1)
    edges = op2.Set(n)
    conn = np.asarray([[perm[i], perm[i + 1]] for i in range(n)])
    m = op2.Map(edges, nodes, 2, conn)
    x = op2.Dat(nodes, 1, np.arange(n + 1, dtype=float)[np.argsort(perm)])
    return nodes, edges, m, x


class TestRCM:
    def test_permutation_is_bijection(self):
        _, _, m, _ = scrambled_mesh()
        perm = rcm_permutation(m)
        assert sorted(perm.tolist()) == list(range(m.to_set.total_size))

    def test_improves_locality(self):
        _, _, m, x = scrambled_mesh()
        before = locality_score(m)
        renumber_mesh(m, [x])
        assert locality_score(m) < before

    def test_improves_bandwidth(self):
        _, _, m, x = scrambled_mesh()
        before = bandwidth(m)
        renumber_mesh(m, [x])
        assert bandwidth(m) <= before


class TestApplyPermutation:
    def test_semantics_preserved(self):
        """Gathering x through the map yields identical values after renumbering."""
        _, edges, m, x = scrambled_mesh()
        before = x.data[m.values].copy()
        renumber_mesh(m, [x])
        after = x.data[m.values]
        np.testing.assert_allclose(after, before)

    def test_wrong_set_dat_rejected(self):
        nodes, edges, m, x = scrambled_mesh()
        wrong = op2.Dat(edges, 1)
        with pytest.raises(Exception):
            apply_permutation(rcm_permutation(m), [wrong], [m])

    def test_identity_permutation_noop(self):
        _, _, m, x = scrambled_mesh()
        n = m.to_set.total_size
        before_map = m.values.copy()
        before_x = x.data.copy()
        apply_permutation(np.arange(n), [x], [m])
        np.testing.assert_array_equal(m.values, before_map)
        np.testing.assert_array_equal(x.data, before_x)


class TestAppLevelRenumber:
    def test_airfoil_result_invariant_under_renumbering(self):
        """Renumbering is a pure optimisation: physics must not change."""
        from repro.apps.hydra import HydraApp, generate_hydra_mesh

        a = HydraApp(generate_hydra_mesh(8, 6, jitter=0.1))
        r_plain = a.run(2)

        b = HydraApp(generate_hydra_mesh(8, 6, jitter=0.1))
        b.renumber()
        r_renum = b.run(2)
        assert r_renum == pytest.approx(r_plain, rel=1e-12)


class TestCachedPlansFollowRenumber:
    """A renumber between two steps must reach every cached loop site."""

    @staticmethod
    def _cell_dats(app) -> dict:
        m = app.mesh
        f = m.fine
        return {
            d.name: d.data.copy()
            for d in (*f.all_dats, *m.all_dats)
            if d.set is f.cells
        }

    @pytest.mark.parametrize("native", [True, False], ids=["native", "vec"])
    def test_renumber_between_steps_matches_a_cold_cache(self, native):
        from repro.apps.hydra import HydraApp

        def run(clear: bool) -> dict:
            op2.clear_plan_cache()
            with swap(native=native):
                app = HydraApp(nx=40, ny=24)
                app.iteration()
                app.renumber()
                if clear:
                    op2.clear_plan_cache()
                app.iteration()
            return self._cell_dats(app)

        cached, cold = run(False), run(True)
        assert cached.keys() == cold.keys() and len(cold) == 10
        for name, arr in cold.items():
            np.testing.assert_array_equal(cached[name], arr, err_msg=name)
