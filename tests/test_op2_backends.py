"""Backend equivalence: seq and vec must agree bitwise-ish.

The sequential backend is the semantic reference; vec must reproduce it on
direct loops, indirect reads, indirect increments and global reductions —
including on randomly generated meshes (hypothesis), where the two-level
colouring those meshes get is also checked by the race detector.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import op2, telemetry, verify
from repro.common.config import swap
from repro.common.counters import PerfCounters
from repro.common.errors import APIError
from repro.common.profiling import add_loop_observer, counters_scope, remove_loop_observer
from repro.op2.plan import build_plan

BACKENDS = ["seq", "vec"]


# module-level kernels so inspect.getsource works
def k_scale(v, out):
    out[0] = 2.0 * v[0] + 1.0


def k_edge_inc(a, b, xa, xb):
    a[0] += xb[0]
    b[0] += xa[0]


def k_gather2(xa, xb, out):
    out[0] = xa[0] * xb[0]


def k_reduce(v, g):
    g[0] += v[0] * v[0]


def k_minmax(v, lo, hi):
    lo[0] = min(lo[0], v[0])
    hi[0] = max(hi[0], v[0])


def k_multidim(q, out):
    for n in range(3):
        out[n] = q[n] + float(n)


K_SCALE = op2.Kernel(k_scale, "k_scale", flops_per_elem=2)
K_EDGE_INC = op2.Kernel(k_edge_inc, "k_edge_inc", flops_per_elem=2)
K_GATHER2 = op2.Kernel(k_gather2, "k_gather2", flops_per_elem=1)
K_REDUCE = op2.Kernel(k_reduce, "k_reduce", flops_per_elem=2)
K_MINMAX = op2.Kernel(k_minmax, "k_minmax")
K_MULTIDIM = op2.Kernel(k_multidim, "k_multidim")


def run_direct(backend, n=20):
    s = op2.Set(n)
    v = op2.Dat(s, 1, np.arange(n, dtype=float))
    out = op2.Dat(s, 1)
    op2.par_loop(K_SCALE, s, v(op2.READ), out(op2.WRITE), backend=backend)
    return out.data.copy()


@pytest.mark.parametrize("backend", BACKENDS)
def test_direct_loop(backend):
    np.testing.assert_allclose(run_direct(backend), run_direct("seq"))


def run_indirect_inc(backend, n=30):
    nodes, edges = op2.Set(n + 1), op2.Set(n)
    m = op2.Map(edges, nodes, 2, [[i, i + 1] for i in range(n)])
    x = op2.Dat(nodes, 1, np.linspace(1, 2, n + 1))
    acc = op2.Dat(nodes, 1)
    op2.par_loop(
        K_EDGE_INC,
        edges,
        acc(op2.INC, m, 0),
        acc(op2.INC, m, 1),
        x(op2.READ, m, 0),
        x(op2.READ, m, 1),
        backend=backend,
    )
    return acc.data.copy()


@pytest.mark.parametrize("backend", BACKENDS)
def test_indirect_increment(backend):
    np.testing.assert_allclose(run_indirect_inc(backend), run_indirect_inc("seq"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_indirect_gather(backend):
    n = 12
    nodes, edges = op2.Set(n + 1), op2.Set(n)
    m = op2.Map(edges, nodes, 2, [[i, i + 1] for i in range(n)])
    x = op2.Dat(nodes, 1, np.arange(n + 1, dtype=float) + 1)
    out = op2.Dat(edges, 1)
    op2.par_loop(
        K_GATHER2, edges, x(op2.READ, m, 0), x(op2.READ, m, 1), out(op2.WRITE),
        backend=backend,
    )
    expect = [(i + 1) * (i + 2) for i in range(n)]
    np.testing.assert_allclose(out.data[:, 0], expect)


@pytest.mark.parametrize("backend", BACKENDS)
def test_global_sum(backend):
    s = op2.Set(10)
    v = op2.Dat(s, 1, np.arange(10, dtype=float))
    g = op2.Global(1, 0.0)
    op2.par_loop(K_REDUCE, s, v(op2.READ), g(op2.INC), backend=backend)
    assert g.value == pytest.approx(float((np.arange(10.0) ** 2).sum()))


@pytest.mark.parametrize("backend", BACKENDS)
def test_global_min_max(backend):
    s = op2.Set(7)
    v = op2.Dat(s, 1, [3.0, -1.0, 4.0, 1.0, 5.0, -9.0, 2.0])
    lo = op2.Global(1, 1e30)
    hi = op2.Global(1, -1e30)
    op2.par_loop(K_MINMAX, s, v(op2.READ), lo(op2.MIN), hi(op2.MAX), backend=backend)
    assert lo.value == -9.0
    assert hi.value == 5.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_multidim_dat(backend):
    s = op2.Set(5)
    q = op2.Dat(s, 3, np.arange(15, dtype=float))
    out = op2.Dat(s, 3)
    op2.par_loop(K_MULTIDIM, s, q(op2.READ), out(op2.WRITE), backend=backend)
    np.testing.assert_allclose(out.data, q.data + np.asarray([0.0, 1.0, 2.0]))


def test_global_inc_accumulates_across_loops():
    s = op2.Set(4)
    v = op2.Dat(s, 1, np.ones(4))
    g = op2.Global(1, 10.0)
    op2.par_loop(K_REDUCE, s, v(op2.READ), g(op2.INC))
    op2.par_loop(K_REDUCE, s, v(op2.READ), g(op2.INC))
    assert g.value == pytest.approx(18.0)


def test_n_elements_restricts_iteration():
    s = op2.Set(10)
    v = op2.Dat(s, 1, np.ones(10))
    out = op2.Dat(s, 1)
    op2.par_loop(K_SCALE, s, v(op2.READ), out(op2.WRITE), n_elements=4)
    assert out.data[:4].all() and not out.data[4:].any()


@pytest.mark.parametrize("use_execplan", [False, True], ids=["interpreted", "compiled"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_n_elements_rejected_at_entry(backend, use_execplan):
    """Every backend raises before an observer, the counters or the trace
    see the call; nothing is written (``slice(0, -3)`` once wrote 7)."""
    s = op2.Set(10)
    v = op2.Dat(s, 1, np.ones(10))
    out = op2.Dat(s, 1)
    events, counters = [], PerfCounters()
    add_loop_observer(events.append)
    try:
        with swap(use_execplan=use_execplan), counters_scope(counters), \
                telemetry.tracing() as trc:
            with pytest.raises(APIError, match="n_elements"):
                op2.par_loop(K_SCALE, s, v(op2.READ), out(op2.WRITE),
                             backend=backend, n_elements=-3)
    finally:
        remove_loop_observer(events.append)
    assert events == [] and counters.loops == {} and not out.data.any()
    assert not any(getattr(e, "name", None) == "par_loop" for e in trc.events())


def test_counters_account_traffic():
    s = op2.Set(10)
    v = op2.Dat(s, 1, np.ones(10))
    out = op2.Dat(s, 1)
    c = PerfCounters()
    with counters_scope(c):
        op2.par_loop(K_SCALE, s, v(op2.READ), out(op2.WRITE))
    rec = c.loop("k_scale")
    assert rec.iterations == 10
    assert rec.bytes_read == 10 * 8
    assert rec.bytes_written == 10 * 8
    assert rec.flops == 20


def test_counters_tag_indirect_traffic():
    c = PerfCounters()
    with counters_scope(c):
        run_indirect_inc("vec")
    rec = c.loop("k_edge_inc")
    assert rec.indirect_reads > 0
    assert rec.indirect_writes > 0


def test_unknown_backend_rejected():
    s = op2.Set(2)
    v = op2.Dat(s, 1)
    with pytest.raises(Exception, match="unknown backend"):
        op2.par_loop(K_SCALE, s, v(op2.READ), v(op2.RW), backend="fpga")


def test_non_kernel_rejected():
    s = op2.Set(2)
    with pytest.raises(Exception, match="Kernel"):
        op2.par_loop(lambda: None, s)


class TestRandomMeshEquivalence:
    """Property test: on random meshes vec matches seq, and the colouring
    plan of every such mesh passes the static and dynamic race checks."""

    @given(
        n_nodes=st.integers(2, 25),
        n_edges=st.integers(1, 60),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_indirect_inc_matches_seq(self, n_nodes, n_edges, seed):
        rng = np.random.default_rng(seed)
        conn = np.stack(
            [rng.integers(0, n_nodes, n_edges), rng.integers(0, n_nodes, n_edges)],
            axis=1,
        )
        xvals = rng.standard_normal(n_nodes)

        def build():
            nodes, edges = op2.Set(n_nodes), op2.Set(n_edges)
            m = op2.Map(edges, nodes, 2, conn)
            x = op2.Dat(nodes, 1, xvals)
            acc = op2.Dat(nodes, 1)
            return nodes, edges, m, x, acc

        def loop_args(m, x, acc):
            return [
                acc(op2.INC, m, 0),
                acc(op2.INC, m, 1),
                x(op2.READ, m, 0),
                x(op2.READ, m, 1),
            ]

        results = {}
        for be in BACKENDS:
            _, edges, m, x, acc = build()
            op2.par_loop(K_EDGE_INC, edges, *loop_args(m, x, acc), backend=be)
            results[be] = acc.data.copy()
        np.testing.assert_allclose(results["vec"], results["seq"], atol=1e-12)

        # small blocks give the random mesh many blocks to colour; these are
        # the checks that fail on a wrong colouring (a sweep through
        # np.add.at would not: it accumulates correctly either way)
        _, edges, m, x, acc = build()
        args = loop_args(m, x, acc)
        plan = build_plan(edges, args, block_size=4)
        assert verify.check_plan(plan, args, loop="k_edge_inc") >= 1
        verify.torn_update_check(K_EDGE_INC, edges, args, plan=plan, seed=seed)
