"""Quickstart: the OP2 and OPS APIs in ~60 lines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import op2, ops

# ---------------------------------------------------------------------------
# OP2: unstructured.  Mesh = sets + maps + dats; computation = parallel
# loops with declared access modes (paper Section II-A).
# ---------------------------------------------------------------------------

nodes = op2.Set(5, "nodes")
edges = op2.Set(4, "edges")
edge2node = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3], [3, 4]], "edge2node")
temperature = op2.Dat(nodes, 1, [10.0, 20.0, 30.0, 40.0, 50.0], name="T")
flux = op2.Dat(nodes, 1, name="flux")


def exchange(t_left, t_right, f_left, f_right):
    """User kernel: written elementwise, single-threaded perspective."""
    d = 0.5 * (t_right[0] - t_left[0])
    f_left[0] += d
    f_right[0] -= d


k_exchange = op2.Kernel(exchange, "exchange", flops_per_elem=3)

# a loop site that runs many times binds itself once: op2.loop validates
# the arguments here and returns a handle that replays the compiled plan
# (op2.par_loop(k_exchange, edges, ...) is the same call, unbound)
exchange_loop = op2.loop(
    k_exchange,
    edges,
    temperature(op2.READ, edge2node, 0),
    temperature(op2.READ, edge2node, 1),
    flux(op2.INC, edge2node, 0),
    flux(op2.INC, edge2node, 1),
)
exchange_loop()
print("OP2 nodal fluxes:", flux.data[:, 0])

# the translator generated a vectorised kernel behind the scenes:
print("\ngenerated vector kernel:")
print(k_exchange.vec_source)

# ---------------------------------------------------------------------------
# OPS: structured.  Blocks + dats with halos + declared stencils.
# ---------------------------------------------------------------------------

grid = ops.Block(2, "grid")
u = ops.Dat(grid, (6, 6), halo_depth=1, name="u")
v = ops.Dat(grid, (6, 6), halo_depth=1, name="v")
u.interior[...] = np.arange(36.0).reshape(6, 6)


def smooth(a, b):
    b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])


ops.par_loop(
    smooth,
    grid,
    [(1, 5), (1, 5)],
    u(ops.READ, ops.S2D_5PT),
    v(ops.WRITE),
    check=True,  # runtime stencil verification (paper Section II-C)
)
print("\nOPS smoothed interior:")
print(v.interior[1:5, 1:5])

# global reductions use explicit handles
total = ops.Reduction("inc", name="total")
ops.par_loop(lambda a, t: t.inc(a[0, 0]), grid, [(0, 6), (0, 6)], u(ops.READ), total,
             name="sum")
print("\nOPS reduction, sum(u) =", total.value)
