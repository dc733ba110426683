"""The in-process MPI simulator: p2p, collectives, topology, counters."""

import numpy as np
import pytest

from repro.simmpi import CartComm, DeadlockError, World, dims_create, run_spmd


class TestPointToPoint:
    def test_send_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        assert run_spmd(2, main)[1] == {"a": 7}

    def test_numpy_payloads_are_copied(self):
        def main(comm):
            if comm.rank == 0:
                data = np.arange(4.0)
                comm.send(data, 1)
                data[:] = -1  # must not affect the receiver
                return None
            return comm.recv(0)

        np.testing.assert_array_equal(run_spmd(2, main)[1], np.arange(4.0))

    def test_tag_matching(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("late", 1, tag=5)
                comm.send("early", 1, tag=3)
                return None
            first = comm.recv(0, tag=3)
            second = comm.recv(0, tag=5)
            return first, second

        assert run_spmd(2, main)[1] == ("early", "late")

    def test_nonblocking_roundtrip(self):
        def main(comm):
            other = 1 - comm.rank
            req_s = comm.isend(comm.rank * 10, other)
            req_r = comm.irecv(other)
            req_s.wait()
            return req_r.wait()

        assert run_spmd(2, main) == [10, 0]

    def test_sendrecv(self):
        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=right, source=left)

        assert run_spmd(3, main) == [2, 0, 1]

    def test_deadlock_detection(self):
        def main(comm):
            # nobody ever sends: must raise, not hang
            return comm.recv(source=1 - comm.rank, timeout=1.5)

        with pytest.raises(RuntimeError, match="DeadlockError|failed"):
            run_spmd(2, main)

    def test_invalid_destination(self):
        def main(comm):
            comm.send(1, dest=99)

        with pytest.raises(RuntimeError):
            run_spmd(2, main)


class TestCollectives:
    def test_bcast(self):
        def main(comm):
            data = {"k": [1, 2]} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        assert all(r == {"k": [1, 2]} for r in run_spmd(3, main))

    def test_gather(self):
        def main(comm):
            return comm.gather(comm.rank**2, root=0)

        out = run_spmd(4, main)
        assert out[0] == [0, 1, 4, 9]
        assert out[1] is None

    def test_allgather(self):
        def main(comm):
            return comm.allgather(comm.rank + 1)

        assert run_spmd(3, main) == [[1, 2, 3]] * 3

    def test_scatter(self):
        def main(comm):
            payloads = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(payloads, root=0)

        assert run_spmd(4, main) == [0, 10, 20, 30]

    def test_allreduce_sum_deterministic_order(self):
        def main(comm):
            return comm.allreduce(float(comm.rank + 1), op="sum")

        assert run_spmd(4, main) == [10.0] * 4

    @pytest.mark.parametrize("op,expect", [("min", 0), ("max", 3), ("prod", 0)])
    def test_allreduce_ops(self, op, expect):
        def main(comm):
            return comm.allreduce(comm.rank, op=op)

        assert run_spmd(4, main) == [expect] * 4

    @pytest.mark.parametrize("nranks", [2, 4])
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_allreduce_min_max_keep_a_nan_from_any_rank(self, nranks, op):
        for nan_rank in range(nranks):
            def main(comm, nan_rank=nan_rank):
                v = float("nan") if comm.rank == nan_rank else float(comm.rank + 1)
                return comm.allreduce(v, op=op)

            out = run_spmd(nranks, main)
            assert all(type(v) is float and np.isnan(v) for v in out), (nan_rank, out)

    @pytest.mark.parametrize("op,fold", [("min", np.minimum), ("max", np.maximum)])
    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0), (0.0, -0.0, -0.0, 0.0)])
    def test_allreduce_signed_zero_ties_match_numpy(self, op, fold, zeros):
        def main(comm):
            return comm.allreduce(zeros[comm.rank], op=op)

        expect = zeros[0]
        for z in zeros[1:]:
            expect = fold(expect, z)
        out = run_spmd(len(zeros), main)
        assert all(type(v) is float for v in out)
        assert [np.signbit(v) for v in out] == [np.signbit(expect)] * len(zeros)

    def test_allreduce_array(self):
        def main(comm):
            return comm.allreduce(np.asarray([comm.rank, 1.0]))

        out = run_spmd(3, main)
        np.testing.assert_array_equal(out[0], [3.0, 3.0])

    def test_alltoall(self):
        def main(comm):
            return comm.alltoall([comm.rank * 10 + d for d in range(comm.size)])

        out = run_spmd(3, main)
        assert out[1] == [1, 11, 21]

    def test_barrier_completes(self):
        def main(comm):
            comm.barrier()
            return comm.rank

        assert run_spmd(4, main) == [0, 1, 2, 3]

    def test_unknown_reduce_op(self):
        def main(comm):
            return comm.allreduce(1, op="xor")

        with pytest.raises(RuntimeError):
            run_spmd(2, main)

    def test_neighbor_exchange(self):
        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = comm.neighbor_exchange({right: comm.rank, left: comm.rank})
            return got[left], got[right]

        out = run_spmd(4, main)
        assert out[0] == (3, 1)


class TestWorld:
    def test_single_rank_runs_inline(self):
        def main(comm):
            return comm.allreduce(5)

        assert run_spmd(1, main) == [5]

    def test_rank_args(self):
        def main(comm, base, extra):
            return base + extra

        assert run_spmd(2, main, 100, rank_args=[(1,), (2,)]) == [101, 102]

    def test_counters_capture_messages(self):
        world = World(2)

        def main(comm):
            comm.send(np.zeros(16), 1 - comm.rank)
            comm.recv(1 - comm.rank)

        run_spmd(2, main, world=world)
        total = world.total_counters()
        assert total.messages_sent == 2
        assert total.bytes_sent == 2 * 16 * 8

    def test_failing_rank_reports_not_hangs(self):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(2, main)


class TestDimsCreate:
    def test_perfect_square(self):
        assert dims_create(16, 2) == [4, 4]

    def test_non_square(self):
        dims = dims_create(48, 2)
        assert sorted(dims, reverse=True) == dims
        assert dims[0] * dims[1] == 48

    def test_prime(self):
        assert dims_create(7, 2) == [7, 1]

    def test_3d(self):
        dims = dims_create(64, 3)
        assert dims == [4, 4, 4]

    def test_one_rank(self):
        assert dims_create(1, 2) == [1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            dims_create(0, 2)


class TestCartComm:
    def _cart(self, dims):
        world = World(int(np.prod(dims)))
        return [CartComm(c, dims) for c in world.comms]

    def test_coords_roundtrip(self):
        carts = self._cart([2, 3])
        for cart in carts:
            assert cart.rank_of(cart.coords()) == cart.rank

    def test_shift_interior(self):
        carts = self._cart([3, 3])
        centre = carts[4]  # coords (1, 1)
        lo, hi = centre.shift(0)
        assert (lo, hi) == (1, 7)

    def test_shift_boundary_is_none(self):
        carts = self._cart([3, 3])
        corner = carts[0]
        lo, hi = corner.shift(0)
        assert lo is None and hi == 3

    def test_neighbours_of_corner(self):
        carts = self._cart([3, 3])
        assert carts[0].neighbours() == [1, 3]

    def test_size_mismatch_rejected(self):
        world = World(4)
        with pytest.raises(ValueError):
            CartComm(world.comms[0], [3, 3])
