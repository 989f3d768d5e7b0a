"""Tests for the collective plans and the VirtualCluster front end."""

import pytest

from repro import registry
from repro.comm import VirtualCluster
from repro.core.combining import allreduce_time
from repro.core.fib import broadcast_time, broadcast_time_postal
from repro.params import LogPParams, postal

FIG1 = LogPParams(P=8, L=6, o=2, g=4)


class TestCommunicatorPlans:
    """The plans behind the MPI vocabulary, built through registry.plan."""

    def test_bcast_cycles(self):
        assert registry.completion(registry.plan("broadcast", FIG1)) == 24

    def test_bcast_rooted(self):
        plan = VirtualCluster(postal(P=6, L=2))._plan("broadcast", root=4)
        # processor 4 never receives; everyone else exactly once
        receivers = sorted(op.dst for op in plan.sends)
        assert receivers == [0, 1, 2, 3, 5]

    def test_bcast_root_out_of_range(self):
        with pytest.raises(ValueError, match="root 8 out of range"):
            VirtualCluster(FIG1).bcast("x", root=8)

    def test_kitem_requires_postal(self):
        with pytest.raises(ValueError, match="requires the postal"):
            registry.plan("kitem", FIG1, k=4)

    def test_kitem_cycles(self):
        plan = registry.plan("kitem", postal(P=10, L=3), k=8)
        assert registry.completion(plan) == 17

    def test_scatter_gather_symmetric(self):
        scatter = registry.completion(registry.plan("scatter", FIG1))
        assert scatter == registry.completion(registry.plan("gather", FIG1))
        assert scatter == FIG1.send_cost + (FIG1.P - 2) * FIG1.g

    def test_reduce_matches_bcast(self):
        reduce = registry.completion(registry.plan("reduction", FIG1))
        assert reduce == registry.completion(registry.plan("broadcast", FIG1))
        assert reduce == 24

    def test_allreduce_combining_when_sized(self):
        params = postal(P=9, L=3)  # 9 = f_7 for L=3
        assert allreduce_time(params) == (7, "combining")
        assert registry.completion(registry.plan("allreduce", params)) == 7

    def test_allreduce_fallback(self):
        params = postal(P=7, L=3)  # 7 is not a P(T) value
        assert allreduce_time(params) == (
            2 * broadcast_time_postal(7, 3),
            "reduce+bcast",
        )

    def test_allgather_alltoall(self):
        params = postal(P=5, L=2)
        for name in ("all-to-all", "all-to-all-personalized"):
            plan = registry.plan(name, params)
            assert registry.completion(plan) == 2 + 3  # L + (P-2)g


class TestVirtualClusterData:
    def test_bcast_values(self):
        cluster = VirtualCluster(FIG1)
        values, cycles = cluster.bcast("payload", root=3)
        assert values == ["payload"] * 8
        assert cycles == 24

    def test_kitem_values(self):
        cluster = VirtualCluster(postal(P=10, L=3))
        data = [f"item{i}" for i in range(8)]
        results, cycles = cluster.kitem_bcast(data, root=0)
        assert all(r == data for r in results)
        assert cycles == 17

    def test_scatter_values(self):
        cluster = VirtualCluster(postal(P=4, L=2))
        values, _ = cluster.scatter(["a", "b", "c", "d"], root=1)
        assert values == ["a", "b", "c", "d"]

    def test_scatter_wrong_count(self):
        with pytest.raises(ValueError):
            VirtualCluster(postal(P=4, L=2)).scatter(["a"], root=0)

    def test_reduce_sum(self):
        cluster = VirtualCluster(postal(P=9, L=3))
        total, cycles = cluster.reduce(list(range(9)))
        assert total == sum(range(9))
        assert cycles == broadcast_time(9, postal(P=9, L=3))

    def test_reduce_custom_op(self):
        cluster = VirtualCluster(postal(P=5, L=2))
        result, _ = cluster.reduce([3, 1, 4, 1, 5], op=max)
        assert result == 5

    def test_allreduce_combining_values(self):
        cluster = VirtualCluster(postal(P=9, L=3))
        results, cycles = cluster.allreduce(list(range(1, 10)))
        assert results == [45] * 9
        assert cycles == 7

    def test_allreduce_fallback_values(self):
        cluster = VirtualCluster(postal(P=7, L=3))
        results, _ = cluster.allreduce([1] * 7)
        assert results == [7] * 7

    def test_allgather_values(self):
        cluster = VirtualCluster(postal(P=4, L=2))
        results, _ = cluster.allgather(["w", "x", "y", "z"])
        assert all(r == ["w", "x", "y", "z"] for r in results)

    def test_alltoall_values(self):
        P = 4
        cluster = VirtualCluster(postal(P=P, L=2))
        matrix = [[f"{i}->{j}" for j in range(P)] for i in range(P)]
        results, _ = cluster.alltoall(matrix)
        for dst in range(P):
            assert results[dst] == [f"{src}->{dst}" for src in range(P)]

    def test_alltoall_shape_checked(self):
        with pytest.raises(ValueError):
            VirtualCluster(postal(P=3, L=2)).alltoall([[1, 2], [3, 4]])

    def test_allreduce_max(self):
        cluster = VirtualCluster(postal(P=9, L=3))
        results, _ = cluster.allreduce([2, 9, 4, 7, 1, 8, 3, 5, 6], op=max)
        assert results == [9] * 9
