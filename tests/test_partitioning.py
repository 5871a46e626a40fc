"""Tests for the partitioning module (contribution C3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    AppGraph,
    Component,
    DataFlow,
    ml_training_app,
    nightly_analytics_app,
    photo_backup_app,
    random_tree_app,
)
from repro.core.partitioning import (
    ExhaustivePartitioner,
    FixedPartitioner,
    GreedyPartitioner,
    MinCutPartitioner,
    ObjectiveWeights,
    Partition,
    PartitionContext,
    TreeDPPartitioner,
    _min_cut_sink_side,
    evaluate_partition,
    pareto_front,
)
from repro.sim.rng import RngStream


def make_context(app, input_mb=2.0, uplink_bps=1.25e6, weights=None, **kwargs):
    work = {c.name: c.work_for(input_mb) for c in app.components}
    return PartitionContext(
        app=app,
        input_mb=input_mb,
        work=work,
        uplink_bps=uplink_bps,
        weights=weights or ObjectiveWeights(),
        **kwargs,
    )


def two_stage_app(offloadable_b=True):
    return AppGraph(
        "two",
        [
            Component("a", work_gcycles=1.2, offloadable=False),
            Component("b", work_gcycles=12.0, offloadable=offloadable_b),
        ],
        [DataFlow("a", "b", bytes_fixed=1e6)],
    )


class TestObjectiveWeights:
    def test_combine(self):
        weights = ObjectiveWeights(1.0, 2.0, 3.0)
        assert weights.combine(1.0, 1.0, 1.0) == 6.0

    def test_presets_ordering(self):
        interactive = ObjectiveWeights.interactive()
        relaxed = ObjectiveWeights.non_time_critical()
        assert interactive.latency_weight > relaxed.latency_weight
        assert relaxed.cost_weight > interactive.cost_weight

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(latency_weight=-1.0)


class TestPartition:
    def test_constructors(self):
        app = photo_backup_app()
        assert Partition.local_only(app).cloud == frozenset()
        full = Partition.full_offload(app)
        assert "capture" not in full.cloud
        assert "transcode" in full.cloud

    def test_validate_unknown(self):
        app = photo_backup_app()
        with pytest.raises(ValueError):
            Partition(app.name, frozenset({"ghost"})).validate(app)

    def test_validate_pinned(self):
        app = photo_backup_app()
        with pytest.raises(ValueError):
            Partition(app.name, frozenset({"capture"})).validate(app)

    def test_moved_flips(self):
        partition = Partition("x", frozenset({"a"}))
        assert partition.moved("a").cloud == frozenset()
        assert partition.moved("b").cloud == frozenset({"a", "b"})


class TestEvaluation:
    def test_local_only_hand_computed(self):
        app = two_stage_app()
        ctx = make_context(app, input_mb=0.0, ue_cycles_per_second=1.2e9)
        evaluation = evaluate_partition(ctx, Partition.local_only(app))
        # a: 1.2 gc / 1.2 GHz = 1 s; b: 12 gc -> 10 s; no transfers.
        assert evaluation.serialized_latency_s == pytest.approx(11.0)
        assert evaluation.makespan_s == pytest.approx(11.0)
        assert evaluation.cloud_cost_usd == 0.0
        assert evaluation.ue_energy_j == pytest.approx(0.9 * 11.0)

    def test_offload_hand_computed(self):
        app = two_stage_app()
        ctx = make_context(
            app,
            input_mb=0.0,
            ue_cycles_per_second=1.2e9,
            uplink_bps=1e6,
            uplink_latency_s=0.1,
        )
        evaluation = evaluate_partition(
            ctx, Partition(app.name, frozenset({"b"}))
        )
        # a local: 1 s. Transfer 1e6 B at 1e6 B/s + 0.1 = 1.1 s.
        # b in cloud at 1769 MB: 12/2.4 = 5 s.
        assert evaluation.serialized_latency_s == pytest.approx(1.0 + 1.1 + 5.0)
        assert evaluation.makespan_s == pytest.approx(7.1)
        expected_energy = 0.9 * 1.0 + 1.3 * 1.1 + 0.025 * 5.0
        assert evaluation.ue_energy_j == pytest.approx(expected_energy)
        assert evaluation.cloud_cost_usd > 0

    def test_makespan_below_serialized_for_parallel_dag(self):
        app = AppGraph(
            "par",
            [Component("s", offloadable=False), Component("x"), Component("y")],
            [DataFlow("s", "x"), DataFlow("s", "y")],
        )
        ctx = make_context(app)
        evaluation = evaluate_partition(ctx, Partition.local_only(app))
        assert evaluation.makespan_s < evaluation.serialized_latency_s

    def test_idle_energy_toggle(self):
        app = two_stage_app()
        with_idle = make_context(app, include_idle_energy=True)
        without_idle = make_context(app, include_idle_energy=False)
        partition = Partition(app.name, frozenset({"b"}))
        assert (
            evaluate_partition(with_idle, partition).ue_energy_j
            > evaluate_partition(without_idle, partition).ue_energy_j
        )

    def test_context_validation(self):
        app = two_stage_app()
        with pytest.raises(ValueError):
            PartitionContext(app=app, input_mb=1.0, work={"a": 1.0})  # missing b
        with pytest.raises(ValueError):
            make_context(app, ue_cycles_per_second=0.0)


class TestOptimality:
    """Exact methods must match exhaustive enumeration."""

    @pytest.mark.parametrize(
        "factory", [photo_backup_app, nightly_analytics_app, ml_training_app]
    )
    @pytest.mark.parametrize("uplink_bps", [1e5, 1.25e6, 1.25e7])
    def test_mincut_matches_exhaustive(self, factory, uplink_bps):
        ctx = make_context(factory(), uplink_bps=uplink_bps)
        exact = ExhaustivePartitioner().evaluate(ctx)
        mincut = MinCutPartitioner().evaluate(ctx)
        assert mincut.objective == pytest.approx(exact.objective, rel=1e-7)

    @pytest.mark.parametrize(
        "factory", [nightly_analytics_app, ml_training_app]
    )
    def test_treedp_matches_exhaustive_on_trees(self, factory):
        ctx = make_context(factory())
        exact = ExhaustivePartitioner().evaluate(ctx)
        tree = TreeDPPartitioner().evaluate(ctx)
        assert tree.objective == pytest.approx(exact.objective, rel=1e-7)

    def test_treedp_rejects_non_tree(self):
        ctx = make_context(photo_backup_app())
        with pytest.raises(ValueError):
            TreeDPPartitioner().partition(ctx)

    @given(
        n=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=200),
        uplink=st.sampled_from([2e5, 1.25e6, 1e7]),
    )
    @settings(max_examples=25, deadline=None)
    def test_mincut_and_dp_optimal_on_random_trees(self, n, seed, uplink):
        app = random_tree_app(n, RngStream(seed))
        ctx = make_context(app, uplink_bps=uplink)
        exact = ExhaustivePartitioner().evaluate(ctx).objective
        assert MinCutPartitioner().evaluate(ctx).objective == pytest.approx(
            exact, rel=1e-7
        )
        assert TreeDPPartitioner().evaluate(ctx).objective == pytest.approx(
            exact, rel=1e-7
        )

    def test_greedy_close_to_optimal(self):
        ctx = make_context(photo_backup_app())
        exact = ExhaustivePartitioner().evaluate(ctx).objective
        greedy = GreedyPartitioner().evaluate(ctx).objective
        assert greedy <= exact * 1.10

    def test_mincut_partition_cost_equals_cut_value(self):
        """Regression: with float capacities, networkx can return a
        *correct cut value* but a partition whose cost exceeds it
        (residual reachability without tolerance).  The integer-scaled
        formulation must return a partition whose evaluated objective
        matches the optimum on this specific instance (pipeline #11 of
        seed 101 at 0.25 MB/s, which triggered the bug)."""
        from repro.apps import linear_pipeline_app

        rng = RngStream(101)
        apps = [linear_pipeline_app(8, rng) for _ in range(12)]
        app = apps[11]
        ctx = make_context(app, input_mb=3.0, uplink_bps=2.5e5)
        exact = ExhaustivePartitioner().evaluate(ctx)
        mincut = MinCutPartitioner().evaluate(ctx)
        assert mincut.objective == pytest.approx(exact.objective, rel=1e-7)
        assert mincut.partition.cloud == exact.partition.cloud

    def test_exhaustive_size_cap(self):
        app = random_tree_app(25, RngStream(0))
        ctx = make_context(app)
        with pytest.raises(ValueError):
            ExhaustivePartitioner(max_offloadable=10).partition(ctx)


#: Small values make ties common; the top of the range is the ~1e14
#: scale MinCutPartitioner maps its largest finite capacity to.
_CAPACITIES = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 10**14))


@st.composite
def _flow_networks(draw):
    """``(u, v, capacity)`` edges over source ``s``, sink ``t`` and 2-12
    inner nodes; repeated pairs exercise overwrite-on-duplicate."""
    nodes = [f"v{i}" for i in range(draw(st.integers(2, 12)))]
    edges = []
    for node in nodes:
        edges.append(("s", node, draw(_CAPACITIES)))
        edges.append((node, "t", draw(_CAPACITIES)))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda pair: pair[0] != pair[1]
    )
    for u, v in draw(st.lists(pairs, max_size=3 * len(nodes))):
        edges.append((u, v, draw(_CAPACITIES)))
    # A pinned node: its source edge exceeds every finite capacity sum.
    edges.append(("s", draw(st.sampled_from(nodes)), 10**17))
    return edges


def _brute_force_sink_side(edges, source, sink):
    """Minimal sink side of a minimum cut, by enumerating every cut.

    With ``source`` and ``sink`` fixed, each subset of the inner nodes is
    one cut (at most 2^12 here).  Minimum cuts are closed under
    intersection, so the intersection of all minimum sink sides is
    itself a minimum sink side, and the smallest one.
    """
    capacity = {}
    for u, v, cap in edges:
        capacity[(u, v)] = cap  # a repeated pair overwrites
    inner = sorted({n for u, v, _cap in edges for n in (u, v)} - {source, sink})
    best_value, minimal = None, None
    for mask in range(1 << len(inner)):
        side = {sink} | {n for i, n in enumerate(inner) if mask >> i & 1}
        value = sum(
            cap
            for (u, v), cap in capacity.items()
            if u not in side and v in side
        )
        if best_value is None or value < best_value:
            best_value, minimal = value, side
        elif value == best_value:
            minimal = minimal & side
    return minimal


class TestIntegerMinCut:
    """The in-house max-flow against brute-force cut enumeration."""

    @given(_flow_networks())
    @settings(max_examples=60, deadline=None)
    def test_sink_side_matches_enumeration(self, edges):
        assert _min_cut_sink_side(edges, "s", "t") == _brute_force_sink_side(
            edges, "s", "t"
        )

    def test_ties_resolve_to_the_source_side(self):
        # a costs 5 on either side and stays local; b is cheaper remote.
        edges = [("s", "a", 5), ("a", "t", 5), ("s", "b", 2), ("b", "t", 3)]
        assert _min_cut_sink_side(edges, "s", "t") == {"b", "t"}

    def test_duplicate_edge_overwrites(self):
        edges = [("s", "a", 9), ("a", "t", 5), ("s", "a", 1)]
        assert _min_cut_sink_side(edges, "s", "t") == {"a", "t"}
        assert _min_cut_sink_side(edges[:2], "s", "t") == {"t"}


class TestBehaviouralShapes:
    def test_low_bandwidth_forces_local(self):
        """At dial-up rates, cutting any heavy edge is prohibitive."""
        app = photo_backup_app()
        slow = make_context(app, uplink_bps=1e3, weights=ObjectiveWeights.interactive())
        partition = MinCutPartitioner().partition(slow)
        assert len(partition.cloud) == 0

    def test_high_bandwidth_encourages_offload(self):
        app = photo_backup_app()
        fast = make_context(app, uplink_bps=1.25e8)
        partition = MinCutPartitioner().partition(fast)
        assert len(partition.cloud) >= 3

    def test_pinned_components_never_offloaded(self):
        for uplink in (1e3, 1e6, 1e9):
            ctx = make_context(ml_training_app(), uplink_bps=uplink)
            partition = MinCutPartitioner().partition(ctx)
            assert "sample_data" not in partition.cloud
            assert "apply_update" not in partition.cloud

    def test_weights_steer_the_cut(self):
        """Latency-dominant weights offload less than cost-dominant ones
        on a slow uplink (transfers hurt latency, cloud compute is cheap)."""
        app = ml_training_app()
        slow = 2.5e5
        latency_ctx = make_context(
            app, uplink_bps=slow, weights=ObjectiveWeights(10.0, 0.0, 0.0)
        )
        energy_ctx = make_context(
            app, uplink_bps=slow, weights=ObjectiveWeights(0.0, 10.0, 0.0)
        )
        latency_cut = MinCutPartitioner().partition(latency_ctx)
        energy_cut = MinCutPartitioner().partition(energy_ctx)
        assert len(energy_cut.cloud) >= len(latency_cut.cloud)


class TestSimulatedAnnealing:
    def test_never_worse_than_mincut_seed(self):
        from repro.core.partitioning import SimulatedAnnealingPartitioner

        for seed in (0, 1, 2):
            app = random_tree_app(8, RngStream(seed))
            ctx = make_context(app)

            def makespan_score(partition):
                evaluation = evaluate_partition(ctx, partition)
                return ctx.weights.combine(
                    evaluation.makespan_s,
                    evaluation.ue_energy_j,
                    evaluation.cloud_cost_usd,
                )

            mincut_score = makespan_score(MinCutPartitioner().partition(ctx))
            annealed = SimulatedAnnealingPartitioner(
                RngStream(seed + 50), iterations=300
            ).partition(ctx)
            assert makespan_score(annealed) <= mincut_score + 1e-9

    def test_matches_exhaustive_makespan_on_small_graphs(self):
        from repro.apps import fanout_fanin_app
        from repro.core.partitioning import SimulatedAnnealingPartitioner

        app = fanout_fanin_app(4, RngStream(11))
        ctx = make_context(app, weights=ObjectiveWeights.interactive())

        def makespan_score(partition):
            evaluation = evaluate_partition(ctx, partition)
            return ctx.weights.combine(
                evaluation.makespan_s,
                evaluation.ue_energy_j,
                evaluation.cloud_cost_usd,
            )

        optimal = makespan_score(
            ExhaustivePartitioner(use_makespan=True).partition(ctx)
        )
        annealed = makespan_score(
            SimulatedAnnealingPartitioner(RngStream(7), iterations=800).partition(ctx)
        )
        assert annealed == pytest.approx(optimal, rel=1e-6)

    def test_respects_pins(self):
        from repro.core.partitioning import SimulatedAnnealingPartitioner

        ctx = make_context(photo_backup_app())
        partition = SimulatedAnnealingPartitioner(
            RngStream(3), iterations=200
        ).partition(ctx)
        partition.validate(ctx.app)

    def test_validation(self):
        from repro.core.partitioning import SimulatedAnnealingPartitioner

        with pytest.raises(ValueError):
            SimulatedAnnealingPartitioner(RngStream(0), iterations=0)
        with pytest.raises(ValueError):
            SimulatedAnnealingPartitioner(RngStream(0), initial_temperature=0)
        with pytest.raises(ValueError):
            SimulatedAnnealingPartitioner(RngStream(0), cooling=1.0)

    def test_deterministic_given_stream(self):
        from repro.core.partitioning import SimulatedAnnealingPartitioner

        ctx = make_context(photo_backup_app())
        a = SimulatedAnnealingPartitioner(RngStream(9), iterations=200).partition(ctx)
        b = SimulatedAnnealingPartitioner(RngStream(9), iterations=200).partition(ctx)
        assert a == b


class TestFixedPartitioner:
    def test_returns_given(self):
        app = photo_backup_app()
        fixed = FixedPartitioner(Partition.full_offload(app))
        ctx = make_context(app)
        assert fixed.partition(ctx) == Partition.full_offload(app)

    def test_validates(self):
        app = photo_backup_app()
        fixed = FixedPartitioner(Partition(app.name, frozenset({"capture"})))
        with pytest.raises(ValueError):
            fixed.partition(make_context(app))


class TestParetoFront:
    def test_dominated_removed(self):
        app = two_stage_app()
        ctx = make_context(app)
        evaluations = [
            evaluate_partition(ctx, Partition.local_only(app)),
            evaluate_partition(ctx, Partition(app.name, frozenset({"b"}))),
        ]
        front = pareto_front(evaluations)
        assert 1 <= len(front) <= 2
        for kept in front:
            assert not any(other.dominates(kept) for other in evaluations)
