"""Tests for the design-choice ablation experiments (small configurations)."""

import pytest

from repro.experiments import (
    ablation_adaptive_refinement,
    ablation_axis_policy,
    ablation_decomposition_depth,
    ablation_expected_distance_agreement,
)


class TestDecompositionDepthAblation:
    def test_deeper_caps_do_not_hurt_quality(self):
        table = ablation_decomposition_depth(
            depths=(1, 3), num_objects=300, num_queries=2, iterations=3, seed=0
        )
        uncertainties = table.column("uncertainty")
        assert uncertainties[1] <= uncertainties[0] + 1e-9

    def test_columns_complete(self):
        table = ablation_decomposition_depth(
            depths=(2,), num_objects=200, num_queries=1, iterations=2, seed=0
        )
        row = table.rows[0]
        assert set(row) == {"depth_cap", "uncertainty", "runtime_seconds"}


class TestAxisPolicyAblation:
    def test_both_policies_run(self):
        table = ablation_axis_policy(
            num_objects=300, num_queries=2, iterations=3, seed=0
        )
        assert set(table.column("policy")) == {"round_robin", "widest"}
        assert all(row["uncertainty"] >= 0.0 for row in table)


class TestAdaptiveRefinementAblation:
    def test_zero_threshold_matches_uniform_quality(self):
        table = ablation_adaptive_refinement(
            thresholds=(0.0,), num_objects=300, num_queries=2, iterations=3, seed=0
        )
        rows = {row["threshold"]: row for row in table}
        assert rows[0.0]["uncertainty"] == pytest.approx(
            rows["uniform"]["uncertainty"], abs=1e-9
        )

    def test_generous_threshold_reduces_partitions(self):
        table = ablation_adaptive_refinement(
            thresholds=(0.5,), num_objects=300, num_queries=2, iterations=4, seed=0
        )
        rows = {row["threshold"]: row for row in table}
        assert rows[0.5]["max_partitions"] <= rows["uniform"]["max_partitions"]


class TestExpectedDistanceAgreementAblation:
    def test_reports_every_query(self):
        table = ablation_expected_distance_agreement(
            num_objects=100,
            max_extent=0.08,
            k=3,
            num_queries=2,
            max_iterations=3,
            seed=0,
        )
        assert len(table) == 2
        for row in table:
            assert row["heuristic_size"] == 3
            assert row["symmetric_difference"] >= 0
        # with large object extents the two semantics disagree at least once
        assert sum(table.column("symmetric_difference")) >= 1
