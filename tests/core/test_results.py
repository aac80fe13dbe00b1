"""Tests for SurveyReport construction and derived quantities."""

from __future__ import annotations

import pytest

from repro.core.results import SurveyReport
from repro.runtime.network_model import simulate_time
from repro.runtime.stats import WorldStats


def make_stats():
    stats = WorldStats(2)
    stats.begin_phase("push")
    stats.ranks[0].current.wire_bytes = 1000
    stats.ranks[0].current.wire_messages = 3
    stats.ranks[0].current.add_app("triangles_found", 5)
    stats.ranks[0].current.add_app("wedge_checks", 50)
    stats.begin_phase("pull")
    stats.ranks[1].current.wire_bytes = 500
    stats.ranks[1].current.wire_messages = 1
    stats.ranks[1].current.add_app("triangles_found", 2)
    stats.ranks[1].current.add_app("vertices_pulled", 4)
    return stats


class TestFromWorldStats:
    def test_aggregates_counters_across_phases(self):
        stats = make_stats()
        report = SurveyReport.from_world_stats(
            algorithm="push_pull",
            graph_name="g",
            world_stats=stats,
            simulated=simulate_time(stats, phases=["push", "pull"]),
            phases=["push", "pull"],
        )
        assert report.triangles == 7
        assert report.wedge_checks == 50
        assert report.communication_bytes == 1500
        assert report.wire_messages == 4
        assert report.vertices_pulled == 4
        assert report.nranks == 2

    def test_only_listed_phases_counted(self):
        stats = make_stats()
        report = SurveyReport.from_world_stats(
            algorithm="push",
            graph_name="g",
            world_stats=stats,
            simulated=simulate_time(stats, phases=["push"]),
            phases=["push"],
        )
        assert report.triangles == 5
        assert report.communication_bytes == 1000

    def test_derived_quantities(self):
        stats = make_stats()
        report = SurveyReport.from_world_stats(
            algorithm="push_pull",
            graph_name="g",
            world_stats=stats,
            simulated=simulate_time(stats, phases=["push", "pull"]),
            phases=["push", "pull"],
        )
        assert report.pulls_per_rank == pytest.approx(2.0)
        assert report.communication_gigabytes() == pytest.approx(1500 / 1e9)
        breakdown = report.phase_breakdown()
        assert set(breakdown) == {"push", "pull"}
        assert report.simulated_seconds == pytest.approx(sum(breakdown.values()))

    def test_as_row_has_stable_keys(self):
        stats = make_stats()
        report = SurveyReport.from_world_stats(
            algorithm="push_pull",
            graph_name="g",
            world_stats=stats,
            simulated=simulate_time(stats, phases=["push", "pull"]),
            phases=["push", "pull"],
        )
        row = report.as_row()
        for key in ("graph", "algorithm", "nodes", "triangles", "sim_seconds", "comm_bytes"):
            assert key in row
        assert row["sim_seconds[push]"] == report.phase_seconds("push")


class TestReportTypes:
    """Reports hold plain Python numbers on every storage mode."""

    @pytest.mark.parametrize("storage", ["resident", "mmap"])
    @pytest.mark.parametrize("algorithm", ["push", "push_pull"])
    def test_counters_are_python_numbers_and_row_serializes(
        self, small_er, algorithm, storage
    ):
        import json

        from repro.core import triangle_survey
        from repro.core.callbacks import TriangleCounter
        from repro.graph import DODGraph
        from repro.runtime import World

        world = World(4)
        dodgr = DODGraph.build(small_er.to_distributed(world), mode="bulk")
        counter = TriangleCounter(world)
        report = triangle_survey(
            dodgr, counter.callback, algorithm=algorithm, storage=storage
        )
        dodgr.release()
        if algorithm == "push_pull":
            assert report.vertices_pulled > 0  # the pull phase ran
        for name in (
            "triangles",
            "wedge_checks",
            "communication_bytes",
            "wire_messages",
            "vertices_pulled",
        ):
            assert type(getattr(report, name)) is int, name
        assert type(report.simulated_seconds) is float
        for name in report.phases:
            assert type(report.phase_seconds(name)) is float, name
        json.dumps(report.as_row())
