"""Unit tests for the engine registry, EngineConfig and the engine defaults."""

from __future__ import annotations

import pytest

from repro.core import triangle_survey, triangle_survey_push, triangle_survey_push_pull
from repro.core.callbacks import LocalTriangleCounter, TriangleCounter
from repro.core.engine import (
    EngineConfig,
    EngineSpec,
    SurveyRequest,
    engine_names,
    execute_survey,
    registered_engines,
    resolve_engine,
    resolve_request,
    run_survey_with_recovery,
)
from repro.core.engine import registry as registry_module
from repro.core.incremental import StreamingSurvey, incremental_triangle_survey
from repro.graph import DODGraph, community_host_graph
from repro.graph.delta import DeltaBuffer
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.ooc import active_segment_paths
from repro.runtime import UnsupportedBackendError, World, active_segment_names
from repro.service import SurveyService


def build_dodgr(generated, nranks):
    world = World(nranks)
    return world, DODGraph.build(generated.to_distributed(world), mode="bulk")


def applied_triangle_delta(world):
    """One applied edge batch holding a single triangle."""
    buffer = DeltaBuffer(world)
    buffer.stage_edges([(1, 2, 1.0), (2, 3, 2.0), (3, 1, 3.0)])
    return buffer.apply(DistributedGraph(world, name="delta"))


class TestRegistry:
    def test_builtin_engines_registered_in_order(self):
        assert engine_names() == ("legacy", "columnar")
        assert [spec.name for spec in registered_engines()] == list(engine_names())

    def test_resolve_defaults(self):
        assert resolve_engine(None).name == "columnar"
        assert resolve_engine("legacy").name == "legacy"
        assert resolve_engine(resolve_engine("legacy")).name == "legacy"
        assert resolve_engine(EngineConfig(engine="legacy")).name == "legacy"
        assert resolve_engine(EngineConfig(kernel="hash")).name == "columnar"

    def test_columnar_flag(self):
        assert resolve_engine("columnar").columnar
        assert not resolve_engine("legacy").columnar

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown survey engine"):
            resolve_engine("bogus")

    def test_unknown_engine_error_lists_names_and_suggests(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_engine("colunmar")
        message = str(excinfo.value)
        for name in engine_names():
            assert name in message
        assert "did you mean 'columnar'?" in message

    def test_no_suggestion_for_genuinely_foreign_names(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_engine("warp-drive-9000")
        assert "did you mean" not in str(excinfo.value)

    def test_suggest_name_helper(self):
        known = ("legacy", "columnar")
        assert (
            registry_module.suggest_name("colummar", known)
            == "; did you mean 'columnar'?"
        )
        assert registry_module.suggest_name("zzzz", known) == ""
        # Non-string inputs are coerced, never raise.
        assert registry_module.suggest_name(None, known) == ""

    def test_unregistered_spec_rejected(self):
        foreign = EngineSpec(name="legacy", description="an impostor spec")
        with pytest.raises(ValueError, match="not the registered spec"):
            resolve_engine(foreign)

class TestSurveyRequest:
    def test_execute_survey_dispatch(self, small_er):
        _, dodgr = build_dodgr(small_er, 4)
        expected = triangle_survey_push(dodgr, engine="legacy").triangles
        for algorithm in ("push", "push_pull"):
            result = execute_survey(
                SurveyRequest(dodgr=dodgr, algorithm=algorithm), engine="columnar"
            )
            assert result.engine == "columnar"
            assert result.report.triangles == expected
        with pytest.raises(ValueError, match="unknown survey algorithm"):
            execute_survey(SurveyRequest(dodgr=dodgr, algorithm="sideways"))


class TestEngineConfig:
    def test_coerce(self):
        assert EngineConfig.coerce(None) == EngineConfig()
        assert EngineConfig.coerce("columnar").engine == "columnar"
        config = EngineConfig(engine="legacy", kernel="hash")
        assert EngineConfig.coerce(config) is config
        assert EngineConfig.coerce(resolve_engine("legacy")).engine == "legacy"
        with pytest.raises(TypeError):
            EngineConfig.coerce(42)

        class Impostor:  # duck-typed .name must NOT pass as an EngineSpec
            name = "legacy"

        with pytest.raises(TypeError):
            EngineConfig.coerce(Impostor())

    def test_resolve_request_config_wins(self):
        config = EngineConfig(
            engine="legacy",
            kernel="hash",
            callback_compute_units=3,
            backend="process",
            workers=2,
            storage="resident",
        )
        spec, request = resolve_request(
            config,
            dodgr=None,
            kernel="merge_path",
            callback_compute_units=10,
            backend="simulated",
            workers=4,
            storage=None,
        )
        assert spec is resolve_engine("legacy")
        assert (
            request.kernel,
            request.callback_compute_units,
            request.backend,
            request.workers,
            request.storage,
        ) == ("hash", 3, "process", 2, "resident")

    def test_resolve_request_keeps_loose_keywords_config_leaves_unset(self):
        # A config (or spec, name, None) that does NOT pin a field must
        # preserve the caller's loose keyword, never reset it to a default.
        for selector in (
            EngineConfig(engine="columnar"),
            resolve_engine("columnar"),
            "columnar",
            None,
        ):
            spec, request = resolve_request(
                selector, dodgr=None, kernel="hash", callback_compute_units=7, workers=3
            )
            assert spec.name == "columnar"
            assert request.kernel == "hash"
            assert request.callback_compute_units == 7
            assert request.workers == 3
            assert request.backend == "simulated"

    def test_resolve_request_updates_a_given_request(self):
        base = SurveyRequest(dodgr=None, algorithm="push", kernel="hash")
        _, request = resolve_request(EngineConfig(storage="mmap"), base)
        assert (request.algorithm, request.kernel, request.storage) == (
            "push",
            "hash",
            "mmap",
        )
        assert base.storage is None  # the caller's request is not mutated

    def test_analysis_keeps_columnar_default_with_kernel_only_config(
        self, small_er, monkeypatch
    ):
        """The analysis layer's documented columnar default survives a
        kernel-only EngineConfig (the 'pin just the kernel' use)."""
        from repro.analysis import run_clustering_coefficients

        resolved = []
        real = registry_module.resolve_engine

        def recording_resolve(engine=None):
            spec = real(engine)
            resolved.append(spec.name)
            return spec

        monkeypatch.setattr(registry_module, "resolve_engine", recording_resolve)
        world = World(4)
        graph = small_er.to_distributed(world)
        run_clustering_coefficients(graph, engine=EngineConfig(kernel="hash"))
        assert resolved == ["columnar"]

    def test_config_selects_engine_end_to_end(self, small_er):
        """One EngineConfig drives the survey exactly like loose keywords."""
        _, dodgr = build_dodgr(small_er, 4)
        loose = triangle_survey_push(dodgr, kernel="hash", engine="columnar")
        config = triangle_survey_push(
            dodgr, engine=EngineConfig(engine="columnar", kernel="hash")
        )
        assert config.triangles == loose.triangles
        assert config.communication_bytes == loose.communication_bytes
        assert config.wire_messages == loose.wire_messages


class TestValidateRequest:
    """Unsupported execution-axis combinations fail before anything runs."""

    @pytest.mark.parametrize("engine", ["legacy", "columnar"])
    @pytest.mark.parametrize(
        "survey", [triangle_survey_push, triangle_survey_push_pull]
    )
    def test_unknown_kernel_rejected_before_running(self, small_er, survey, engine):
        world, dodgr = build_dodgr(small_er, 4)
        handlers = len(world.registry)
        with pytest.raises(ValueError, match="did you mean 'merge_path'"):
            survey(dodgr, kernel="merge", engine=engine)
        assert len(world.registry) == handlers

    @pytest.mark.parametrize("engine", ["legacy", "columnar"])
    def test_unknown_kernel_rejected_before_incremental_survey(self, engine):
        world = World(4)
        applied = applied_triangle_delta(world)
        world.barrier()  # a counter that reset_stats() would clear
        handlers = len(world.registry)
        with pytest.raises(ValueError, match="did you mean 'merge_path'"):
            incremental_triangle_survey(
                applied.dodgr, applied, None, kernel="merge", engine=engine
            )
        assert len(world.registry) == handlers
        assert world.stats.barriers == 1

    @pytest.mark.parametrize(
        "selector,message",
        [
            (dict(kernel="merge"), "did you mean 'merge_path'"),
            (dict(engine=EngineConfig(kernel="merge")), "did you mean 'merge_path'"),
            (dict(engine="columnr"), "did you mean 'columnar'"),
        ],
        ids=["kernel", "config-kernel", "engine"],
    )
    def test_streaming_survey_rejects_bad_selector_at_construction(
        self, selector, message
    ):
        world = World(4)
        handlers = len(world.registry)
        with pytest.raises(ValueError, match=message):
            StreamingSurvey(world, TriangleCounter, **selector)
        assert len(world.registry) == handlers

    def test_kernel_tier_keyword_is_gone(self):
        world = World(4)
        applied = applied_triangle_delta(world)
        for survey in (triangle_survey, triangle_survey_push, triangle_survey_push_pull):
            with pytest.raises(TypeError, match="kernel_tier"):
                survey(applied.dodgr, kernel_tier="scalar")
        with pytest.raises(TypeError, match="kernel_tier"):
            incremental_triangle_survey(applied.dodgr, applied, kernel_tier="scalar")

    @pytest.mark.parametrize(
        "survey", [triangle_survey_push, triangle_survey_push_pull]
    )
    def test_mmap_rejected_on_process_backend(self, small_er, survey):
        world, dodgr = build_dodgr(small_er, 4)
        handlers = len(world.registry)
        with pytest.raises(ValueError, match="storage='mmap' is not supported"):
            survey(dodgr, storage="mmap", backend="process", workers=2)
        assert len(world.registry) == handlers
        assert dodgr.storage_config().mode == "resident"
        assert not active_segment_paths()
        assert active_segment_names() == frozenset()

    def test_unknown_storage_rejected(self, small_er):
        _, dodgr = build_dodgr(small_er, 4)
        with pytest.raises(ValueError, match="unknown storage mode 'disk'"):
            triangle_survey_push(dodgr, storage="disk")


#: Every full-survey entry point, called as ``run(dodgr, engine)``.
FULL_ENTRY_POINTS = {
    "triangle_survey_push": lambda dodgr, engine: triangle_survey_push(
        dodgr, engine=engine
    ),
    "triangle_survey_push_pull": lambda dodgr, engine: triangle_survey_push_pull(
        dodgr, engine=engine
    ),
    "triangle_survey": lambda dodgr, engine: triangle_survey(dodgr, engine=engine),
    "execute_survey": lambda dodgr, engine: execute_survey(
        SurveyRequest(dodgr=dodgr), engine=engine
    ),
    "run_survey_with_recovery": lambda dodgr, engine: run_survey_with_recovery(
        dodgr, LocalTriangleCounter, engine=engine
    ),
}

#: The delta entry points, called as ``run(world, applied, engine)``.
DELTA_ENTRY_POINTS = {
    "incremental_triangle_survey": lambda world, applied, engine: (
        incremental_triangle_survey(applied.dodgr, applied, engine=engine)
    ),
    "StreamingSurvey": lambda world, applied, engine: StreamingSurvey(
        world, TriangleCounter, engine=engine
    ),
    "SurveyService": lambda world, applied, engine: SurveyService(
        world, engine=engine
    ),
}


def delta_world():
    """A world holding one applied batch, with one barrier on its stats."""
    world = World(4)
    applied = applied_triangle_delta(world)
    world.barrier()  # a counter that reset_stats() would clear
    return world, applied


class TestSelectorMatrix:
    """Every entry point honours every EngineConfig field, or rejects it early."""

    @pytest.mark.parametrize("entry", sorted(FULL_ENTRY_POINTS))
    def test_unknown_kernel_rejected_by_full_surveys(self, small_er, entry):
        world, dodgr = build_dodgr(small_er, 4)
        handlers = len(world.registry)
        with pytest.raises(ValueError, match="unknown intersection kernel 'nope'"):
            FULL_ENTRY_POINTS[entry](dodgr, EngineConfig(kernel="nope"))
        assert len(world.registry) == handlers
        assert world.fault_injector is None

    @pytest.mark.parametrize("entry", sorted(DELTA_ENTRY_POINTS))
    def test_unknown_kernel_rejected_by_delta_entry_points(self, entry):
        world, applied = delta_world()
        handlers = len(world.registry)
        with pytest.raises(ValueError, match="unknown intersection kernel 'nope'"):
            DELTA_ENTRY_POINTS[entry](world, applied, EngineConfig(kernel="nope"))
        assert len(world.registry) == handlers
        assert world.stats.barriers == 1

    @pytest.mark.parametrize("entry", sorted(FULL_ENTRY_POINTS))
    def test_mmap_storage_spills_on_full_surveys(self, small_er, entry):
        world, dodgr = build_dodgr(small_er, 4)
        assert not active_segment_paths()
        FULL_ENTRY_POINTS[entry](dodgr, EngineConfig(storage="mmap"))
        assert dodgr.storage_config().mode == "mmap"
        assert active_segment_paths()
        dodgr.release()
        assert not active_segment_paths()

    def test_mmap_storage_spills_on_service_exact_queries(self, small_er):
        service = SurveyService(World(4), engine=EngineConfig(storage="mmap"))
        service.ingest(small_er.edges)
        answer = service.query("triangle")
        assert answer.outcome == "exact"
        assert active_segment_paths()
        service.close()
        assert not active_segment_paths()

    @pytest.mark.parametrize(
        "config,error,message",
        [
            (EngineConfig(backend="process"), UnsupportedBackendError, "simulated"),
            (EngineConfig(storage="mmap"), ValueError, "storage='mmap'"),
        ],
        ids=["process", "mmap"],
    )
    @pytest.mark.parametrize(
        "entry", ["incremental_triangle_survey", "StreamingSurvey"]
    )
    def test_delta_entry_points_reject_unsupported_axes_up_front(
        self, entry, config, error, message
    ):
        world, applied = delta_world()
        handlers = len(world.registry)
        with pytest.raises(error, match=message):
            DELTA_ENTRY_POINTS[entry](world, applied, config)
        # Nothing registered, stats untouched: no batch was consumed.
        assert len(world.registry) == handlers
        assert world.stats.barriers == 1
        assert not active_segment_paths()

    def test_service_rejects_process_backend_up_front(self):
        world, applied = delta_world()
        handlers = len(world.registry)
        with pytest.raises(UnsupportedBackendError, match="deadlines"):
            DELTA_ENTRY_POINTS["SurveyService"](
                world, applied, EngineConfig(backend="process")
            )
        assert len(world.registry) == handlers
        assert world.fault_injector is None


class TestDefaults:
    def test_every_entry_point_defaults_to_columnar(self, small_er, monkeypatch):
        """engine=None resolves to columnar at every entry point."""
        from repro.analysis import (
            run_closure_time_survey,
            run_clustering_coefficients,
            run_degree_triple_survey,
            run_fqdn_survey,
            run_streaming_closure_time_survey,
            truss_decomposition,
        )
        resolved = []
        real = registry_module.resolve_engine

        def recording_resolve(engine=None):
            spec = real(engine)
            resolved.append(spec.name)
            return spec

        # Every entry point resolves its selector through resolve_request,
        # which looks the engine up in the registry module.
        monkeypatch.setattr(registry_module, "resolve_engine", recording_resolve)

        world, dodgr = build_dodgr(small_er, 4)
        triangle_survey(dodgr)
        triangle_survey(dodgr, algorithm="push")
        triangle_survey_push(dodgr)
        triangle_survey_push_pull(dodgr)
        StreamingSurvey(World(4), TriangleCounter).ingest(small_er.edges)
        graph = small_er.to_distributed(World(4))
        run_closure_time_survey(graph)
        run_clustering_coefficients(graph)
        run_degree_triple_survey(graph)
        run_fqdn_survey(graph)
        truss_decomposition(graph)
        run_streaming_closure_time_survey(World(4), [small_er.edges])
        assert len(resolved) >= 11
        assert set(resolved) == {"columnar"}
        assert SurveyService(World(4)).engine_name == "columnar"

    @pytest.mark.parametrize(
        "survey", [triangle_survey, triangle_survey_push, triangle_survey_push_pull]
    )
    def test_batched_keyword_is_gone(self, small_er, survey):
        _, dodgr = build_dodgr(small_er, 4)
        with pytest.raises(TypeError):
            survey(dodgr, batched=True)


class TestPullHeavyParity:
    def test_pull_path_parity_with_real_pulls(self):
        """columnar on a pull-heavy graph: panels and wire totals match
        legacy exactly, and the graph actually pulls."""
        generated = community_host_graph(
            300,
            community_size=100,
            intra_probability=0.3,
            cross_links_per_vertex=0.5,
            seed=4,
        )
        panels = {}
        reports = {}
        for engine in ("legacy", "columnar"):
            world = World(4)
            dodgr = DODGraph.build(generated.to_distributed(world), mode="bulk")
            reducer = LocalTriangleCounter(world)
            reports[engine] = triangle_survey_push_pull(
                dodgr, reducer.callback, engine=engine
            )
            reducer.finalize()
            panels[engine] = reducer.snapshot()
        assert reports["legacy"].vertices_pulled > 0
        assert panels["columnar"] == panels["legacy"]
        for field in (
            "triangles",
            "communication_bytes",
            "wire_messages",
            "wedge_checks",
            "vertices_pulled",
        ):
            assert getattr(reports["columnar"], field) == getattr(
                reports["legacy"], field
            ), field

    def test_default_engine_from_dispatcher_push(self, small_er):
        _, dodgr = build_dodgr(small_er, 4)
        counter = TriangleCounter(dodgr.world)
        report = triangle_survey(dodgr, counter.callback, algorithm="push")
        assert counter.result() == report.triangles
