"""Unified survey-execution layer: engine registry + shared driver core.

The paper's survey abstraction is *one* algorithm with interchangeable
communication strategies (push vs. pull, Table 4).  This package owns
survey execution end to end:

* :mod:`~repro.core.engine.registry` — the :class:`EngineSpec` table of
  the two engines (``columnar``, the default, and ``legacy``, the scalar
  oracle), resolved with :func:`resolve_engine`;
* :mod:`~repro.core.engine.request` — the :class:`SurveyRequest` /
  :class:`SurveyResult` pair, the caller-facing :class:`EngineConfig`
  selector threaded through ``analysis/*``, ``bench/*`` and the CLIs, and
  :func:`resolve_request`, the one place every entry point reads it;
* :mod:`~repro.core.engine.driver` / :mod:`~repro.core.engine.pull` /
  :mod:`~repro.core.engine.delta` — the shared driver core: one
  wedge-check step per engine (intersect, count, deliver — as a
  :class:`~repro.graph.metadata.TriangleBatch` via
  :func:`resolve_batch_callback` on the columnar engine), the push, pull
  and delta handlers as thin adapters over it, candidate stream
  construction over ``CSRAdjacency``/``RowAdjacency``, and bulk wire
  accounting that keeps every engine byte-identical on Table 4;
* :mod:`~repro.core.engine.segments` — the shared ragged-array utilities;
* :mod:`~repro.core.engine.push` / :mod:`~repro.core.engine.push_pull` —
  the Push-Only and Push-Pull runners, one driver loop each.

``repro.core.survey``, ``repro.core.push_pull`` and
``repro.core.incremental`` are thin entry points over this layer; the
checkpoint/restart contract lives in :mod:`~repro.core.engine.checkpoint`.

Adding an engine
----------------

There are two engines, and the runners branch on
:attr:`EngineSpec.columnar` at each phase.  A new engine is therefore a
new wedge-check step (:mod:`~repro.core.engine.driver`) plus its handler
adapters and a driver per phase (push in
:mod:`~repro.core.engine.driver`, pull in :mod:`~repro.core.engine.pull`,
delta in :mod:`~repro.core.engine.delta`) and an entry in the registry
table.  It
must stay on the equivalence contract against ``legacy``: identical
reducer panels and byte-identical wire totals.
``tools/check_engines.py`` smoke-checks that for every registered engine,
and the cross-engine property suite
(``tests/properties/test_property_engines.py``) pins it on random graphs.
"""

from __future__ import annotations

from .registry import (
    BACKENDS,
    EngineSpec,
    backend_names,
    engine_names,
    registered_engines,
    resolve_backend,
    resolve_engine,
    validate_request,
)
from .request import (
    DEFAULT_CALLBACK_COMPUTE_UNITS,
    DELTA_PUSH_PHASE,
    DRY_RUN_PHASE,
    PULL_PHASE,
    PUSH_PHASE,
    EngineConfig,
    EngineSelector,
    SurveyRequest,
    SurveyResult,
    TriangleCallback,
    resolve_request,
)
from .driver import resolve_batch_callback
from .program import SurveyProgram, execute_program
from .push import build_push_program, run_push_survey
from .push_pull import build_push_pull_program, run_push_pull_survey

__all__ = [
    "EngineSpec",
    "EngineConfig",
    "EngineSelector",
    "SurveyRequest",
    "SurveyResult",
    "SurveyProgram",
    "TriangleCallback",
    "BACKENDS",
    "resolve_engine",
    "resolve_backend",
    "registered_engines",
    "engine_names",
    "backend_names",
    "resolve_request",
    "validate_request",
    "resolve_batch_callback",
    "execute_program",
    "build_push_program",
    "run_push_survey",
    "build_push_pull_program",
    "run_push_pull_survey",
    "execute_survey",
    "DEFAULT_CALLBACK_COMPUTE_UNITS",
    "PUSH_PHASE",
    "DRY_RUN_PHASE",
    "PULL_PHASE",
    "DELTA_PUSH_PHASE",
]


def execute_survey(request: SurveyRequest, engine=None) -> SurveyResult:
    """Run ``request`` on the engine ``engine`` selects.

    ``engine`` may be anything :func:`resolve_request` accepts (default:
    the columnar engine); an :class:`EngineConfig`'s set fields override
    the request's.  The request's ``algorithm`` picks the runner
    (``"push"`` or ``"push_pull"``).
    """
    spec, request = resolve_request(engine, request)
    if request.algorithm == "push":
        return run_push_survey(request, spec)
    return run_push_pull_survey(request, spec)


# Checkpoint/restart wrappers import execute_survey lazily, so this import
# must stay below its definition.
from .checkpoint import (  # noqa: E402
    CheckpointPolicy,
    RecoveryLog,
    ResilientSurveyResult,
    StaleCheckpointError,
    StreamingCheckpoint,
    run_survey_with_recovery,
)

__all__ += [
    "CheckpointPolicy",
    "RecoveryLog",
    "ResilientSurveyResult",
    "StaleCheckpointError",
    "StreamingCheckpoint",
    "run_survey_with_recovery",
]
