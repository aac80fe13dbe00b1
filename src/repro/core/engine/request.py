"""Survey request/result pair and the unified engine selector.

Every survey entry point — :func:`repro.core.survey.triangle_survey_push`,
:func:`repro.core.push_pull.triangle_survey_push_pull`,
:func:`repro.core.incremental.incremental_triangle_survey` — normalises its
arguments into a :class:`SurveyRequest` and hands it to the engine layer,
which returns a :class:`SurveyResult` wrapping the familiar
:class:`~repro.core.results.SurveyReport` plus the resolved engine name.

:class:`EngineConfig` is the *caller-facing* selector: a single value that
travels unchanged through ``analysis/*``, ``bench/*``,
:class:`~repro.core.incremental.StreamingSurvey` and the benchmark CLIs.
Anywhere an ``engine=`` keyword accepts a string name it also accepts an
``EngineConfig``, which additionally pins the intersection kernel, the
per-triangle callback cost, the backend, the worker count and the CSR
storage — so one object selects the execution strategy everywhere, instead
of loose keywords re-declared at every layer.  :func:`resolve_request` is
the one place that reads it: every entry point hands it the selector plus
its loose keywords and gets back the validated ``(EngineSpec,
SurveyRequest)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "TriangleCallback",
    "EngineSelector",
    "DEFAULT_CALLBACK_COMPUTE_UNITS",
    "PUSH_PHASE",
    "DRY_RUN_PHASE",
    "PULL_PHASE",
    "DELTA_PUSH_PHASE",
    "EngineConfig",
    "SurveyRequest",
    "SurveyResult",
    "resolve_request",
]

#: Type of a survey callback: ``callback(ctx, tri)`` executed on the rank
#: where the triangle is identified.
TriangleCallback = Callable[[Any, Any], None]

#: What an ``engine=`` keyword accepts anywhere in the system: ``None`` (the
#: columnar default), a registered engine name, an ``EngineSpec``, or an
#: :class:`EngineConfig`.
EngineSelector = Any

#: Abstract compute units charged per triangle for executing a user callback
#: on its metadata (hashing labels, computing logarithms, updating counting-set
#: caches).  Calibrated so that a metadata survey with a non-trivial callback
#: costs roughly twice the throughput of bare counting on R-MAT weak-scaling
#: inputs, matching the overhead the paper reports in Section 5.9.  Charged
#: only when a callback is supplied; pass ``callback_compute_units=0`` to
#: model a free callback.
DEFAULT_CALLBACK_COMPUTE_UNITS = 10

PUSH_PHASE = "push"
DRY_RUN_PHASE = "dry_run"
PULL_PHASE = "pull"
DELTA_PUSH_PHASE = "delta_push"


@dataclass(frozen=True)
class EngineConfig:
    """One value that selects the survey execution strategy everywhere.

    Parameters
    ----------
    engine:
        Engine name: ``"columnar"`` (the default everywhere) or
        ``"legacy"`` (the scalar parity oracle).  ``None`` selects the
        default.
    kernel:
        Intersection kernel name (``merge_path``, ``binary_search``,
        ``hash``); ``None`` keeps the entry point's ``kernel=`` argument
        (default merge-path).
    callback_compute_units:
        Abstract compute units charged per triangle when a callback is
        supplied; ``None`` keeps the entry point's default
        (:data:`DEFAULT_CALLBACK_COMPUTE_UNITS`).
    backend:
        Execution backend (``"simulated"`` or ``"process"``); ``None`` keeps
        the entry point's ``backend=`` argument (default simulated).
    workers:
        Worker-process count for the process backend; ``None`` keeps the
        entry point's ``workers=`` argument (default: capped at four, the
        host's core count and the rank count).
    storage:
        CSR storage mode (``"resident"`` or ``"mmap"``), or a
        :class:`repro.graph.ooc.StorageConfig` pinning a memory budget and
        segment directory.  ``None`` keeps the entry point's ``storage=``
        argument (default resident).
    """

    engine: Optional[str] = None
    kernel: Optional[str] = None
    callback_compute_units: Optional[int] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    storage: Optional[Any] = None

    @classmethod
    def coerce(cls, value: Any) -> "EngineConfig":
        """Normalise ``None`` / engine-name string / EngineConfig to a config."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(engine=value)
        from .registry import EngineSpec  # deferred: registry imports request

        if isinstance(value, EngineSpec):
            return cls(engine=value.name)
        raise TypeError(
            f"engine selector must be None, a registered engine name, an "
            f"EngineSpec or an EngineConfig; got {value!r}"
        )


@dataclass
class SurveyRequest:
    """Everything an execution engine needs to run one survey.

    The entry points in :mod:`repro.core.survey` and
    :mod:`repro.core.push_pull` build one of these from their keyword
    surface; engine runners consume it without re-parsing loose arguments.
    """

    dodgr: Any
    callback: Optional[TriangleCallback] = None
    algorithm: str = "push_pull"
    kernel: str = "merge_path"
    reset_stats: bool = True
    graph_name: Optional[str] = None
    #: Push-only surveys accumulate their counters under this phase name.
    phase_name: str = PUSH_PHASE
    callback_compute_units: int = DEFAULT_CALLBACK_COMPUTE_UNITS
    #: Execution backend (:data:`repro.core.engine.registry.BACKENDS`).
    backend: str = "simulated"
    #: Worker-process count for the process backend (``None`` = auto).
    workers: Optional[int] = None
    #: CSR storage: ``None``/``"resident"``, ``"mmap"``, or a
    #: :class:`repro.graph.ooc.StorageConfig`.
    storage: Optional[Any] = None

    def per_triangle_compute(self) -> int:
        """Compute units charged per triangle (zero without a callback)."""
        return self.callback_compute_units if self.callback is not None else 0


@dataclass
class SurveyResult:
    """An engine run's outcome: the report plus how it was executed."""

    report: Any
    #: Name of the engine that ran.
    engine: str
    request: SurveyRequest = field(repr=False, default=None)


#: The :class:`EngineConfig` fields that, when set, replace the entry
#: point's loose keyword of the same name on the :class:`SurveyRequest`.
_PINNED_FIELDS = ("kernel", "callback_compute_units", "backend", "workers", "storage")


def resolve_request(
    engine: EngineSelector = None,
    request: Optional[SurveyRequest] = None,
    **fields: Any,
) -> Tuple[Any, SurveyRequest]:
    """Turn an ``engine=`` selector plus loose keywords into ``(spec, request)``.

    ``fields`` are :class:`SurveyRequest` fields (the entry point's loose
    keywords); they update ``request`` when one is given, else build a new
    one.  When ``engine`` is an :class:`EngineConfig`, each of its *set*
    fields wins over the loose keyword of the same name, and its ``engine``
    field selects the spec (``None`` = the columnar default).  The backend
    is normalised and the result validated
    (:func:`~repro.core.engine.registry.validate_request`), so an
    unsupported selector raises here — before any handler registers.
    """
    from . import registry  # deferred: registry imports this module

    config = EngineConfig.coerce(engine)
    for name in _PINNED_FIELDS:
        value = getattr(config, name)
        if value is not None:
            fields[name] = value
    if request is None:
        request = SurveyRequest(**fields)
    else:
        request = replace(request, **fields)
    spec = registry.resolve_engine(engine)
    request.backend = registry.resolve_backend(request.backend)
    registry.validate_request(request)
    return spec, request
