"""Engine registry: the two survey execution engines and their selectors.

The paper's survey abstraction is one algorithm with interchangeable
communication strategies (Table 4).  This repository runs it on two
engines, each declared as an :class:`EngineSpec`:

* ``columnar`` — the production engine and the default at every entry
  point: one RPC per (source rank, destination rank) pair, row-kernel
  intersection, coalesced dry-run proposals, a coalesced pull phase and
  :class:`~repro.graph.metadata.TriangleBatch` delivery to batch reducers;
* ``legacy`` — the scalar parity oracle, selected only explicitly: one
  sized RPC per wedge, per-message scalar intersection, per-triangle
  callback delivery.

Both engines share the equivalence contract pinned by the golden parity
suites: identical triangles, identical reducer panels, byte-identical
Table 4 communication totals.  Both have an incremental (delta-survey)
form in :mod:`repro.core.engine.delta`.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple

from .request import EngineConfig, SurveyRequest

__all__ = [
    "EngineSpec",
    "BACKENDS",
    "resolve_engine",
    "resolve_backend",
    "registered_engines",
    "engine_names",
    "backend_names",
    "validate_request",
]


#: The engine every ``engine=None`` selector resolves to.
DEFAULT_ENGINE = "columnar"


@dataclass(frozen=True)
class EngineSpec:
    """Declarative description of one survey execution engine."""

    name: str
    description: str

    @property
    def columnar(self) -> bool:
        """True for the columnar engine, False for the scalar oracle."""
        return self.name == "columnar"


def registered_engines() -> Tuple[EngineSpec, ...]:
    """Every registered engine, in registration order."""
    return tuple(_REGISTRY.values())


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


#: The execution-backend axis, orthogonal to the engine axis: every engine
#: runs on every backend.  ``simulated`` is the single-process oracle world;
#: ``process`` shards ranks across forked worker processes over shared-memory
#: buffers while replaying the simulated wire accounting byte-for-byte
#: (:mod:`repro.runtime.backend`).
BACKENDS: Tuple[str, ...] = ("simulated", "process")

#: The full-survey algorithms (Section 4.3 and 4.4 of the paper).
ALGORITHMS: Tuple[str, ...] = ("push", "push_pull")


def backend_names() -> Tuple[str, ...]:
    """Registered execution-backend names, oracle first."""
    return BACKENDS


def resolve_backend(backend: Any = None) -> str:
    """Normalise a ``backend=`` selector to a known backend name.

    ``None`` selects the simulated oracle — the default everywhere, so
    existing callers are untouched by the backend axis.
    """
    if backend is None:
        return "simulated"
    if isinstance(backend, str) and backend in BACKENDS:
        return backend
    raise ValueError(
        f"unknown execution backend {backend!r}; known: {BACKENDS}"
        f"{suggest_name(backend, BACKENDS)}"
    )


def suggest_name(name: Any, known: Iterable[str]) -> str:
    """A ``; did you mean ...?`` suffix for unknown-name errors.

    Shared by the engine registry, the sweep runner's analysis axis and the
    survey service so every unknown-name error reads the same way.  Returns
    an empty string when nothing in ``known`` is close enough — errors stay
    clean for genuinely foreign names.
    """
    matches = difflib.get_close_matches(str(name), list(known), n=1, cutoff=0.6)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def resolve_engine(engine: Any = None) -> EngineSpec:
    """Normalise an ``engine=`` selector to its registered engine spec.

    ``engine`` may be ``None``, a registered name, an :class:`EngineSpec`
    or an :class:`~repro.core.engine.request.EngineConfig`.  ``None`` — and
    an ``EngineConfig`` whose ``engine`` field is unset — selects
    :data:`DEFAULT_ENGINE`.
    """
    if isinstance(engine, EngineSpec):
        spec = _REGISTRY.get(engine.name)
        if spec is not engine:
            raise ValueError(
                f"engine {engine.name!r} is not the registered spec of that "
                f"name; known engines: {engine_names()}"
            )
        return spec
    if isinstance(engine, EngineConfig):
        engine = engine.engine
    if engine is None:
        engine = DEFAULT_ENGINE
    spec = _REGISTRY.get(engine)
    if spec is None:
        raise ValueError(
            f"unknown survey engine {engine!r}; known: {engine_names()}"
            f"{suggest_name(engine, engine_names())}"
        )
    return spec


def validate_request(request: SurveyRequest) -> None:
    """Reject unsupported execution-axis combinations before anything runs.

    Called by :func:`~repro.core.engine.request.resolve_request` and the
    engine runners before they register a handler; raising here means no
    handlers were registered, no phases begun, no segment files created.
    Three axes are checked:

    * ``algorithm`` — ``"push"`` or ``"push_pull"``.
    * ``kernel`` — must name a registered intersection kernel
      (:data:`repro.core.intersection.INTERSECTION_KERNELS`, the same names
      as :data:`~repro.core.intersection.ROW_KERNELS`).
    * ``storage`` — must be a known mode (or a
      :class:`~repro.graph.ooc.StorageConfig`); ``"mmap"`` is rejected on
      the process backend until segments ship by path to the workers.
    """
    from ...graph.ooc import resolve_storage
    from ..intersection import INTERSECTION_KERNELS

    if request.algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown survey algorithm {request.algorithm!r}; known: {ALGORITHMS}"
        )
    kernel = request.kernel
    if kernel not in INTERSECTION_KERNELS:
        known = tuple(INTERSECTION_KERNELS)
        raise ValueError(
            f"unknown intersection kernel {kernel!r}; known: {known}"
            f"{suggest_name(kernel, known)}"
        )
    mode = resolve_storage(request.storage)
    if mode == "mmap" and resolve_backend(request.backend) == "process":
        raise ValueError(
            "storage='mmap' is not supported on backend='process': memmap "
            "segment files are not yet shipped by path to worker processes; "
            "run mmap surveys on the simulated backend"
        )


# ---------------------------------------------------------------------------
# The engine table.  Insertion order is the canonical listing order (docs,
# CLIs, smokes): the oracle first.
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="legacy",
            description=(
                "Scalar reference: one sized RPC per wedge, per-message "
                "scalar intersection, per-triangle callback delivery.  The "
                "parity oracle the columnar engine is measured against."
            ),
        ),
        EngineSpec(
            name="columnar",
            description=(
                "Array engine (the default): one RPC per (source rank, "
                "destination rank) pair, row-kernel intersection, coalesced "
                "dry-run proposals, TriangleBatch delivery to batch reducers, "
                "columnar pull phase."
            ),
        ),
    )
}
