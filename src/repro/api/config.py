"""Validated, serializable configuration for :class:`~repro.api.TimingSession`.

:class:`SessionConfig` is the one place the solver stack's knobs live.  Before it
existed, callers hand-wired ``ModelingOptions``, ``jobs``, ``cache_dir``,
``memo_size`` and slew thresholds through five unrelated entry points; now a
session is configured once and every subsystem (characterization, stage solving,
graph timing) reads the same object.

Environment variables are one documented override layer — applied only by
:meth:`SessionConfig.from_env`, never implicitly by the dataclass itself:

============================  =====================================================
variable                      meaning
============================  =====================================================
``REPRO_CACHE_DIR``           persistent cache root (cells + ``stages/``)
``REPRO_JOBS``                characterization worker count (``0`` = one per CPU)
``REPRO_PERSISTENT_STAGES``   ``1`` turns on the persistent stage-solution store
``REPRO_COMPILE_THRESHOLD``   net count above which graphs take the compiled
                              struct-of-arrays path (``0`` disables compilation)
============================  =====================================================

(The characterization cache resolves ``REPRO_CACHE_DIR`` itself when
``cache_dir`` is None, so existing workflows keep working; ``from_env`` simply
makes the resolution explicit and adds the two scheduling knobs.)
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from ..constants import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD
from ..core.criteria import CriteriaThresholds
from ..core.driver_model import ModelingOptions
from ..errors import ModelingError
from ..sta.graph import check_mode

__all__ = ["SessionConfig"]

#: Environment variables read by :meth:`SessionConfig.from_env`.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_JOBS = "REPRO_JOBS"
ENV_PERSISTENT_STAGES = "REPRO_PERSISTENT_STAGES"
ENV_COMPILE_THRESHOLD = "REPRO_COMPILE_THRESHOLD"

_TRUTHY = ("1", "true", "True", "yes", "on")


def _options_to_dict(options: ModelingOptions) -> Dict[str, Any]:
    payload = dataclasses.asdict(options)
    payload["criteria"] = dataclasses.asdict(options.criteria)
    return payload


def _options_from_dict(payload: Mapping[str, Any]) -> ModelingOptions:
    data = dict(payload)
    criteria = data.get("criteria")
    if isinstance(criteria, Mapping):
        data["criteria"] = CriteriaThresholds(**criteria)
    known = {f.name for f in dataclasses.fields(ModelingOptions)}
    unknown = set(data) - known
    if unknown:
        raise ModelingError(
            f"unknown ModelingOptions field(s) in config payload: {sorted(unknown)}"
        )
    return ModelingOptions(**data)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`~repro.api.TimingSession` needs to own its resources.

    ``library_dir`` / ``cache_dir`` default to the shipped characterization data
    and the standard cache-resolution chain (``REPRO_CACHE_DIR``,
    ``$XDG_CACHE_HOME/repro/cells``, ``~/.cache/repro/cells``); ``jobs`` is the
    worker-process count for characterization's transient simulations (``1`` =
    serial; ``REPRO_JOBS=0`` resolves to the cpu count) — timing always runs
    in-process; ``persistent_stages`` additionally persists scalar stage solutions
    under the cache's ``stages/`` subdirectory; ``slew_quantum`` (seconds) trades
    bit-exactness for memo hit rate by snapping input slews onto a grid.
    """

    library_dir: Optional[Path] = None  #: cell JSON directory; None = shipped data
    cache_dir: Optional[Path] = None  #: persistent cache root; None = default chain
    use_characterization_cache: bool = True  #: persist characterized cells on disk
    persistent_stages: bool = False  #: persist scalar stage solutions on disk
    jobs: int = 1  #: worker processes for characterization grids
    memo_size: int = 4096  #: in-process stage-solution LRU bound (0 disables)
    slew_quantum: Optional[float] = None  #: slew snapping grid [s]; None = exact
    slew_low: float = SLEW_LOW_THRESHOLD  #: lower slew measurement threshold
    slew_high: float = SLEW_HIGH_THRESHOLD  #: upper slew measurement threshold
    #: Default analysis mode for :meth:`TimingSession.time`: which constraint
    #: polarities the backward pass computes — "setup", "hold" or "both".
    #: Both event planes are always carried forward (dual-mode adds zero stage
    #: solves), so "both" is the safe default; narrowing to one mode only
    #: strips the other mode's required times from the reports.
    mode: str = "both"
    #: Graph size (net count) at which :meth:`TimingSession.time` routes a
    #: TimingGraph through the compiled struct-of-arrays engine and returns a
    #: :class:`~repro.api.report.StreamingTimingReport`.  None disables the
    #: automatic routing (an explicit ``time(..., compiled=True)`` still works).
    compile_threshold: Optional[int] = 4096
    options: ModelingOptions = field(default_factory=ModelingOptions)
    #: Named analysis corners: corner name -> the ModelingOptions that corner
    #: times with.  All corners run through the session's *single* memoized
    #: stage solver — every ModelingOptions field is part of the memo
    #: fingerprint, so each corner's solutions are keyed apart (no collisions)
    #: while identical stage configurations still share one solve per corner.
    corners: Optional[Dict[str, ModelingOptions]] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ModelingError(f"jobs must be >= 1, got {self.jobs}")
        if self.memo_size < 0:
            raise ModelingError(f"memo_size must be >= 0, got {self.memo_size}")
        if self.slew_quantum is not None and self.slew_quantum <= 0:
            raise ModelingError("slew_quantum must be positive when given")
        if not 0.0 < self.slew_low < self.slew_high < 1.0:
            raise ModelingError(
                "slew thresholds must satisfy 0 < slew_low < slew_high < 1, got "
                f"({self.slew_low}, {self.slew_high})"
            )
        check_mode(self.mode, allow_both=True)
        if self.compile_threshold is not None and self.compile_threshold < 1:
            raise ModelingError(
                f"compile_threshold must be >= 1 or None, got {self.compile_threshold}"
            )
        if not isinstance(self.options, ModelingOptions):
            raise ModelingError("options must be a ModelingOptions instance")
        if self.corners is not None:
            if not isinstance(self.corners, Mapping) or not self.corners:
                raise ModelingError(
                    "corners must be a non-empty mapping of corner name -> "
                    "ModelingOptions (or None)"
                )
            for name, options in self.corners.items():
                if not name or not isinstance(name, str):
                    raise ModelingError(
                        f"corner names must be non-empty strings, got {name!r}"
                    )
                if not isinstance(options, ModelingOptions):
                    raise ModelingError(
                        f"corner {name!r} must map to a ModelingOptions instance"
                    )
            object.__setattr__(self, "corners", dict(self.corners))
        for name in ("library_dir", "cache_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Path):
                object.__setattr__(self, name, Path(value))

    # --- derivation -------------------------------------------------------------------
    def replace(self, **overrides: Any) -> "SessionConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, **overrides: Any
    ) -> "SessionConfig":
        """A config seeded from the documented environment variables.

        Explicit ``overrides`` win over the environment; ``environ`` defaults to
        ``os.environ`` (injectable for tests).
        """
        environ = os.environ if environ is None else environ
        seeded: Dict[str, Any] = {}
        cache_dir = environ.get(ENV_CACHE_DIR)
        if cache_dir:
            seeded["cache_dir"] = Path(cache_dir).expanduser()
        jobs = environ.get(ENV_JOBS)
        if jobs:
            try:
                parsed = int(jobs)
            except ValueError:
                raise ModelingError(
                    f"{ENV_JOBS} must be an integer, got {jobs!r}"
                ) from None
            seeded["jobs"] = max(os.cpu_count() or 1, 1) if parsed == 0 else parsed
        if environ.get(ENV_PERSISTENT_STAGES, "") in _TRUTHY:
            seeded["persistent_stages"] = True
        threshold = environ.get(ENV_COMPILE_THRESHOLD)
        if threshold:
            try:
                parsed = int(threshold)
            except ValueError:
                raise ModelingError(
                    f"{ENV_COMPILE_THRESHOLD} must be an integer, got {threshold!r}"
                ) from None
            seeded["compile_threshold"] = None if parsed == 0 else parsed
        seeded.update(overrides)
        return cls(**seeded)

    # --- serialization ----------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "library_dir": str(self.library_dir) if self.library_dir else None,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "use_characterization_cache": self.use_characterization_cache,
            "persistent_stages": self.persistent_stages,
            "jobs": self.jobs,
            "memo_size": self.memo_size,
            "slew_quantum": self.slew_quantum,
            "slew_low": self.slew_low,
            "slew_high": self.slew_high,
            "mode": self.mode,
            "compile_threshold": self.compile_threshold,
            "options": _options_to_dict(self.options),
            "corners": {
                name: _options_to_dict(options) for name, options in self.corners.items()
            }
            if self.corners is not None
            else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(payload)
        options = data.get("options")
        if isinstance(options, Mapping):
            data["options"] = _options_from_dict(options)
        corners = data.get("corners")
        if isinstance(corners, Mapping):
            data["corners"] = {
                name: _options_from_dict(value) if isinstance(value, Mapping) else value
                for name, value in corners.items()
            }
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ModelingError(f"unknown SessionConfig field(s): {sorted(unknown)}")
        return cls(**data)

    def describe(self) -> str:
        """Single-line human-readable summary."""
        library = self.library_dir if self.library_dir else "shipped"
        cache = self.cache_dir if self.cache_dir else "default"
        corners = f", corners={sorted(self.corners)}" if self.corners is not None else ""
        return (
            f"session config: library={library}, cache={cache} "
            f"(cells {'on' if self.use_characterization_cache else 'off'}, "
            f"stages {'on' if self.persistent_stages else 'off'}), "
            f"jobs={self.jobs}, memo={self.memo_size}, "
            f"quantum={self.slew_quantum}, mode={self.mode}, "
            f"compile>={self.compile_threshold}{corners}"
        )
