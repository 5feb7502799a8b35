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

__all__ = ["SessionConfig"]

#: Environment variables read by :meth:`SessionConfig.from_env`.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_JOBS = "REPRO_JOBS"
ENV_PERSISTENT_STAGES = "REPRO_PERSISTENT_STAGES"

#: Keys older config payloads carry for fields that no longer exist.
_RETIRED_CONFIG_KEYS = frozenset({"compile_threshold", "slew_quantum", "mode"})

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
    under the cache's ``stages/`` subdirectory.
    """

    library_dir: Optional[Path] = None  #: cell JSON directory; None = shipped data
    cache_dir: Optional[Path] = None  #: persistent cache root; None = default chain
    use_characterization_cache: bool = True  #: persist characterized cells on disk
    persistent_stages: bool = False  #: persist scalar stage solutions on disk
    jobs: int = 1  #: worker processes for characterization grids
    #: Bound of the solver's in-process stage-solution LRU, the memo shared
    #: across graphs (0 disables it).  A compiled graph keeps one row per
    #: distinct stage key of its own, whatever this bound is.
    memo_size: int = 4096
    slew_low: float = SLEW_LOW_THRESHOLD  #: lower slew measurement threshold
    slew_high: float = SLEW_HIGH_THRESHOLD  #: upper slew measurement threshold
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
        if not 0.0 < self.slew_low < self.slew_high < 1.0:
            raise ModelingError(
                "slew thresholds must satisfy 0 < slew_low < slew_high < 1, got "
                f"({self.slew_low}, {self.slew_high})"
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
            "slew_low": self.slew_low,
            "slew_high": self.slew_high,
            "options": _options_to_dict(self.options),
            "corners": {
                name: _options_to_dict(options) for name, options in self.corners.items()
            }
            if self.corners is not None
            else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Keys of retired fields are ignored, so configs saved by older versions
        still load.
        """
        data = {k: v for k, v in payload.items() if k not in _RETIRED_CONFIG_KEYS}
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
            f"jobs={self.jobs}, memo={self.memo_size}{corners}"
        )
