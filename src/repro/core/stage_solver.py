"""Memoized stage solving: the reusable unit of work of graph-scale timing.

A *stage solve* is the paper's full per-stage flow — moment-matched admittance,
breakpoint, Ceff1/Ceff2 fixed points, inductance screening, plateau correction,
far-end propagation — for one (cell, input slew, line, load, options) combination.
Inside a timing graph the same combination recurs constantly (repeated buffers on a
bus, balanced clock-tree levels, retried what-if queries), so :class:`StageSolver`
fronts the flow with two cache layers:

* an in-process LRU memo of scalar-only :class:`StageSolution` objects
  (delays, slews, Ceff values — what graph timing propagates), and
* an optional persistent :class:`StageSolutionStore` holding the same scalar
  summary under ``$REPRO_CACHE_DIR``'s ``stages/`` subdirectory, shared
  across processes and sessions.

Keys are content fingerprints — :meth:`CellCharacterization.fingerprint`,
:meth:`RLCLine.fingerprint`, exact ``float.hex`` encodings of slew/load and every
:class:`ModelingOptions` field — so a hit is guaranteed to be bit-identical to a
recompute.  :meth:`StageSolver.solve_batch` is the one memoized entry point:
every request is answered from a cache layer or solved in one array pass, and
every answer is scalar-only.  The waveform-level detail (modeled driver
output, far-end response) comes from the uncached :func:`solve_stage` and
:func:`solve_stage_batch`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

from ..characterization.cache import FingerprintStore, default_cache_directory
from ..characterization.cell import CellCharacterization
from ..constants import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD
from ..errors import ModelingError
from ..interconnect.rlc_line import RLCLine
from .driver_model import (DriverOutputModel, ModelingOptions, model_driver_output,
                           model_driver_output_batch)
from .far_end import FarEndResponse, far_end_response, far_end_response_batch

__all__ = ["StageRequest", "StageSolution", "StageSolver", "StageSolutionStore",
           "SolverStats", "solve_stage", "solve_stage_batch", "stage_fingerprint",
           "default_stage_cache_directory"]

#: Bump when the stage-solving flow changes in a way that invalidates old entries.
STAGE_CACHE_FORMAT_VERSION = 1


def default_stage_cache_directory() -> Path:
    """Where persistent stage solutions live: ``<cell cache>/stages``.

    Follows the same resolution chain as the characterization cache
    (``REPRO_CACHE_DIR``, ``XDG_CACHE_HOME``, ``~/.cache``), placed in a
    subdirectory so cell entries and stage entries never collide.
    """
    return default_cache_directory() / "stages"


@functools.lru_cache(maxsize=256)
def _options_fingerprint(options: ModelingOptions) -> str:
    """Canonical string covering every field of ``options`` (new fields included).

    Memoized per options value: every analysis asks for it a few times, and on
    small designs building it dominated the warm run.
    """
    parts = []
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        if dataclasses.is_dataclass(value):  # CriteriaThresholds and friends
            value = dataclasses.asdict(value)
        if isinstance(value, float):
            value = value.hex()
        elif isinstance(value, dict):
            value = json.dumps({k: (v.hex() if isinstance(v, float) else v)
                                for k, v in sorted(value.items())})
        parts.append(f"{f.name}={value}")
    return ";".join(parts)


def stage_fingerprint(cell: CellCharacterization, input_slew: float, line: RLCLine,
                      load_capacitance: float, options: ModelingOptions, *,
                      slew_low: float = SLEW_LOW_THRESHOLD,
                      slew_high: float = SLEW_HIGH_THRESHOLD,
                      cell_fingerprint: Optional[str] = None) -> str:
    """Hex digest identifying one stage solve.

    Two solves share a fingerprint exactly when they would produce bit-identical
    results: same cell tables, same slew/line/load bits, same modeling options and
    measurement thresholds.  ``cell_fingerprint`` lets callers that solve many
    stages against the same cell skip re-hashing its tables.
    """
    payload = "|".join((
        "stage-solution",
        str(STAGE_CACHE_FORMAT_VERSION),
        cell_fingerprint if cell_fingerprint is not None else cell.fingerprint(),
        float(input_slew).hex(),
        line.fingerprint(),
        float(load_capacitance).hex(),
        _options_fingerprint(options),
        float(slew_low).hex(),
        float(slew_high).hex(),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class StageSolution:
    """Everything STA needs from one solved stage.

    The scalar fields are what graph timing propagates (and what the persistent
    store keeps); ``model`` and ``far_end`` carry the full waveform-level detail
    and are present only when the solution was computed in this process (they
    never cross a process or cache boundary).
    """

    fingerprint: str
    cell_name: str
    kind: str  #: "two-ramp" or "single-ramp"
    transition: str  #: driver-output transition direction
    input_slew: float  #: input slew the stage was solved at [s]
    load_capacitance: float  #: far-end lumped load [F]
    gate_delay: float  #: input 50% to modeled driver-output 50% [s]
    interconnect_delay: float  #: driver-output 50% to far-end 50% [s]
    far_slew: float  #: far-end threshold-to-threshold transition time [s]
    propagated_slew: float  #: far_slew rescaled to a full-swing ramp time [s]
    ceff1: float
    tr1: float
    ceff2: Optional[float]
    tr2_effective: Optional[float]
    model: Optional[DriverOutputModel] = field(default=None, repr=False, compare=False)
    far_end: Optional[FarEndResponse] = field(default=None, repr=False, compare=False)

    @property
    def stage_delay(self) -> float:
        """Total stage delay: input 50% to far-end 50% [s]."""
        return self.gate_delay + self.interconnect_delay

    @property
    def has_waveforms(self) -> bool:
        """True when the full model and far-end response are attached."""
        return self.model is not None and self.far_end is not None

    def lite(self) -> "StageSolution":
        """The scalar-only view (cheap to pickle, safe to persist)."""
        if not self.has_waveforms:
            return self
        return dataclasses.replace(self, model=None, far_end=None)

    # --- persistence -------------------------------------------------------------
    def to_payload(self) -> Dict:
        """JSON-compatible scalar representation."""
        return {
            "version": STAGE_CACHE_FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "cell_name": self.cell_name,
            "kind": self.kind,
            "transition": self.transition,
            "input_slew": self.input_slew,
            "load_capacitance": self.load_capacitance,
            "gate_delay": self.gate_delay,
            "interconnect_delay": self.interconnect_delay,
            "far_slew": self.far_slew,
            "propagated_slew": self.propagated_slew,
            "ceff1": self.ceff1,
            "tr1": self.tr1,
            "ceff2": self.ceff2,
            "tr2_effective": self.tr2_effective,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "StageSolution":
        """Inverse of :meth:`to_payload`."""
        if payload.get("version") != STAGE_CACHE_FORMAT_VERSION:
            raise ModelingError(
                f"stage solution format {payload.get('version')!r} is not supported")
        return cls(fingerprint=payload["fingerprint"],
                   cell_name=payload["cell_name"], kind=payload["kind"],
                   transition=payload["transition"],
                   input_slew=payload["input_slew"],
                   load_capacitance=payload["load_capacitance"],
                   gate_delay=payload["gate_delay"],
                   interconnect_delay=payload["interconnect_delay"],
                   far_slew=payload["far_slew"],
                   propagated_slew=payload["propagated_slew"],
                   ceff1=payload["ceff1"], tr1=payload["tr1"],
                   ceff2=payload["ceff2"],
                   tr2_effective=payload["tr2_effective"])


class StageSolutionStore(FingerprintStore):
    """Persistent scalar stage solutions, sharing the characterization-cache layout."""

    entry_kind = "stage solution"

    @classmethod
    def default_directory(cls) -> Path:
        return default_stage_cache_directory()

    def _load(self, path: Path) -> StageSolution:
        return StageSolution.from_payload(json.loads(path.read_text()))

    def _save(self, entry: StageSolution, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry.to_payload(), indent=1))


def solve_stage(cell: CellCharacterization, input_slew: float, line: RLCLine,
                load_capacitance: float, *, options: Optional[ModelingOptions] = None,
                slew_low: float = SLEW_LOW_THRESHOLD,
                slew_high: float = SLEW_HIGH_THRESHOLD,
                fingerprint: Optional[str] = None) -> StageSolution:
    """Run one full (uncached) stage solve and package it as a :class:`StageSolution`.

    The scalar reference oracle the batched path (:func:`solve_stage_batch`,
    which :class:`StageSolver` memoizes) is tested against, and the per-stage
    step of the naive baseline the graph-throughput benchmark times.
    """
    options = options if options is not None else ModelingOptions()
    if fingerprint is None:
        fingerprint = stage_fingerprint(cell, input_slew, line, load_capacitance,
                                        options, slew_low=slew_low, slew_high=slew_high)
    model = model_driver_output(cell, input_slew, line, load_capacitance,
                                options=options)
    far = far_end_response(model)
    far_slew = far.far_slew(low=slew_low, high=slew_high)
    return StageSolution(
        fingerprint=fingerprint, cell_name=cell.cell_name, kind=model.kind,
        transition=model.transition, input_slew=input_slew,
        load_capacitance=load_capacitance, gate_delay=model.delay(),
        interconnect_delay=far.interconnect_delay(), far_slew=far_slew,
        propagated_slew=far_slew / (slew_high - slew_low),
        ceff1=model.ceff1, tr1=model.tr1, ceff2=model.ceff2,
        tr2_effective=model.tr2_effective, model=model, far_end=far)


@dataclass(frozen=True)
class StageRequest:
    """One stage-solve work item for the batched solve path.

    ``fingerprint`` is optional: callers that already ran
    :meth:`StageSolver.fingerprint_for` (the graph engine does, to dedupe a level)
    pass it along so the batch never re-hashes; otherwise it is derived on demand.
    """

    cell: CellCharacterization
    input_slew: float
    line: RLCLine
    load_capacitance: float
    options: Optional[ModelingOptions] = None
    fingerprint: Optional[str] = None


def solve_stage_batch(requests: Sequence[StageRequest], *,
                      slew_low: float = SLEW_LOW_THRESHOLD,
                      slew_high: float = SLEW_HIGH_THRESHOLD,
                      admittance_cache: Optional[MutableMapping] = None,
                      kernel_cache: Optional[MutableMapping] = None
                      ) -> List[StageSolution]:
    """Run many full (uncached) stage solves as one array-valued computation.

    The batch analog of :func:`solve_stage`: every lane goes through
    :func:`~repro.core.driver_model.model_driver_output_batch` (vectorized table
    lookups, array charge matching, masked fixed points) and
    :func:`~repro.core.far_end.far_end_response_batch` (one impulse kernel per
    unique circuit, convolution per lane), then is packaged exactly like the
    scalar flow — waveforms attached.  Results match :func:`solve_stage` lane by
    lane to floating-point roundoff, far inside the 1e-9 relative equivalence
    gate the benchmarks enforce.  The two optional caches extend the batch's
    internal admittance/kernel dedupe across calls.
    """
    if not requests:
        return []
    resolved: List[Tuple[StageRequest, ModelingOptions, str]] = []
    for request in requests:
        options = request.options if request.options is not None else ModelingOptions()
        fingerprint = request.fingerprint
        if fingerprint is None:
            fingerprint = stage_fingerprint(
                request.cell, request.input_slew, request.line,
                request.load_capacitance, options,
                slew_low=slew_low, slew_high=slew_high)
        resolved.append((request, options, fingerprint))
    models = model_driver_output_batch(
        [(request.cell, request.input_slew, request.line,
          request.load_capacitance, options)
         for request, options, _ in resolved],
        admittance_cache=admittance_cache)
    fars = far_end_response_batch(models, kernel_cache=kernel_cache)
    solutions: List[StageSolution] = []
    for (request, options, fingerprint), model, far in zip(resolved, models, fars):
        far_slew = far.far_slew(low=slew_low, high=slew_high)
        solutions.append(StageSolution(
            fingerprint=fingerprint, cell_name=request.cell.cell_name,
            kind=model.kind, transition=model.transition,
            input_slew=request.input_slew,
            load_capacitance=request.load_capacitance, gate_delay=model.delay(),
            interconnect_delay=far.interconnect_delay(), far_slew=far_slew,
            propagated_slew=far_slew / (slew_high - slew_low),
            ceff1=model.ceff1, tr1=model.tr1, ceff2=model.ceff2,
            tr2_effective=model.tr2_effective, model=model, far_end=far))
    return solutions


@dataclass
class SolverStats:
    """Counters of how a :class:`StageSolver` satisfied its requests."""

    memo_hits: int = 0
    persistent_hits: int = 0
    computed: int = 0

    @property
    def requests(self) -> int:
        """Total solve requests answered."""
        return self.memo_hits + self.persistent_hits + self.computed

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from a cache layer (0 when idle)."""
        total = self.requests
        return (self.memo_hits + self.persistent_hits) / total if total else 0.0

    def snapshot(self) -> "SolverStats":
        """An independent copy of the current counters."""
        return dataclasses.replace(self)

    def since(self, before: "SolverStats") -> "SolverStats":
        """The counters accumulated after the ``before`` snapshot was taken."""
        return SolverStats(
            memo_hits=self.memo_hits - before.memo_hits,
            persistent_hits=self.persistent_hits - before.persistent_hits,
            computed=self.computed - before.computed)


class StageSolver:
    """Memoizing front end to :func:`solve_stage_batch`.

    ``memo_size`` bounds the in-process LRU (0 disables it); ``persistent`` turns
    on the cross-process scalar store (True for the default directory, or an
    explicit directory / :class:`StageSolutionStore`).
    """

    def __init__(self, *, memo_size: int = 4096,
                 persistent: "bool | str | Path | StageSolutionStore" = False,
                 slew_low: float = SLEW_LOW_THRESHOLD,
                 slew_high: float = SLEW_HIGH_THRESHOLD) -> None:
        if memo_size < 0:
            raise ModelingError("memo_size must be >= 0")
        self.memo_size = memo_size
        self.slew_low = slew_low
        self.slew_high = slew_high
        if isinstance(persistent, StageSolutionStore):
            self.store: Optional[StageSolutionStore] = persistent
        elif persistent is True:
            self.store = StageSolutionStore()
        elif persistent:
            self.store = StageSolutionStore(persistent)
        else:
            self.store = None
        self.stats = SolverStats()
        self._memo: "OrderedDict[str, StageSolution]" = OrderedDict()
        # The strong cell reference keeps the id() from being reused by a later
        # object, which would otherwise alias a stale digest onto a new cell.
        self._cell_digests: Dict[int, Tuple[CellCharacterization, str]] = {}
        # Cross-batch dedupe for the two expensive per-circuit preparations of the
        # batched solve path: admittance moment fits and far-end impulse kernels.
        self._admittance_cache: "OrderedDict" = OrderedDict()
        self._kernel_cache: "OrderedDict" = OrderedDict()
        self._aux_cache_size = 512

    # --- keys -----------------------------------------------------------------------
    def _cell_fingerprint(self, cell: CellCharacterization) -> str:
        entry = self._cell_digests.get(id(cell))
        if entry is None:
            entry = (cell, cell.fingerprint())
            self._cell_digests[id(cell)] = entry
        return entry[1]

    def fingerprint_for(self, cell: CellCharacterization, input_slew: float,
                        line: RLCLine, load_capacitance: float,
                        options: ModelingOptions) -> str:
        """The memo key a solve request maps to."""
        return stage_fingerprint(cell, input_slew, line, load_capacitance, options,
                                 slew_low=self.slew_low, slew_high=self.slew_high,
                                 cell_fingerprint=self._cell_fingerprint(cell))

    # --- memo plumbing --------------------------------------------------------------
    def _remember(self, solution: StageSolution) -> None:
        if self.memo_size == 0:
            return
        memo = self._memo
        memo[solution.fingerprint] = solution
        memo.move_to_end(solution.fingerprint)
        while len(memo) > self.memo_size:
            memo.popitem(last=False)

    def clear(self) -> None:
        """Drop the in-process memo (the persistent store is left untouched)."""
        self._memo.clear()
        self._cell_digests.clear()
        self._admittance_cache.clear()
        self._kernel_cache.clear()

    def __len__(self) -> int:
        return len(self._memo)

    # --- solving --------------------------------------------------------------------
    def solve_batch(self, requests: Sequence[StageRequest]) -> List[StageSolution]:
        """Solve many stages at once: memo layers per item, one array pass for misses.

        Every request is checked against the memo (and the persistent store)
        individually; all misses are then solved together through
        :func:`solve_stage_batch` and installed back into the memo and the
        persistent store.  Answers are scalar-only (:meth:`StageSolution.lite`,
        no waveforms), so neither the memo nor a caller's table of solutions
        holds a modeled waveform.  Requests repeating an earlier item's
        fingerprint — within this batch or across calls — are answered from
        the shared result and counted as memo hits.
        """
        results: Dict[str, StageSolution] = {}
        order: List[str] = []
        misses: List[StageRequest] = []
        for request in requests:
            options = (request.options if request.options is not None
                       else ModelingOptions())
            fingerprint = request.fingerprint
            if fingerprint is None:
                fingerprint = self.fingerprint_for(
                    request.cell, request.input_slew, request.line,
                    request.load_capacitance, options)
            order.append(fingerprint)
            if fingerprint in results:
                self.stats.memo_hits += 1
                continue
            memoized = self._memo.get(fingerprint)
            if memoized is not None:
                self._memo.move_to_end(fingerprint)
                self.stats.memo_hits += 1
                results[fingerprint] = memoized
                continue
            if self.store is not None:
                stored = self.store.get(fingerprint)
                if stored is not None:
                    self.stats.persistent_hits += 1
                    self._remember(stored)
                    results[fingerprint] = stored
                    continue
            results[fingerprint] = None  # claimed: later repeats are batch-local hits
            misses.append(dataclasses.replace(request, options=options,
                                              fingerprint=fingerprint))
        if misses:
            solved = solve_stage_batch(
                misses, slew_low=self.slew_low, slew_high=self.slew_high,
                admittance_cache=self._admittance_cache,
                kernel_cache=self._kernel_cache)
            for cache in (self._admittance_cache, self._kernel_cache):
                while len(cache) > self._aux_cache_size:
                    cache.popitem(last=False)
            self.stats.computed += len(solved)
            for solution in solved:
                solution = solution.lite()
                results[solution.fingerprint] = solution
                self._remember(solution)
                if self.store is not None:
                    try:
                        self.store.put(solution.fingerprint, solution)
                    except OSError:
                        pass  # read-only store: the computed result is still good
        return [results[fingerprint] for fingerprint in order]
