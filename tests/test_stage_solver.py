"""Memoized stage solving: fingerprints, cache layers, and exactness guarantees."""

import json

import pytest

from repro.core import (ModelingOptions, StageRequest, StageSolution,
                        StageSolutionStore, StageSolver, far_end_response,
                        model_driver_output, solve_stage, stage_fingerprint)
from repro.errors import ModelingError
from repro.interconnect import RLCLine
from repro.interconnect.parasitics import LineParasitics
from repro.units import mm, nH, pF, ps


@pytest.fixture(scope="module")
def line():
    return RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                   length=mm(1))


@pytest.fixture(scope="module")
def other_line():
    return RLCLine(resistance=38.0, inductance=nH(2.1), capacitance=pF(0.42),
                   length=mm(2))


class TestFingerprints:
    def test_line_fingerprint_is_stable_and_content_keyed(self, line):
        twin = RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                       length=mm(1))
        assert line.fingerprint() == twin.fingerprint()
        changed = RLCLine(resistance=20.5, inductance=nH(1.05),
                          capacitance=pF(0.22), length=mm(1))
        assert line.fingerprint() != changed.fingerprint()

    def test_line_fingerprint_distinguishes_missing_length(self, line):
        no_length = RLCLine(resistance=20.0, inductance=nH(1.05),
                            capacitance=pF(0.22))
        assert line.fingerprint() != no_length.fingerprint()

    def test_parasitics_fingerprint(self):
        a = LineParasitics(resistance_per_length=2e4,
                           inductance_per_length=1.05e-6,
                           capacitance_per_length=2.2e-10)
        b = LineParasitics(resistance_per_length=2e4,
                           inductance_per_length=1.05e-6,
                           capacitance_per_length=2.2e-10)
        c = LineParasitics(resistance_per_length=2.1e4,
                           inductance_per_length=1.05e-6,
                           capacitance_per_length=2.2e-10)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_cell_fingerprint_keys_on_identity_and_tables(self, cell75, cell100):
        assert cell75.fingerprint() == cell75.fingerprint()
        assert cell75.fingerprint() != cell100.fingerprint()

    def test_stage_fingerprint_covers_every_input(self, cell75, line, other_line):
        base = stage_fingerprint(cell75, ps(100), line, 1e-14, ModelingOptions())
        assert base == stage_fingerprint(cell75, ps(100), line, 1e-14,
                                         ModelingOptions())
        assert base != stage_fingerprint(cell75, ps(101), line, 1e-14,
                                         ModelingOptions())
        assert base != stage_fingerprint(cell75, ps(100), other_line, 1e-14,
                                         ModelingOptions())
        assert base != stage_fingerprint(cell75, ps(100), line, 2e-14,
                                         ModelingOptions())
        assert base != stage_fingerprint(cell75, ps(100), line, 1e-14,
                                         ModelingOptions(transition="fall"))
        assert base != stage_fingerprint(cell75, ps(100), line, 1e-14,
                                         ModelingOptions(ceff_damping=0.4))
        assert base != stage_fingerprint(cell75, ps(100), line, 1e-14,
                                         ModelingOptions(), slew_high=0.8)


class TestSolveStage:
    def test_matches_direct_modeling_flow(self, cell75, line):
        options = ModelingOptions(transition="fall")
        solution = solve_stage(cell75, ps(100), line, 1.5e-14, options=options)
        model = model_driver_output(cell75, ps(100), line, 1.5e-14, options=options)
        far = far_end_response(model)
        assert solution.gate_delay == model.delay()
        assert solution.interconnect_delay == far.interconnect_delay()
        assert solution.far_slew == far.far_slew()
        assert solution.propagated_slew == pytest.approx(solution.far_slew / 0.8)
        assert solution.has_waveforms
        assert solution.kind == model.kind
        assert solution.stage_delay == solution.gate_delay + solution.interconnect_delay

    def test_payload_roundtrip(self, cell75, line):
        solution = solve_stage(cell75, ps(100), line, 1.5e-14,
                               options=ModelingOptions(transition="fall"))
        restored = StageSolution.from_payload(
            json.loads(json.dumps(solution.to_payload())))
        assert restored == solution.lite()
        assert not restored.has_waveforms

    def test_payload_version_guard(self, cell75, line):
        payload = solve_stage(cell75, ps(100), line, 1.5e-14,
                              options=ModelingOptions(transition="fall")).to_payload()
        payload["version"] = 999
        with pytest.raises(ModelingError):
            StageSolution.from_payload(payload)


def request(cell, slew, line, load=1e-14, transition="fall"):
    return StageRequest(cell=cell, input_slew=slew, line=line,
                        load_capacitance=load,
                        options=ModelingOptions(transition=transition))


class TestStageSolver:
    def test_memo_hit_returns_identical_solution(self, cell75, line):
        solver = StageSolver()
        (first,) = solver.solve_batch([request(cell75, ps(100), line)])
        (second,) = solver.solve_batch([request(cell75, ps(100), line)])
        assert first is second
        assert solver.stats.computed == 1
        assert solver.stats.memo_hits == 1
        assert solver.stats.hit_rate == pytest.approx(0.5)

    def test_answers_are_scalar_only(self, cell75, line):
        solver = StageSolver()
        (solution,) = solver.solve_batch([request(cell75, ps(100), line)])
        assert not solution.has_waveforms  # the memo holds no waveform either
        full = solve_stage(cell75, ps(100), line, 1e-14,
                           options=ModelingOptions(transition="fall"))
        assert full.has_waveforms and solution.fingerprint == full.fingerprint
        assert solution.gate_delay == pytest.approx(full.gate_delay, rel=1e-9)

    def test_lru_bound(self, cell75, line, other_line):
        solver = StageSolver(memo_size=2)
        for slew in (ps(80), ps(100), ps(120)):
            solver.solve_batch([request(cell75, slew, line)])
        assert len(solver) == 2

    def test_persistent_store_roundtrip(self, cell75, line, tmp_path):
        writer = StageSolver(persistent=tmp_path)
        (computed,) = writer.solve_batch([request(cell75, ps(100), line)])
        assert len(writer.store) == 1

        reader = StageSolver(persistent=tmp_path)
        (restored,) = reader.solve_batch([request(cell75, ps(100), line)])
        assert reader.stats.persistent_hits == 1
        assert reader.stats.computed == 0
        assert restored == computed.lite()
        assert not restored.has_waveforms  # the store keeps scalar-only entries
        (again,) = reader.solve_batch([request(cell75, ps(100), line)])
        assert again is restored  # the memoized lite entry answers repeats

    def test_corrupt_persistent_entry_heals(self, cell75, line, tmp_path):
        writer = StageSolver(persistent=tmp_path)
        (solution,) = writer.solve_batch([request(cell75, ps(100), line)])
        path = writer.store.path_for(solution.fingerprint)
        path.write_text("{ not json")

        reader = StageSolver(persistent=tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            (recovered,) = reader.solve_batch([request(cell75, ps(100), line)])
        assert recovered.lite() == solution.lite()
        assert reader.stats.computed == 1
        # The healed entry is rewritten and serves the next process.
        assert StageSolutionStore(tmp_path).get(solution.fingerprint) is not None

    def test_validation(self):
        with pytest.raises(ModelingError):
            StageSolver(memo_size=-1)
