"""The batched solve path against its scalar oracles.

Every layer of the array pipeline — table interpolation, charge matching, the
masked fixed point, the full driver model, kernel-convolution far ends, and the
memo-aware :meth:`StageSolver.solve_batch` — is compared lane by lane against
the scalar reference it replaces.  The real-arithmetic layers (tables, fixed
point) must match bit for bit; layers that touch complex charge matching or the
far-end transient must agree within 1e-9 relative, the equivalence gate the
benchmarks enforce.
"""

import threading

import numpy as np
import pytest
from scipy.sparse.linalg import SuperLU

from repro.api import TimingSession
from repro.characterization import default_library
from repro.circuit.netlist import Circuit
from repro.circuit.sources import DCSource
from repro.circuit.transient import (SourceKernel, TransientOptions,
                                     _TransientEngine, linear_source_kernel)
from repro.core import (ModelingOptions, StageRequest, StageSolver,
                        ceff_first_ramp, ceff_first_ramp_batch,
                        ceff_second_ramp, ceff_second_ramp_batch,
                        model_driver_output, model_driver_output_batch,
                        solve_stage, solve_stage_batch)
from repro.core.ceff import AdmittanceBatch
from repro.core.driver_model import _admittance_for
from repro.core.far_end import far_end_response, far_end_response_batch
from repro.core.iteration import _fixed_point, _fixed_point_batch
from repro.errors import ConvergenceError, ModelingError, SimulationError
from repro.experiments.graph_cases import (parallel_chains, soc_graph,
                                           standard_lines)
from repro.interconnect.ladder import add_line_ladder
from repro.sta.batch import GraphEngine
from repro.sta.graph import event_options
from repro.units import ps


@pytest.fixture(scope="module")
def library():
    return default_library()


@pytest.fixture(scope="module")
def stage_requests(library):
    """A mixed bag of stage configs: every line flavor, both transitions."""
    requests = []
    for i, line in enumerate(standard_lines()):
        for j, size in enumerate((25.0, 75.0, 125.0)):
            options = ModelingOptions(
                transition="rise" if (i + j) % 2 == 0 else "fall")
            requests.append(StageRequest(
                cell=library.get(size), input_slew=ps(60.0 + 10.0 * ((i + j) % 5)),
                line=line, load_capacitance=0.0, options=options))
    return requests


def rel_err(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


#: StageSolution fields a batched solve must match the scalar oracle on.
ORACLE_FIELDS = ("gate_delay", "interconnect_delay", "far_slew",
                 "propagated_slew", "ceff1", "tr1", "ceff2", "tr2_effective")


def assert_matches_scalar_oracle(solution, oracle):
    """``solution`` is ``oracle``'s stage, every field within 1e-9 relative."""
    assert solution.fingerprint == oracle.fingerprint
    assert solution.kind == oracle.kind
    for field in ORACLE_FIELDS:
        got, want = getattr(solution, field), getattr(oracle, field)
        assert (got is None) == (want is None), field
        if got is not None:
            assert rel_err(got, want) < 1e-9, field


class TestLookupMany:
    def test_matches_scalar_lookup_bitwise(self, library):
        cell = library.get(75.0)
        table, _, _ = cell._tables("rise")
        rng = np.random.default_rng(7)
        rows = rng.uniform(table.row_axis[0] * 0.5, table.row_axis[-1] * 1.5, 64)
        cols = rng.uniform(table.column_axis[0] * 0.5, table.column_axis[-1] * 1.5, 64)
        many = table.lookup_many(rows, cols)
        for k in range(rows.size):
            assert many[k] == table.lookup(rows[k], cols[k])

    def test_cell_accessors_match(self, library):
        cell = library.get(50.0)
        slews = np.array([ps(40.0), ps(90.0), ps(150.0)])
        loads = np.array([1e-14, 5e-14, 2e-13])
        for transition in ("rise", "fall"):
            d = cell.delay_many(slews, loads, transition=transition)
            r = cell.ramp_time_many(slews, loads, transition=transition)
            z = cell.driver_resistance_many(slews, loads, transition=transition)
            for k in range(slews.size):
                assert d[k] == cell.delay(slews[k], loads[k],
                                          transition=transition)
                assert r[k] == cell.ramp_time(slews[k], loads[k],
                                              transition=transition)
                assert z[k] == cell.driver_resistance(slews[k], loads[k],
                                                      transition=transition)


class TestCeffBatch:
    def test_first_and_second_ramp_match_scalar(self):
        admittances = [_admittance_for(line, load, ModelingOptions())
                       for line in standard_lines() for load in (0.0, 5e-14)]
        batch = AdmittanceBatch.from_admittances(admittances)
        n = len(admittances)
        tr1 = np.linspace(2e-11, 2e-10, n)
        tr2 = np.linspace(5e-11, 4e-10, n)
        f = np.linspace(0.3, 0.9, n)
        vdd = np.full(n, 1.8)
        first = ceff_first_ramp_batch(batch, tr1, f, vdd=vdd)
        second = ceff_second_ramp_batch(batch, tr1, tr2, f, vdd=vdd)
        for k, adm in enumerate(admittances):
            assert rel_err(first[k],
                           ceff_first_ramp(adm, tr1[k], f[k], vdd=vdd[k])) < 1e-12
            assert rel_err(second[k],
                           ceff_second_ramp(adm, tr1[k], tr2[k], f[k],
                                            vdd=vdd[k])) < 1e-12

    def test_batch_validation_matches_scalar(self):
        adm = _admittance_for(standard_lines()[0], 0.0, ModelingOptions())
        batch = AdmittanceBatch.from_admittances([adm])
        one = np.ones(1)
        with pytest.raises(ModelingError):
            ceff_first_ramp_batch(batch, -one, 0.5 * one, vdd=one)
        with pytest.raises(ModelingError):
            ceff_first_ramp_batch(batch, one, 1.5 * one, vdd=one)
        with pytest.raises(ModelingError):
            ceff_second_ramp_batch(batch, one, one, one, vdd=one)  # f == 1


class TestFixedPointBatch:
    """Property test: the masked batch replays the scalar iteration exactly.

    The callbacks are pure real arithmetic (elementwise ufuncs), so the batch
    must reproduce the scalar results *bit for bit* — ceff, ramp, iteration
    counts, convergence flags and full histories — including clamped and
    non-convergent lanes.
    """

    @staticmethod
    def lane_functions(a, b, target):
        """A contraction toward ``target`` with tunable gain ``a`` and offset ``b``."""
        def ceff_of_ramp(ramp):
            return target + a * (ramp * 1e-12 - target) + b

        def ramp_of_load(load):
            return load / 1e-12

        return ceff_of_ramp, ramp_of_load

    def run_pair(self, totals, gains, offsets, *, rel_tol=1e-6,
                 max_iterations=60, damping=0.5, require_convergence=False):
        scalars = []
        errors = []
        for lane in range(totals.size):
            ceff_fn, ramp_fn = self.lane_functions(
                gains[lane], offsets[lane], 0.4 * totals[lane])
            try:
                scalars.append(_fixed_point(
                    float(totals[lane]), ceff_fn, ramp_fn, rel_tol=rel_tol,
                    max_iterations=max_iterations, damping=damping,
                    require_convergence=require_convergence))
                errors.append(None)
            except (ModelingError, ConvergenceError) as exc:
                scalars.append(None)
                errors.append(exc)

        def batch_ceff(ramps, lanes):
            return (0.4 * totals[lanes] + gains[lanes]
                    * (ramps * 1e-12 - 0.4 * totals[lanes]) + offsets[lanes])

        def batch_ramp(loads, lanes):
            return loads / 1e-12

        batch = _fixed_point_batch(totals, batch_ceff, batch_ramp,
                                   rel_tol=rel_tol,
                                   max_iterations=max_iterations,
                                   damping=damping,
                                   require_convergence=require_convergence)
        return scalars, errors, batch

    def test_randomized_lanes_bit_identical(self):
        rng = np.random.default_rng(11)
        totals = rng.uniform(5e-14, 5e-13, 32)
        gains = rng.uniform(-0.8, 0.8, 32)       # contractions: all converge
        offsets = np.zeros(32)
        scalars, _, batch = self.run_pair(totals, gains, offsets)
        for scalar, lane in zip(scalars, batch):
            assert lane.ceff == scalar.ceff
            assert lane.ramp_time == scalar.ramp_time
            assert lane.iterations == scalar.iterations
            assert lane.converged == scalar.converged
            assert lane.history == scalar.history

    def test_clamped_and_nonconvergent_lanes(self):
        # Lane 0 converges freely, lane 1 pins against the 2x-total ceiling
        # clamp (its raw proposal is far above it), lane 2 falls into a
        # period-two oscillation and exhausts the iteration budget.
        totals = np.array([1e-13, 2e-13, 3e-13])
        gains = np.array([0.3, 0.0, -3.0])
        offsets = np.array([0.0, 1e-11, 0.0])
        scalars, _, batch = self.run_pair(totals, gains, offsets,
                                          max_iterations=60)
        assert batch[0].converged
        assert batch[1].converged
        assert batch[1].ceff == pytest.approx(2.0 * totals[1], rel=1e-5)
        assert not batch[2].converged
        assert batch[2].iterations == 60
        for scalar, lane in zip(scalars, batch):
            assert lane.ceff == scalar.ceff
            assert lane.iterations == scalar.iterations
            assert lane.converged == scalar.converged
            assert lane.history == scalar.history

    def test_mixed_batch_raises_with_lane_attribution(self):
        # Lane 1 oscillates forever; with require_convergence the batch must
        # raise a ConvergenceError naming it, exactly like the scalar path
        # would for that lane alone.
        totals = np.array([1e-13, 2e-13, 1.5e-13])
        gains = np.array([0.2, -3.0, 0.4])
        offsets = np.zeros(3)
        scalars, errors, _ = self.run_pair(totals, gains, offsets,
                                           require_convergence=False)
        with pytest.raises(ConvergenceError, match=r"lane 1"):
            self.run_pair(totals, gains, offsets, require_convergence=True)
        # The non-raising lanes still match the scalar results bit for bit.
        for scalar in scalars:
            assert scalar is not None

    def test_nonpositive_ramp_names_lane(self):
        totals = np.array([1e-13, 2e-13])

        def batch_ceff(ramps, lanes):
            return -np.ones(lanes.size) * 1e-13  # clamped to the floor

        def bad_ramp(loads, lanes):
            out = loads / 1e-12
            out[lanes == 1] = -1.0
            return out

        with pytest.raises(ModelingError, match=r"lane 1"):
            _fixed_point_batch(totals, batch_ceff, bad_ramp, rel_tol=1e-6,
                               max_iterations=10, damping=0.5,
                               require_convergence=False)

    def test_empty_batch(self):
        assert _fixed_point_batch(
            np.empty(0), lambda v, i: v, lambda v, i: v, rel_tol=1e-6,
            max_iterations=10, damping=0.5, require_convergence=True) == []


class TestDriverModelBatch:
    def test_matches_scalar_model(self, stage_requests):
        requests = [(r.cell, r.input_slew, r.line, r.load_capacitance, r.options)
                    for r in stage_requests]
        batch = model_driver_output_batch(requests)
        for request, model in zip(requests, batch):
            scalar = model_driver_output(*request[:4], options=request[4])
            assert model.kind == scalar.kind
            assert model.transition == scalar.transition
            for attr in ("gate_delay", "tr1", "ceff1", "vdd", "reference_time"):
                assert rel_err(getattr(model, attr),
                               getattr(scalar, attr)) < 1e-12
            if scalar.kind == "two-ramp":
                assert rel_err(model.tr2, scalar.tr2) < 1e-12
                assert rel_err(model.ceff2, scalar.ceff2) < 1e-12

    def test_admittance_cache_dedupes(self, stage_requests):
        requests = [(r.cell, r.input_slew, r.line, r.load_capacitance, r.options)
                    for r in stage_requests]
        cache = {}
        first = model_driver_output_batch(requests, admittance_cache=cache)
        # Four line flavors at one load: four unique admittances.
        assert len(cache) == 4
        again = model_driver_output_batch(requests, admittance_cache=cache)
        for a, b in zip(first, again):
            assert a.gate_delay == b.gate_delay  # cache reuse is exact

    def test_validation_matches_scalar(self, library):
        line = standard_lines()[0]
        cell = library.get(75.0)
        with pytest.raises(ModelingError, match="input slew"):
            model_driver_output_batch([(cell, -1.0, line, 0.0, None)])
        with pytest.raises(ModelingError, match="load capacitance"):
            model_driver_output_batch([(cell, ps(100), line, -1e-15, None)])


class TestFarEndBatch:
    def test_matches_scalar_transient(self, stage_requests):
        models = model_driver_output_batch(
            [(r.cell, r.input_slew, r.line, r.load_capacitance, r.options)
             for r in stage_requests])
        batch = far_end_response_batch(models)
        for model, fast in zip(models, batch):
            slow = far_end_response(model)
            assert fast.rising == slow.rising
            assert rel_err(fast.interconnect_delay(),
                           slow.interconnect_delay()) < 1e-9
            assert rel_err(fast.far_slew(), slow.far_slew()) < 1e-9

    def test_kernel_cache_is_reused(self, stage_requests):
        models = model_driver_output_batch(
            [(r.cell, r.input_slew, r.line, r.load_capacitance, r.options)
             for r in stage_requests])
        cache = {}
        first = far_end_response_batch(models, kernel_cache=cache)
        assert 0 < len(cache) <= len(models)
        kernels = {key: value.values.copy() for key, value in cache.items()}
        again = far_end_response_batch(models, kernel_cache=cache)
        for key in kernels:
            assert np.array_equal(cache[key].values[:kernels[key].size],
                                  kernels[key])
        for a, b in zip(first, again):
            assert np.array_equal(a.far.values, b.far.values)


def _kernel_circuit(line, load_capacitance, segments):
    circuit = Circuit("kernel")
    circuit.voltage_source("near", "0", DCSource(0.0), name="Vdrv")
    add_line_ladder(circuit, line, "near", "far", n_segments=segments)
    if load_capacitance > 0:
        circuit.capacitor("far", "0", load_capacitance, name="Cload")
    return circuit


def _source_kernel(line, load_capacitance=0.0, segments=30, method="trap"):
    return SourceKernel(_kernel_circuit(line, load_capacitance, segments), "Vdrv",
                        options=TransientOptions(dt=ps(0.2), method=method,
                                                 store_branch_currents=False),
                        output_node="far")


def _reference_kernel(circuit, n_steps, method):
    """The impulse-kernel recurrence stepped with three ``np.add.at`` scatters."""
    engine = _TransientEngine(circuit, TransientOptions(
        dt=ps(0.2), method=method, store_branch_currents=False))
    trap = method == "trap"
    branch = engine.index.branch("Vdrv")
    out = engine.index.node("far")
    cap_v = np.zeros(len(engine.capacitors))
    cap_i = np.zeros(len(engine.capacitors))
    ind_i = np.zeros(len(engine.inductors))
    ind_v = np.zeros(len(engine.inductors))
    x_aug = np.zeros(engine.size + 1)
    kernel = np.zeros(n_steps + 1)
    for step in range(1, n_steps + 1):
        cap_ieq = engine.cap_geq * cap_v + (cap_i if trap else 0.0)
        rhs_aug = np.zeros(engine.size + 1)
        np.add.at(rhs_aug, engine.cap_pos, cap_ieq)
        np.add.at(rhs_aug, engine.cap_neg, -cap_ieq)
        np.add.at(rhs_aug, engine.ind_branch,
                  -engine.ind_req * ind_i - (ind_v if trap else 0.0))
        rhs = rhs_aug[:-1]
        if step == 1:
            rhs[branch] += 1.0
        x = engine._static_lu.solve(rhs)
        x_aug[:-1] = x
        new_cap_v = x_aug[engine.cap_pos] - x_aug[engine.cap_neg]
        cap_i = engine.cap_geq * new_cap_v - cap_ieq if trap \
            else engine.cap_geq * (new_cap_v - cap_v)
        cap_v = new_cap_v
        ind_i = x[engine.ind_branch]
        ind_v = x_aug[engine.ind_pos] - x_aug[engine.ind_neg]
        kernel[step] = x[out]
    return kernel


class TestSourceKernel:
    @pytest.mark.parametrize("method", ["trap", "be"])
    @pytest.mark.parametrize("load", [0.0, 40e-15])
    def test_matches_add_at_recurrence_bitwise(self, method, load):
        line = standard_lines()[0]
        kernel = linear_source_kernel(_source_kernel(line, load, method=method), 700)
        reference = _reference_kernel(_kernel_circuit(line, load, 30), 700, method)
        assert kernel.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n, m", [(1, 2), (37, 500), (400, 401)])
    def test_extension_equals_fresh_kernel_bitwise(self, n, m):
        line = standard_lines()[1]
        fresh = linear_source_kernel(_source_kernel(line, 25e-15), m)
        grown = _source_kernel(line, 25e-15)
        short = linear_source_kernel(grown, n).copy()
        extended = linear_source_kernel(grown, m)
        assert grown.n_steps == m
        assert extended.tobytes() == fresh.tobytes()
        assert short.tobytes() == fresh[:n + 1].tobytes()
        # A kernel already long enough is sliced, never re-stepped.
        assert linear_source_kernel(grown, n).tobytes() == short.tobytes()

    def test_extension_in_another_thread_keeps_no_factorization(self):
        # scipy frees SuperLU factors only in the creating thread, so a kernel
        # cached across threads must not hold one between calls.
        kernel = _source_kernel(standard_lines()[0], 10e-15)
        worker = threading.Thread(target=linear_source_kernel, args=(kernel, 50))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert kernel.n_steps == 50
        linear_source_kernel(kernel, 80)
        assert not any(isinstance(value, SuperLU) for value in vars(kernel).values())
        fresh = linear_source_kernel(_source_kernel(standard_lines()[0], 10e-15), 80)
        assert kernel.values.tobytes() == fresh.tobytes()

    def test_rejects_unknown_source_and_empty_horizon(self):
        circuit = _kernel_circuit(standard_lines()[0], 0.0, 4)
        kernel = SourceKernel(circuit, "Vmissing",
                              options=TransientOptions(dt=ps(0.2)),
                              output_node="far")
        with pytest.raises(SimulationError, match="unknown voltage source"):
            linear_source_kernel(kernel, 3)
        with pytest.raises(SimulationError, match="one time step"):
            linear_source_kernel(_source_kernel(standard_lines()[0]), 0)

    def test_cold_solve_builds_one_kernel_per_circuit(self, monkeypatch):
        starts = []
        original = SourceKernel._start

        def counting_start(kernel):
            starts.append(kernel)
            return original(kernel)

        monkeypatch.setattr(SourceKernel, "_start", counting_start)
        graph = soc_graph(1000)
        graph.set_clock_period(ps(1500))
        with TimingSession() as session:
            session.time(graph)
            cached = list(session.solver._kernel_cache.values())
        assert len(starts) == 16
        assert sorted(map(id, starts)) == sorted(map(id, cached))


class TestSolveStageBatch:
    def test_matches_solve_stage(self, stage_requests):
        batch = solve_stage_batch(stage_requests)
        for request, solution in zip(stage_requests, batch):
            scalar = solve_stage(request.cell, request.input_slew, request.line,
                                 request.load_capacitance,
                                 options=request.options)
            assert solution.fingerprint == scalar.fingerprint
            assert solution.kind == scalar.kind
            assert rel_err(solution.gate_delay, scalar.gate_delay) < 1e-9
            assert rel_err(solution.interconnect_delay,
                           scalar.interconnect_delay) < 1e-9
            assert rel_err(solution.far_slew, scalar.far_slew) < 1e-9
            assert rel_err(solution.propagated_slew,
                           scalar.propagated_slew) < 1e-9
            assert solution.has_waveforms


class TestSolverSolveBatch:
    def test_memo_dupe_and_store_semantics(self, stage_requests, tmp_path):
        solver = StageSolver(persistent=tmp_path)
        work = list(stage_requests) + list(stage_requests[:4])
        solved = solver.solve_batch(work)
        assert len(solved) == len(work)
        stats = solver.stats
        assert stats.computed == len(stage_requests)
        assert stats.memo_hits == 4  # batch-local duplicates
        # Results land in the memo (and duplicates share the same object).
        for early, late in zip(solved[:4], solved[-4:]):
            assert early is late
        # A fresh solver against the same store answers from disk.
        cold = StageSolver(persistent=tmp_path)
        again = cold.solve_batch(stage_requests)
        assert cold.stats.persistent_hits == len(stage_requests)
        assert cold.stats.computed == 0
        for a, b in zip(solved, again):
            assert a.gate_delay == b.gate_delay

    def test_batch_results_identical_to_scalar_solve_path(self, stage_requests):
        batch = StageSolver().solve_batch(stage_requests)
        for request, solution in zip(stage_requests, batch):
            scalar = solve_stage(request.cell, request.input_slew, request.line,
                                 request.load_capacitance,
                                 options=request.options)
            assert solution.fingerprint == scalar.fingerprint
            assert rel_err(solution.stage_delay, scalar.stage_delay) < 1e-9


class TestEngineEquivalence:
    def test_batched_analysis_matches_naive_loop(self, library):
        # The naive loop solves every event with the scalar solve_stage; each
        # unique solution of the batched sweep must match that oracle.
        graph = parallel_chains(3, 4)
        engine = GraphEngine(library=library)
        batched = engine.analyze(graph)
        unique = {}
        for per_net in batched.events.values():
            for event in per_net.values():
                unique.setdefault(event.solution.fingerprint, event)
        assert len(unique) == batched.stats.computed > 0
        for event in unique.values():
            oracle = solve_stage(
                library.get(event.net.driver_size), event.input_slew,
                event.net.line, event.solution.load_capacitance,
                options=event_options(engine.options, event.input_transition),
                slew_low=engine.solver.slew_low,
                slew_high=engine.solver.slew_high)
            assert_matches_scalar_oracle(event.solution, oracle)
