import dataclasses
import inspect
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seactrl import experiments, lti
from seactrl import plant as plant_module
from seactrl.config import load_config
from seactrl.control import (
    DisturbanceObserver,
    ImpedanceConfig,
    PidConfig,
    build_force_controller,
    impedance_step,
    nominal_lsea_tf,
)
from seactrl.kinematics import PendulumMap, actuator_setpoints, ff_force
from seactrl.lti import ContinuousTransferFunction, NyquistError, freq_response, log_grid
from seactrl.plant import (
    _LOG_BLOCK_TICKS,
    LOG_COLUMNS,
    BacklashPlay,
    LseaPlant,
    PendulumConfig,
    PlantConfig,
    ReferenceSpec,
    SimScenario,
    SimulationFault,
    _keeps_input,
    _pendulum_stepper,
    free_oscillation_frequency,
    run_scenario,
)
from seactrl.sysid import (
    TimeSeries,
    empirical_frf,
    exponential_chirp,
    exponential_chirp_point,
    linear_chirp_point,
)

from oracles import (
    coupled_ode_reference,
    csv_reference,
    dob_loop_response,
    held_call_reference,
    lifted_oracle,
    pendulum_tick_reference,
    rate_rows,
    stepped_call,
    stepped_substeps,
    substep_composition,
    zoh_map,
)

SHIPPED_DEN_FACTORS = (1.0, 1.2, 0.8, 1.25)
CHIRP = ReferenceSpec(kind="current_chirp", amplitude=1.75, f_start=0.1, f_end=20.0)


def bits(values):
    """The IEEE bit patterns of ``values``, so ``-0.0`` differs from ``0.0``."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def block_replay(sc):
    """Replay a force-step or current-chirp scenario through fresh blocks.

    Each tick steps the ``ForceController``'s stepper (force step) or the
    ``DisturbanceObserver``'s (chirp), then ``LseaPlant.advance`` with the
    command held.  Returns the rows ``(i_m, d_hat, f_o)``, up to the first
    tick whose ``f_o`` is not finite.
    """
    ref, T = sc.reference, 1.0 / sc.controller_hz
    plant = sc.plant.build()
    if ref.kind == "force_step":
        fc_step = build_force_controller(sc.pid, sc.omega_c, sc.gamma, sc.k_ff, T).stepper()
    else:
        dob_step = DisturbanceObserver(sc.omega_c, sc.gamma, T).stepper()
    f_o, rows = 0.0, []
    for k in range(int(round(sc.duration_s * sc.controller_hz))):
        if not math.isfinite(f_o):
            break
        t = k * T
        if ref.kind == "force_step":
            i_m, d_hat = fc_step(ref.step_value if t >= ref.step_time else 0.0, f_o)
        else:
            u_c = exponential_chirp_point(ref.amplitude, ref.f_start, ref.f_end,
                                          sc.duration_s, t)[0]
            i_m, d_hat = dob_step(u_c, f_o)
        rows.append((i_m, d_hat, f_o))
        f_o = plant.advance(i_m, 1.0 / sc.plant_hz, sc.plant_hz // sc.controller_hz)
    return np.array(rows)


def refuse_block_scan(*args):
    raise AssertionError("the tick loop's scenario took the block path")


def spy_on(monkeypatch, name, record=None):
    """Record what each call of ``plant_module``'s function ``name`` returns;
    ``record(args, result)``, if given, also sees each call's arguments."""
    results, function = [], getattr(plant_module, name)

    def recorded(*args):
        results.append(function(*args))
        if record is not None:
            record(args, results[-1])
        return results[-1]

    monkeypatch.setattr(plant_module, name, recorded)
    return results


def count_steps(monkeypatch):
    """Record the inputs of every call of a plant's or an observer's stepper."""
    calls = []

    def counted(factory):
        def build(block, *args):
            step = factory(block, *args)

            def recorded(*values):
                calls.append(values)
                return step(*values)

            return recorded

        return build

    for block in (LseaPlant, DisturbanceObserver):
        monkeypatch.setattr(block, "stepper", counted(block.stepper))
    return calls


def shipped_chirp(experiment, amplitude, gamma=0.0):
    """The shipped ``experiment``'s current chirp at ``amplitude`` and ``gamma``."""
    cfg = load_config(experiment)
    sn = cfg["scenario"]
    ref = ReferenceSpec(kind="current_chirp", amplitude=amplitude,
                        f_start=sn["chirp_f_start"], f_end=sn["chirp_f_end"])
    return experiments._base_scenario(cfg, ref, gamma=gamma)


def superpose_against_tick_loop(monkeypatch, sc):
    """Run the current chirp ``sc`` on its block path, then on the tick loop.

    ``t`` must be bit-equal, and ``d_hat`` within 1e-9 of its peak.  At
    ``gamma = 0``, ``i_m`` must be bit-equal and ``f_o`` within 1e-13 of
    its peak; at ``gamma > 0``, ``i_m`` within 1e-9 of ``d_hat``'s peak and
    ``f_o`` within 1e-10 of its own.  Every held call (input below the
    breakaway) must come in the same order on both paths, and no logged
    command may be held on one path and not on the other.  On the block
    path a held call is either stepped by the plant's stepper or decided
    without stepping by ``plant._keeps_input``, up to the first call that
    it leaves undecided; both kinds are collected in the order the path
    meets them, which is tick order.  Returns the block path's log and the
    number of held calls whose substeps are zeroed otherwise than on the
    tick loop, from the state and input each path steps or decides the
    call with.
    """
    calls = []
    stepper = LseaPlant.stepper

    def decided(args, kept):
        _, _, x, u = args
        count = kept.size if kept.all() else int(kept.argmin())
        calls.extend(zip(u[:count].tolist(), map(tuple, x[:, :count].T.tolist())))

    def recorded_stepper(plant, dt, substeps):
        advance = stepper(plant, dt, substeps)

        def recorded(u):
            if abs(u) < plant.stiction_breakaway:
                calls.append((u, plant.state()))
            return advance(u)

        return recorded

    monkeypatch.setattr(LseaPlant, "stepper", recorded_stepper)
    spy_on(monkeypatch, "_keeps_input", decided)
    log = run_scenario(sc)
    block = calls[:]
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        tick = run_scenario(sc)
    d_peak = np.max(np.abs(tick.d_hat))
    assert np.array_equal(bits(log.t), bits(tick.t))
    assert np.max(np.abs(log.d_hat - tick.d_hat)) <= 1e-9 * d_peak
    f_bound = 1e-13 if sc.gamma == 0.0 else 1e-10
    assert np.max(np.abs(log.f_o - tick.f_o)) <= f_bound * np.max(np.abs(tick.f_o))
    if sc.gamma == 0.0:
        assert np.array_equal(bits(log.i_m), bits(tick.i_m))
    else:
        assert np.max(np.abs(log.i_m - tick.i_m)) <= 1e-9 * d_peak
    brk = sc.plant.stiction_breakaway
    assert np.array_equal(np.abs(log.i_m) < brk, np.abs(tick.i_m) < brk)  # no flipped hold
    # the tick loop also steps the last tick, whose output is never logged
    tick_calls = calls[:len(block)]
    assert len(block) == len(tick_calls)
    if sc.gamma == 0.0:
        assert [bits(u) for u, _ in block] == [bits(u) for u, _ in tick_calls]
    elif block:
        assert max(abs(u - v) for (u, _), (v, _) in zip(block, tick_calls)) <= 1e-9 * d_peak
    plant, dt, n_sub = sc.plant.build(), 1.0 / sc.plant_hz, sc.plant_hz // sc.controller_hz

    def zeroed(state, u):
        return [e == 0.0 for e in stepped_substeps(plant, state, u, dt, n_sub)[1]]

    changed = sum(zeroed(x, u) != zeroed(y, v) for (u, x), (v, y) in zip(block, tick_calls))
    return log, changed


def assert_log_layout(log, written):
    """Each column in ``written`` owns a contiguous float64 buffer; every
    other column is a read-only zero-stride ``+0.0``."""
    for name in LOG_COLUMNS:
        col = log.column(name)
        assert col.dtype == np.float64 and col.shape == (len(log),), name
        if name in written:
            assert col.flags.c_contiguous and col.flags.owndata, name
        else:
            assert col.strides == (0,) and not col.flags.writeable, name
            assert not np.any(bits(col)), name


class TestLseaPlant:
    def test_zero_input_equilibrium(self):
        p = LseaPlant()
        assert all(p.advance(0.0, 1e-3, 1) == 0.0 for _ in range(100))

    def test_unperturbed_dc_gain(self):
        p = LseaPlant()
        assert p.tf.dc_gain() == pytest.approx(208.8 / 987.0, rel=1e-12)
        f = 0.0
        for _ in range(4000):
            f = p.advance(1.0, 1e-3, 1)
        assert f == pytest.approx(208.8 / 987.0, rel=1e-6)

    def test_step_matches_dense_rk4_oracle(self):
        # classic 4-stage RK4 on the canonical ODE, written out independently
        den = np.asarray([0.01, 1.13, 23.04, 987.0])
        a = den / den[0]
        cy = 208.8 / den[0]

        def deriv(x, u):
            return np.array([x[1], x[2], -a[3] * x[0] - a[2] * x[1] - a[1] * x[2] + u])

        x = np.zeros(3)
        dt, u = 1e-3, 0.7
        p = LseaPlant()
        for _ in range(200):
            k1 = deriv(x, u)
            k2 = deriv(x + 0.5 * dt * k1, u)
            k3 = deriv(x + 0.5 * dt * k2, u)
            k4 = deriv(x + dt * k3, u)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            got = p.advance(u, dt, 1)
        assert got == pytest.approx(cy * x[0], rel=1e-12)

    def test_stiction_holds_below_breakaway(self):
        p = LseaPlant(stiction_breakaway=0.3, stiction_velocity_deadband=0.1)
        out = [p.advance(0.2, 1e-3, 1) for _ in range(2000)]
        assert max(abs(v) for v in out) == 0.0

    def test_stiction_breaks_away(self):
        p = LseaPlant(stiction_breakaway=0.3, stiction_velocity_deadband=0.1)
        f = 0.0
        for _ in range(3000):
            f = p.advance(1.0, 1e-3, 1)
        assert f == pytest.approx(208.8 / 987.0, rel=1e-4)

    def test_perturbation_scales_dc_gain(self):
        p = LseaPlant(den_factors=(1.0, 1.0, 1.0, 1.25), gain_factor=0.9)
        assert p.tf.dc_gain() == pytest.approx(0.9 * 208.8 / (1.25 * 987.0), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LseaPlant(den_factors=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            LseaPlant(den_factors=(1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            LseaPlant(gain_factor=-1.0)
        with pytest.raises(ValueError):
            LseaPlant(backlash=-1.0)
        # a leading coefficient 0.01 * 1e-322 underflows to 0, which would
        # leave a second-order transfer function
        with pytest.raises(ValueError, match="leading denominator coefficient"):
            LseaPlant(den_factors=(1e-322, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["den_factors", "gain_factor", "stiction_breakaway",
                                      "stiction_velocity_deadband", "backlash"])
    def test_rejects_non_finite_parameters(self, name, value):
        # NaN fails every comparison: gain_factor=nan made every output
        # NaN, a NaN breakaway or dead-band switched stiction off, and
        # backlash=inf held the output at 0.0
        kwargs = {name: (1.0, value, 1.0, 1.0) if name == "den_factors" else value}
        with pytest.raises(ValueError, match=name):
            LseaPlant(**kwargs)
        with pytest.raises(ValueError, match=name):
            PlantConfig(**kwargs).build()

    def test_config_fields_are_the_plant_parameters_and_plant_keys(self):
        # PlantConfig(**cfg["plant"]).build() is LseaPlant(**cfg["plant"])
        names = [f.name for f in dataclasses.fields(PlantConfig)]
        assert names == list(inspect.signature(LseaPlant).parameters)
        assert names == list(load_config("dob-verify")["plant"])

    @pytest.mark.parametrize("dt, substeps", [
        (math.inf, 2), (math.nan, 2), (-1e-4, 2), (1e-4, 0), (1e-4, -3), (1e-4, 2.0)])
    @pytest.mark.parametrize("through", ["advance", "stepper"])
    def test_rejects_bad_substeps_without_touching_the_plant(self, dt, substeps, through):
        # a non-finite or non-positive dt, or a substep count that is not a
        # positive integer, is rejected before anything is cached or stepped
        kwargs = dict(den_factors=SHIPPED_DEN_FACTORS, stiction_breakaway=0.15)
        p, twin = LseaPlant(**kwargs), LseaPlant(**kwargs)
        for plant in (p, twin):
            for _ in range(50):
                plant.advance(1.0, 1e-4, 5)
        steppers = dict(p._steppers)
        with pytest.raises(ValueError):
            if through == "advance":
                p.advance(1.0, dt, substeps)
            else:
                p.stepper(dt, substeps)
        assert p._steppers == steppers
        assert p.state() == twin.state()
        assert p.advance(0.7, 1e-4, 5) == twin.advance(0.7, 1e-4, 5)
        assert p.state() == twin.state()

    @pytest.mark.parametrize("plant_hz, bound", [(1000, 1e-6), (5000, 1e-8), (20000, 1e-8)])
    def test_linear_limit_matches_lsim(self, plant_hz, bound):
        # without stiction or backlash the plant is the nominal LTI model, so
        # its RK4 substeps must track scipy's exact zero-order-hold solution;
        # y_ref[k + 1] is the output after input k was held for one period
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(23)
        u = rng.uniform(-1.0, 1.0, 2000)
        T = 1e-3
        tf = nominal_lsea_tf()
        _, y_ref, _ = signal.lsim((tf.num, tf.den), np.append(u, 0.0),
                                  np.arange(u.size + 1) * T, interp=False)
        p = LseaPlant()
        got = np.array([p.advance(u_k, 1.0 / plant_hz, plant_hz // 1000) for u_k in u])
        assert np.max(np.abs(got - y_ref[1:])) <= bound * np.max(np.abs(y_ref))

    def test_linear_limit_matches_analytic_response(self):
        # open-loop chirp through the clean plant vs the analytic bode
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.5,
                                    f_start=0.05, f_end=35.0),
            duration_s=120.0, plant=PlantConfig(), gamma=0.0,
            controller_hz=1000, reference_hz=200, plant_hz=1000)
        log = run_scenario(sc)
        grid = log_grid(0.2, 30.0, 20)
        emp = empirical_frf(TimeSeries(1e-3, log.i_m), TimeSeries(1e-3, log.f_o), grid)
        ref = freq_response(nominal_lsea_tf(), grid)
        assert np.max(np.abs(emp.magnitude_db - ref.magnitude_db)) < 0.2


# the (dt, n) of the shipped held calls: pendulum-chirp's half ticks,
# dob-verify's ticks
SHIPPED_HELD_STEPS = [(1 / 40000, 20), (1 / 5000, 5)]


def probe_stepper(plant, dt, n):
    """``plant.stepper(dt, n)`` over a NaN lifted map and the plant's own bound.

    A held call that the bound decides is lifted, so it returns NaN and
    leaves a NaN state; every other held call is stepped.  Reload the state
    with ``set_state`` after each call.
    """
    assert (dt, n) not in plant._steppers
    bound = plant._lifted(dt, n)[1]
    plant._lifted = lambda *_: ((math.nan,) * 12, bound)
    try:
        return plant.stepper(dt, n)
    finally:
        del plant._lifted


def probe(plant, advance, state, u, dt, n):
    """Whether the bound decides the held call ``advance(u)`` from ``state``.

    ``advance`` is a ``probe_stepper``: a call the bound decides returns
    NaN where the stepped oracle does not, and a call it leaves undecided
    is the stepped oracle, bit for bit (asserted).
    """
    plant.set_state(state)
    got = advance(u)
    want = plant._cy * stepped_call(plant, state, u, dt, n)[0]
    if math.isnan(want):  # the stepped call overflowed: the probe cannot tell
        return False
    assert math.isnan(got) or bits(got) == bits(want)
    return math.isnan(got)


def rows_agree(plant, rows, state, u):
    """Whether each of ``rows`` (``oracles.rate_rows``), evaluated as the
    rows of a held call, gives the Karnopp answer of substep 0 on ``state``."""
    cy, vdead = plant._cy, plant.stiction_velocity_deadband
    x0, x1, x2 = state
    zeroed = abs(cy * x1) < vdead
    ue = 0.0 if zeroed else u
    return all((abs(cy * (r0 * x0 + r1 * x1 + r2 * x2 + s * ue)) < vdead) is zeroed
               for r0, r1, r2, s in rows)


def _float(k):
    return struct.unpack("<d", struct.pack("<q", k))[0]


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def bound_edges(plant, x0, x2, u, sign, dt, n, window=8):
    """Probe held calls around each edge of the bound's two regions in x1.

    The bound decides alone, as zeroed, for |x1| below one edge and, as
    held, above another (up to overflow).  Each edge is found by bisection
    on the bit pattern of |x1|, against the stepper's own decision; the
    calls within ``window`` ulps of it are probed.  Returns ``(probes,
    windows)``: ``(decided, agreed)`` for every call made, ``agreed`` by
    ``oracles.rate_rows``, and per edge found the ``decided`` of each call
    in its window.  Asserts only what ``probe`` asserts.
    """
    advance, rows = probe_stepper(plant, dt, n), rate_rows(plant, dt, n)
    cy, vdead = plant._cy, plant.stiction_velocity_deadband
    probes, windows = [], []

    def decides(k, zeroed):
        state = (x0, sign * _float(k), x2)
        decided = probe(plant, advance, state, u, dt, n)
        probes.append((decided, rows_agree(plant, rows, state, u)))
        return decided and (abs(cy * state[1]) < vdead) is zeroed

    def edge(lo, hi, zeroed):
        # decides(lo) != decides(hi): narrow to one ulp, then probe around
        side = decides(lo, zeroed)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if decides(mid, zeroed) is side:
                lo = mid
            else:
                hi = mid
        start = len(probes)
        for k in range(max(0, lo - window), lo + window + 2):
            decides(k, zeroed)
        windows.append([decided for decided, _ in probes[start:]])

    top = _bits(1.7976931348623157e308)
    if decides(0, True):
        edge(0, top, True)
    k = _bits(max(vdead / abs(cy), 5e-324))
    while k < top and not decides(k, False):
        k = min(top, k + (1 << 52))  # one binade up
    if k < top:
        edge(0, k, False)
    return probes, windows


class TestLiftedTick:
    """A held tick on whose substeps the Karnopp test agrees is one cached
    linear map."""

    @pytest.mark.parametrize("dt, n", [(1 / 5000, 5), (1 / 20000, 20), (1 / 40000, 5)])
    def test_equals_substep_composition(self, dt, n):
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS)
        lifted, bound = p._lifted(dt, n)
        power, gain = substep_composition(p._coeffs(dt), n)
        got = np.array(lifted)
        assert np.max(np.abs(got[:9] - power.ravel())) <= 1e-13 * np.max(np.abs(power))
        assert np.max(np.abs(got[9:] - gain)) <= 1e-13 * np.max(np.abs(gain))
        # the bound is the largest deviation from (0, 1, 0, 0) of the rate
        # row of the j-substep composition, j < n ...
        parts = [substep_composition(p._coeffs(dt), j) for j in range(1, n)]
        want = np.max([np.abs(np.append(power[1], gain[1]) - (0.0, 1.0, 0.0, 0.0))
                       for power, gain in parts], axis=0)
        scale = np.max([np.abs(power) for power, _ in parts])
        assert np.max(np.abs(np.array(bound[:3]) - want[:3])) <= 1e-13 * scale
        assert abs(bound[3] - want[3]) <= 1e-13 * np.max([np.abs(g) for _, g in parts])
        # ... and, bit for bit, that of the rows the soundness tests evaluate
        rows = rate_rows(p, dt, n)
        assert len(rows) == n - 1
        assert bound == tuple(max(abs(row[i] - e) for row in rows)
                              for i, e in enumerate((0.0, 1.0, 0.0, 0.0)))

    @pytest.mark.parametrize("dt", [1e-3, 1 / 5000, 1 / 20000, 1 / 40000])
    def test_one_substep_map_is_the_substep_map(self, dt):
        # a one-substep stepper applies _lifted(dt, 1) where the substep
        # loop applies _coeffs(dt): the two agree entry for entry; with no
        # substep inside the call, the bound is zero
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, gain_factor=0.9)
        assert p._lifted(dt, 1) == (p._coeffs(dt), (0.0, 0.0, 0.0, 0.0))
        assert rate_rows(p, dt, 1) == ()

    @pytest.mark.parametrize("dt, n, bound", [
        (1 / 5000, 5, 1e-8), (1 / 20000, 20, 4e-11), (1 / 40000, 5, 3e-12)])
    def test_matches_exact_zero_order_hold(self, dt, n, bound):
        # RK4's error falls as dt^4; each bound is ~3x the measured 3.5e-9,
        # 1.3e-11 and 8.9e-13 relative
        pytest.importorskip("scipy")
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS)
        phi, gamma = zoh_map(p.tf.den, n * dt)
        got = np.array(p._lifted(dt, n)[0])
        assert np.max(np.abs(got[:9] - phi.ravel())) <= bound * np.max(np.abs(phi))
        assert np.max(np.abs(got[9:] - gamma)) <= bound * np.max(np.abs(gamma))

    @pytest.mark.parametrize("n", [1, 5, 20])
    @pytest.mark.parametrize("kwargs, lo, hi, exact", [
        (dict(stiction_breakaway=0.15), 0.0, 0.149, False),
        (dict(stiction_breakaway=0.15, backlash=0.01), 0.0, 1.0, True),
        (dict(stiction_breakaway=0.15), 0.15, 1.0, False),
        (dict(stiction_breakaway=0.15), 0.0, 1.0, False),
        (dict(), 0.0, 1.0, False),
    ], ids=["stuck", "backlash", "above-breakaway", "both-sides", "no-stiction"])
    def test_tick_matches_single_substeps(self, n, kwargs, lo, hi, exact):
        # |u| is drawn from [lo, hi] with a random sign; a tick that steps
        # its substeps (backlash) or has one (n = 1) must match bit for bit,
        # a lifted one (stiction held or not) to rounding
        dt = 1 / 20000
        rng = np.random.default_rng(n)
        inputs = rng.uniform(lo, hi, 400) * rng.choice((-1.0, 1.0), 400)
        tick = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        single = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        # start in motion, so that the rate test lets a stuck input act
        for p in (tick, single):
            for _ in range(200):
                p.advance(1.0, dt, 1)
        got, want = [], []
        for u in inputs:
            got.append(tick.advance(u, dt, n))
            for _ in range(n):
                f = single.advance(u, dt, 1)
            want.append(f)
        got, want = np.array(got), np.array(want)
        if exact or n == 1:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [5, 20])
    @pytest.mark.parametrize("deadband, zeroed", [(1e-3, False), (1e3, True)],
                             ids=["held", "zeroed"])
    def test_held_call_that_agrees_is_the_lifted_oracle(self, n, deadband, zeroed):
        # from a moving state, a rate outside (held) or inside (zeroed) the
        # dead-band mostly gives one answer on every substep; a call is the
        # written-out lifted map, bit for bit, only where it does (a held
        # rate that passes through zero flips mid-call), and otherwise the
        # stepped one
        dt = 1 / 20000
        rng = np.random.default_rng(n)
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, stiction_breakaway=0.15,
                      stiction_velocity_deadband=deadband)
        for _ in range(200):
            p.advance(1.0, dt, 1)
        lifted = differs = 0
        for u in rng.uniform(-0.149, 0.149, 100):
            state = p.state()
            agrees, want = held_call_reference(p, state, u, dt, n)
            stepped = stepped_call(p, state, u, dt, n)
            f = p.advance(u, dt, n)
            got = p.state()
            assert f == p._cy * got[0]
            assert got in ((want, stepped) if agrees else (stepped,))
            assert (abs(p._cy * state[1]) < deadband) is zeroed
            lifted += agrees and got == want
            differs += want != stepped
        assert lifted >= 95
        assert differs >= 50  # the oracle tells a lifted call from a stepped one

    @pytest.mark.parametrize("n", [5, 20])
    def test_held_call_crossing_the_deadband_is_single_substeps(self, n):
        # with a stuck input the force rate leaves the dead-band, later
        # re-enters it; each call whose test flips mid-call equals n
        # one-substep calls of a twin, bit for bit (the calls between them
        # are one substep each, so the twin stays in step)
        dt, u = 1 / 20000, 0.1
        kwargs = dict(den_factors=SHIPPED_DEN_FACTORS, stiction_breakaway=0.15,
                      stiction_velocity_deadband=0.8)
        call, single = LseaPlant(**kwargs), LseaPlant(**kwargs)
        for p in (call, single):
            for _ in range(200):
                p.advance(1.0, dt, 1)
        crossings = set()
        for _ in range(1000):
            state = call.state()
            agrees, want = held_call_reference(call, state, u, dt, n)
            if agrees:
                assert call.advance(u, dt, 1) == single.advance(u, dt, 1)
                continue
            got = call.advance(u, dt, n)
            for _ in range(n):
                f = single.advance(u, dt, 1)
            assert got == f
            assert call.state() == single.state() == want
            crossings.add(abs(call._cy * state[1]) < 0.8)
        assert crossings == {True, False}  # left the band, and entered it

    @pytest.mark.parametrize("experiment, dob", [
        ("pendulum-chirp", "on"), ("pendulum-chirp", "off"), ("dob-verify", None)])
    def test_shipped_held_calls_are_lifted(self, tmp_path, monkeypatch, experiment, dob):
        # replay each shipped scenario's own i_m through its plant: every
        # call is the lifted oracle or the stepped one, every unheld call
        # the lifted one, and nearly every held call on which the two
        # differ the lifted one (0.9907-0.9980 measured)
        runs = []

        def run(sc):
            log = run_scenario(sc)
            runs.append((sc, log.i_m.tolist()))
            return log

        monkeypatch.setattr(experiments, "run_scenario", run)
        cfg = load_config(experiment)
        if dob is None:
            experiments.dob_verify(cfg, tmp_path)
        else:
            experiments.pendulum_chirp(cfg, tmp_path, dob=dob)
        for sc, i_m in runs:
            plant = sc.plant.build()
            n_sub = sc.plant_hz // sc.controller_hz
            if sc.pendulum is None:  # one call a tick, or two half-tick calls
                dt, n, calls = 1.0 / sc.plant_hz, n_sub, 1
            else:
                dt, n, calls = 0.5 / sc.plant_hz, n_sub, 2
            advance, lifted_call = plant.stepper(dt, n), lifted_oracle(plant, dt, n)
            lifted = stepped = 0
            for u in i_m:
                for _ in range(calls):
                    state = plant.state()
                    advance(u)
                    got = plant.state()
                    want = lifted_call(state, u)
                    if abs(u) >= plant.stiction_breakaway:
                        assert got == want
                        continue
                    other = stepped_call(plant, state, u, dt, n)
                    if want != other:
                        lifted += got == want
                        stepped += got != want
                        assert got in (want, other)
            assert lifted + stepped >= 0.04 * calls * len(i_m)
            assert lifted >= 0.99 * (lifted + stepped)

    @pytest.mark.parametrize("kwargs, lo, hi, single", [
        (dict(stiction_breakaway=0.15), 0.0, 0.149, False),
        (dict(stiction_breakaway=0.15, backlash=0.01), 0.0, 1.0, True),
        (dict(stiction_breakaway=0.15), 0.0, 1.0, False),
        (dict(), 0.0, 1.0, False),
    ], ids=["stuck", "backlash", "both-sides", "no-stiction"])
    def test_interleaved_steppers_share_one_state(self, kwargs, lo, hi, single):
        # calls at mixed (dt, n), each through advance or a stepper held
        # since the start, step one state: a twin plant driven by advance
        # alone (one-substep calls where every substep is stepped, else
        # calls at the same (dt, n)) agrees bit for bit after every call
        grid = [(1 / 20000, 1), (1 / 20000, 5), (1 / 40000, 10), (1 / 5000, 2)]
        rng = np.random.default_rng(29)
        mixed = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        twin = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        held = {key: mixed.stepper(*key) for key in grid}
        assert all(mixed.stepper(*key) is held[key] for key in grid)
        for p in (mixed, twin):
            for _ in range(200):
                p.advance(1.0, 1 / 20000, 1)
        for _ in range(1500):
            dt, n = grid[rng.integers(len(grid))]
            u = float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))
            got = held[(dt, n)](u) if rng.random() < 0.5 else mixed.advance(u, dt, n)
            if single:
                for _ in range(n):
                    want = twin.advance(u, dt, 1)
            else:
                want = twin.advance(u, dt, n)
            assert got == want
            assert mixed.state() == twin.state()

    @pytest.mark.parametrize("dt, n", SHIPPED_HELD_STEPS)
    @pytest.mark.parametrize("gain, vdead, x0, x2, u", [
        (1.0, 500.0, 0.0, 0.0, 0.0),  # pendulum-chirp's dead-band, the rate alone
        (1.0, 500.0, 0.05, -5.0, 100.0),
        (1.0, 500.0, -0.02, 8.0, -149.0),
        (1.0, 0.5, 0.0, 0.0, 0.1),  # dob-verify's dead-band
        (1.0, 0.5, 1e-4, -0.01, -0.14),
        (1.0, 0.5, -2e-4, 0.005, 0.05),
        (1.0, 1e-310, 1e-320, -1e-318, 5e-324),  # subnormal
        (1.0, 1e300, 1e290, -1e296, 1e299),  # huge
        # a subnormal rate and a c_y that is not an integer, where the
        # rounding of each product to the least subnormal is not relative
        (1.766632777287572, 1.520308144e-315, 0.0, 0.0, 0.0),
        (1.766632777287572, 9.20167325e-316, 1.816e-320, -1.192e-320, 0.0),
    ])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bound_decides_only_where_every_row_agrees(self, dt, n, gain, vdead, x0, x2, u,
                                                       sign):
        # states at each edge of the bound's two regions, where its margin
        # over the dead-band is one ulp: wherever the bound decides alone,
        # every row gives substep 0's answer; both edges exist, and each
        # window holds calls the bound decides and calls it leaves to the rows
        plant = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, gain_factor=gain,
                          stiction_breakaway=1e308, stiction_velocity_deadband=vdead)
        probes, windows = bound_edges(plant, x0, x2, u, sign, dt, n)
        assert all(agreed for decided, agreed in probes if decided)
        assert len(windows) == 2
        assert all(set(window) == {True, False} for window in windows)

    @pytest.mark.parametrize("dt, n", SHIPPED_HELD_STEPS)
    def test_small_gain_plant_steps_every_held_call(self, dt, n):
        # with |c_y| < 1, states near the float maximum make a rate
        # overflow to inf while v + b stays below a huge dead-band, so the
        # bound decides no held call of such a plant: each is stepped, also
        # from the states at which a plant with |c_y| >= 1 lifts it
        kwargs = dict(den_factors=SHIPPED_DEN_FACTORS, stiction_breakaway=1e308,
                      stiction_velocity_deadband=1e308)
        moderate = [(0.0, 0.0, 0.0), (1.0, -2.0, 3.0), (-1e100, 1e100, -1e99)]
        for gain, lifts in ((1e-5, False), (1.0, True)):
            plant = LseaPlant(gain_factor=gain, **kwargs)
            advance = probe_stepper(plant, dt, n)
            decided = [probe(plant, advance, state, 0.0, dt, n) for state in moderate]
            assert decided == [lifts] * len(moderate)
        # the stepped call overflows to NaN here, so compare whole states
        plant = LseaPlant(gain_factor=1e-5, **kwargs)
        for x0 in (1.79e308, -1.79e308, 1e308, -1e308):
            for x1 in (1.7976931348623157e308, -1.7976931348623157e308):
                state = (x0, x1, 0.0)
                plant.set_state(state)
                plant.advance(0.0, dt, n)
                want = stepped_call(plant, state, 0.0, dt, n)
                assert np.array_equal(plant.state(), want, equal_nan=True)

    @given(dt_n=st.sampled_from(SHIPPED_HELD_STEPS),
           gain=st.floats(0.5, 2.0),
           vdead=st.floats(5e-324, 1e300),
           state=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
           u=st.floats(-1e307, 1e307),
           sign=st.sampled_from([1.0, -1.0]))
    def test_bound_is_sound_at_its_edges(self, dt_n, gain, vdead, state, u, sign):
        # states whose rate lies within a few ulps of vdead -+ the bound,
        # at any magnitude from subnormal to huge: wherever the bound
        # decides alone, every row gives substep 0's answer
        plant = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, gain_factor=gain,
                          stiction_breakaway=1e308, stiction_velocity_deadband=vdead)
        probes, _ = bound_edges(plant, state[0], state[1], u, sign, *dt_n, window=4)
        assert all(agreed for decided, agreed in probes if decided)

    @given(dt_n=st.sampled_from([(1 / 5000, 5), (1 / 1000, 1)]),
           x0=st.floats(-1e3, 1e3), x2=st.floats(-1e6, 1e6), u=st.floats(-0.1499, 0.1499),
           spread=st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6), st.floats(-0.5, 0.5)),
           ulps=st.lists(st.integers(-64, 64), min_size=1, max_size=8),
           sign=st.sampled_from([1.0, -1.0]),
           margin=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    @example(dt_n=(1 / 1000, 1), x0=0.0, x2=0.0, u=0.1, spread=0.0, ulps=list(range(-8, 9)),
             sign=1.0, margin=0.0)
    def test_bulk_decision_is_the_stepper_bound(self, dt_n, x0, x2, u, spread, ulps, sign,
                                                margin):
        # held calls of dob-verify's plant (five substeps a call, and one,
        # where the bound is all zeros) whose force rate lies at and near
        # the edge above which the bound keeps the input: _keeps_input,
        # on all of them at once, keeps no call whose stepped substeps zero
        # an input; with no margin it is the stepper's own decision, and
        # with one it differs from it only within that margin of the edge
        dt, n = dt_n
        plant = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, stiction_breakaway=0.15)
        bound = acy, vdead, floor, d0, d1, d2, ds = plant.held_bound(dt, n)
        assert acy >= 1.0 and (n > 1 or bound[3:] == (0.0,) * 4)
        # where v - b = vdead, up to the bound's widening
        edge = (vdead + acy * (d0 * abs(x0) + d2 * abs(x2) + ds * abs(u))) / (acy * (1.0 - d1))
        x1 = [sign * _float(max(0, _bits(edge * (1.0 + spread)) + k)) for k in ulps]
        x = np.array([[x0] * len(x1), x1, [x2] * len(x1)])
        kept = _keeps_input(bound, margin, x, np.full(len(x1), u)).tolist()
        advance = probe_stepper(plant, dt, n)
        for state, bulk in zip(x.T.tolist(), kept):
            _, inputs = stepped_substeps(plant, state, u, dt, n)
            assert not bulk or all(e == u for e in inputs)
            v = abs(plant._cy * state[1])
            lifted = probe(plant, advance, state, u, dt, n)
            assert bulk <= (lifted and v >= vdead)
            if margin == 0.0:
                assert bulk == (lifted and v >= vdead)
            b = acy * (d0 * abs(state[0]) + d1 * abs(state[1]) + d2 * abs(state[2])
                       + ds * abs(u))
            b += 1e-9 * (v + b) + floor
            if v - b >= vdead + 2.0 * margin:
                assert bulk


def link_mode_plant(order):
    """The shipped plant (order 3), or, with ``tf`` replaced on the
    instance, the shipped plant times a lightly damped link mode
    w^2 / (s^2 + 2 zeta w s + w^2), w = 2 pi 60 rad/s and zeta = 0.05
    (order 5)."""
    plant = LseaPlant(den_factors=SHIPPED_DEN_FACTORS)
    if order == 5:
        w = 2.0 * math.pi * 60.0
        plant.tf = ContinuousTransferFunction(
            plant.tf.num * (w * w), np.convolve(plant.tf.den, [1.0, 2.0 * 0.05 * w, w * w]))
    return plant


class TestOrderGenericBuild:
    """The build-time maps (``_coeffs``, ``_lifted``, ``realization`` and
    ``held_bound``) come from ``tf`` of whatever order it has."""

    @pytest.mark.parametrize("order, dt, n, bound", [
        (3, 1 / 5000, 5, 1e-8), (3, 1 / 20000, 20, 4e-11), (3, 1 / 40000, 5, 3e-12),
        (5, 1 / 5000, 5, 6e-7), (5, 1 / 20000, 20, 2e-9), (5, 1 / 40000, 5, 1.5e-10)])
    def test_maps_match_exact_zero_order_hold(self, order, dt, n, bound):
        # RK4's error falls as dt^4; each order-3 bound is TestLiftedTick's,
        # each order-5 one ~3x the measured 2.2e-7, 8.4e-10 and 5.3e-11
        # relative of one substep (the n-substep map's: 1.8e-7, 6.4e-10 and
        # 5.2e-11)
        pytest.importorskip("scipy")
        p = link_mode_plant(order)
        assert p.tf.order == order
        lifted = p._lifted(dt, n)[0]
        for got, T in ((p._coeffs(dt), dt), (lifted, n * dt)):
            assert len(got) == order * order + order
            phi, gamma = zoh_map(p.tf.den, T)
            got = np.array(got)
            assert np.max(np.abs(got[:order * order] - phi.ravel())) <= bound * np.max(np.abs(phi))
            assert np.max(np.abs(got[order * order:] - gamma)) <= bound * np.max(np.abs(gamma))
        P, G, cy = p.realization(dt, n)
        assert [v for row in P for v in row] + G == list(lifted)
        assert [len(row) for row in P] == [order] * order
        assert cy == float(p.tf.num[-1] / p.tf.den[0])

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("dt, n", [(1 / 5000, 5), (1 / 20000, 20), (1 / 40000, 5)])
    def test_lifted_and_bound_equal_substep_composition(self, order, dt, n):
        p = link_mode_plant(order)
        lifted, bound = p._lifted(dt, n)
        power, gain = substep_composition(p._coeffs(dt), n)
        got = np.array(lifted)
        assert np.max(np.abs(got[:order * order] - power.ravel())) <= 1e-13 * np.max(np.abs(power))
        assert np.max(np.abs(got[order * order:] - gain)) <= 1e-13 * np.max(np.abs(gain))
        # the bound is the largest deviation from (0, 1, 0, ..., 0) of the
        # rate row of the j-substep composition, j < n, one per state and
        # one for the input
        parts = [substep_composition(p._coeffs(dt), j) for j in range(1, n)]
        unit = np.eye(order + 1)[1]
        want = np.max([np.abs(np.append(power[1], gain[1]) - unit) for power, gain in parts],
                      axis=0)
        scale = np.max([np.abs(power) for power, _ in parts])
        assert len(bound) == order + 1
        assert np.max(np.abs(np.array(bound[:-1]) - want[:-1])) <= 1e-13 * scale
        assert abs(bound[-1] - want[-1]) <= 1e-13 * np.max([np.abs(g) for _, g in parts])
        acy = abs(p._cy)
        assert p.held_bound(dt, n) == (acy, p.stiction_velocity_deadband,
                                       math.ldexp(acy + 1.0, -1070), *bound)
        # one substep is the substep map itself, with a zero bound
        assert p._lifted(dt, 1) == (p._coeffs(dt), (0.0,) * (order + 1))


class TestAdvancePendulum:
    """``run_scenario``'s pendulum path: two plant calls, one pendulum RK4 step."""

    @pytest.mark.parametrize("plant", [
        PlantConfig(den_factors=(1.0, 1.2, 0.8, 1.25), stiction_breakaway=150.0,
                    stiction_velocity_deadband=500.0),
        PlantConfig(den_factors=(1.0, 1.2, 0.8, 1.25), stiction_breakaway=150.0,
                    stiction_velocity_deadband=500.0, backlash=0.5),
        PlantConfig(den_factors=(1.0, 1.2, 0.8, 1.25)),
    ], ids=["stiction", "backlash", "default"])
    def test_bit_identical_to_one_substep_composition(self, plant):
        # replay the logged commands through the written-out controller step
        sc = short_pendulum_scenario(duration=0.5)
        sc.plant = plant
        log = run_scenario(sc)
        ref_plant, pend = plant.build(), sc.pendulum
        state = (0.0, pend.theta0, pend.theta_dot0)
        for k, i_m in enumerate(log.i_m):
            assert (log.f_o[k], log.theta[k], log.theta_dot[k]) == state
            state = pendulum_tick_reference(ref_plant, pend, i_m, *state, 1.0 / sc.plant_hz,
                                            sc.plant_hz // sc.controller_hz,
                                            1.0 / sc.controller_hz)

    def test_matches_solve_ivp_on_joint_ode(self):
        pytest.importorskip("scipy")
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=100.0,
                                    f_start=0.5, f_end=40.0),
            duration_s=0.2, gamma=0.0, pendulum=PendulumConfig(damping=0.05))
        log = run_scenario(sc)
        # row k + 1 holds the state after input k was held for one period
        want = coupled_ode_reference(208.8, (0.01, 1.13, 23.04, 987.0), sc.pendulum,
                                     log.i_m[:-1], 1e-3)
        for col, ref in zip((log.f_o, log.theta, log.theta_dot), want):
            assert np.max(np.abs(col[1:] - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_rejects_non_positive_substep(self):
        with pytest.raises(ValueError):
            LseaPlant().advance(1.0, 0.0, 1)


class TestBacklashPlay:
    def test_holds_inside_gap_and_follows_outside(self):
        play = BacklashPlay(0.2)
        assert play.step(0.05) == 0.0      # inside the gap
        assert play.step(0.3) == pytest.approx(0.2)
        assert play.step(0.25) == pytest.approx(0.2)  # reversal: holds
        assert play.step(0.05) == pytest.approx(0.15)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_negative_or_non_finite_width(self, width):
        # a NaN or infinite width used to return 0.0 for every input
        with pytest.raises(ValueError, match="width must be non-negative and finite"):
            BacklashPlay(width)

    def test_zero_width_is_identity(self):
        play = BacklashPlay(0.0)
        for v in (0.0, 0.1, -0.4):
            assert play.step(v) == v

    def test_plant_output_backlash(self):
        # the transmitted output must equal the textbook play recursion
        # applied to the no-backlash trajectory, substep by substep
        w = 0.01
        p = LseaPlant(backlash=w)
        ref = LseaPlant()
        out = 0.0
        for k in range(6000):
            u = np.sin(2 * np.pi * 0.7 * k * 1e-3)
            f = p.advance(u, 1e-3, 1)
            f_lin = ref.advance(u, 1e-3, 1)
            if f_lin - out > w / 2:
                out = f_lin - w / 2
            elif out - f_lin > w / 2:
                out = f_lin + w / 2
            assert f == out


def pendulum_energy(p, theta, theta_dot):
    """Total mechanical energy (datum at the hanging equilibrium)."""
    return (0.5 * p.m * p.l1**2 * theta_dot**2
            + p.m * p.g * p.l1 * (1.0 - math.cos(theta)))


def pendulum_rk4(p, dt):
    """The scenario loop's RK4 step of ``dt`` for pendulum ``p``."""
    return _pendulum_stepper(dt, p.m, p.l1, p.l2, p.g, p.damping)


class TestPendulum:
    def test_rest_equilibrium(self):
        assert pendulum_rk4(PendulumConfig(), 1e-3)(0.0, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_static_hold_force_is_equilibrium(self):
        # f = m g l1 sin(0.1) / l2 holds the pendulum exactly at 0.1 rad
        p = PendulumConfig()
        f_hold = p.m * p.g * p.l1 * math.sin(0.1) / p.l2
        assert f_hold == pytest.approx(46.17, abs=0.01)
        rk4 = pendulum_rk4(p, 5e-4)
        th, w = 0.1, 0.0
        for _ in range(2000):
            th, w = rk4(th, w, f_hold, f_hold, f_hold)
        assert th == pytest.approx(0.1, abs=1e-12)
        assert abs(w) < 1e-12

    def test_natural_frequency_small_angle(self):
        f_n = free_oscillation_frequency(theta0=0.1)
        assert f_n == pytest.approx(0.87, abs=0.01)
        assert f_n == pytest.approx(math.sqrt(9.81 / 0.33) / (2 * math.pi), abs=0.002)

    def test_energy_conservation_undamped(self):
        p = PendulumConfig()
        th, w = 0.5, 0.0
        e0 = pendulum_energy(p, th, w)
        rk4 = pendulum_rk4(p, 5e-5)
        for _ in range(int(60.0 / 5e-5)):
            th, w = rk4(th, w, 0.0, 0.0, 0.0)
        assert abs(pendulum_energy(p, th, w) - e0) / e0 < 1e-5

    def test_damping_decays_energy(self):
        p = PendulumConfig(damping=0.5)
        th, w = 0.5, 0.0
        e0 = pendulum_energy(p, th, w)
        rk4 = pendulum_rk4(p, 1e-3)
        for _ in range(20000):
            th, w = rk4(th, w, 0.0, 0.0, 0.0)
        assert pendulum_energy(p, th, w) < 0.1 * e0

    def test_validation(self):
        for bad in (dict(m=0.0), dict(l1=0.0), dict(l2=-0.07)):
            with pytest.raises(ValueError):
                PendulumConfig(**bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["m", "l1", "l2", "g", "damping", "theta0",
                                      "theta_dot0"])
    def test_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PendulumConfig(**{name: value})


def short_pendulum_scenario(plant_hz=20000, duration=1.5):
    return SimScenario(
        reference=ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427),
        duration_s=duration,
        plant=PlantConfig(),
        pendulum=PendulumConfig(damping=0.05),
        pid=PidConfig(2.0, 4.0, 0.0, 3.5e-3),
        impedance=ImpedanceConfig(40.0, 5.0),
        k_ff=987.0 / 208.8,
        gamma=1.0, plant_hz=plant_hz)


# the float fields a Python caller sets on a scenario, besides the plant's
# and the pendulum's (TestLseaPlant, TestPendulum)
_SCENARIO_NUMBERS = ("k_ff", "omega_c", "gamma", "estimate_backlash_m")
_REFERENCE_NUMBERS = ("amplitude", "f_start", "f_end", "omega_o", "step_value", "step_time")
_PID_NUMBERS = ("k_p", "k_i", "k_d", "lam")
_IMPEDANCE_NUMBERS = ("k", "b")
NON_FINITE_FIELDS = _SCENARIO_NUMBERS + _REFERENCE_NUMBERS + _PID_NUMBERS + _IMPEDANCE_NUMBERS
# the scenario's rates at their defaults, each of which must be an Integral
_RATES = {"controller_hz": 1000, "reference_hz": 200, "plant_hz": 20000}


def non_finite_scenario(kind, values):
    """A valid 0.05 s scenario of reference ``kind`` with ``values`` set over it."""
    def pick(names):
        return {name: values[name] for name in names if name in values}

    reference = dict(amplitude=0.5, step_value=20.0, step_time=0.01)
    if kind == "current_chirp":
        reference.update(f_start=1.0, f_end=50.0)
    elif kind == "position_chirp":
        reference.update(amplitude=0.1, omega_o=0.427)
    return SimScenario(
        reference=ReferenceSpec(kind=kind, **{**reference, **pick(_REFERENCE_NUMBERS)}),
        duration_s=0.05,
        pendulum=PendulumConfig(damping=0.05) if kind == "position_chirp" else None,
        pid=PidConfig(**{**dict(k_p=2.0, k_i=4.0, k_d=0.1, lam=3.5e-3), **pick(_PID_NUMBERS)}),
        impedance=ImpedanceConfig(**{**dict(k=40.0, b=5.0), **pick(_IMPEDANCE_NUMBERS)}),
        **{**dict(k_ff=3.2e-3, omega_c=2.0 * math.pi * 25.0, gamma=0.8,
                  estimate_backlash_m=1e-4), **pick(_SCENARIO_NUMBERS + tuple(_RATES))})


class TestScenario:
    def test_determinism_bit_identical(self):
        log1 = run_scenario(short_pendulum_scenario(duration=0.5))
        log2 = run_scenario(short_pendulum_scenario(duration=0.5))
        for name in LOG_COLUMNS:
            assert np.array_equal(log1.column(name), log2.column(name))

    def test_zero_duration_empty_log(self, tmp_path):
        for pendulum in (None, PendulumConfig()):
            sc = SimScenario(reference=ReferenceSpec(step_value=5.0), duration_s=0.0,
                             pendulum=pendulum)
            log = run_scenario(sc)
            assert len(log) == 0
            for name in LOG_COLUMNS:
                col = log.column(name)
                assert col.shape == (0,) and col.dtype == np.float64, name
            path = tmp_path / "empty.csv"
            log.to_csv(path)
            assert path.read_text() == ",".join(LOG_COLUMNS) + "\n"

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_chirp_shorter_than_half_a_tick_logs_nothing(self, gamma):
        # 0.4 ms at 1 kHz rounds to no tick: the block path scans an empty
        # record, with no segment start to take a peak from
        sc = SimScenario(reference=CHIRP, duration_s=0.0004, gamma=gamma,
                         plant=PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        assert len(run_scenario(sc)) == 0

    def test_invalid_rate_ratio_rejected(self):
        sc = SimScenario(reference=ReferenceSpec(), duration_s=0.1,
                         controller_hz=1000, plant_hz=1500)
        with pytest.raises(ValueError):
            run_scenario(sc)
        sc = SimScenario(reference=ReferenceSpec(), duration_s=0.1,
                         controller_hz=1000, reference_hz=300)
        with pytest.raises(ValueError):
            run_scenario(sc)

    @pytest.mark.parametrize("name, value", [
        ("plant_hz", 20000.0), ("controller_hz", 1000.0), ("reference_hz", 200.0),
        ("plant_hz", "20000"), ("duration_s", math.nan), ("duration_s", math.inf),
        ("duration_s", -0.1), ("estimate_backlash_m", -0.01)])
    def test_rejects_mistyped_rates_and_non_finite_duration(self, name, value):
        # an integral float rate used to validate, then fail inside the
        # plant with an error that did not name the rate
        kwargs = dict(reference=ReferenceSpec(), duration_s=0.01, plant_hz=5000)
        sc = SimScenario(**{**kwargs, name: value})
        with pytest.raises(ValueError, match=f"^{name} must be"):
            sc.validate()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run_scenario(sc)

    @pytest.mark.parametrize("kind", ["force_step", "current_chirp", "position_chirp"])
    @pytest.mark.parametrize("gamma", [-0.2, 1.7])
    def test_rejects_gamma_outside_unit_interval(self, kind, gamma):
        # a gamma outside [0, 1] used to be clamped into it and run
        with pytest.raises(ValueError, match="gamma"):
            run_scenario(non_finite_scenario(kind, {"gamma": gamma}))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind, name", [
        *(("force_step", name) for name in ("k_ff", "omega_c", "gamma", "estimate_backlash_m",
                                            "step_value", "step_time")),
        *(("current_chirp", name) for name in ("amplitude", "f_start", "f_end")),
        ("position_chirp", "omega_o")])
    def test_rejects_non_finite_numbers(self, kind, name, value):
        # each of these used to validate and then run silently wrong, or
        # fail later with an error that did not name the field
        sc = non_finite_scenario(kind, {name: value})
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            sc.validate()
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            run_scenario(sc)

    @pytest.mark.parametrize("kind", ["force_step", "current_chirp", "position_chirp"])
    @given(bad=st.dictionaries(st.sampled_from(NON_FINITE_FIELDS),
                               st.sampled_from([math.nan, math.inf, -math.inf])),
           integral=st.sets(st.sampled_from(sorted(_RATES))))
    @example(bad={}, integral=set())
    def test_non_finite_inputs_are_named_or_run_finite(self, kind, bad, integral):
        # construction or validate names a field set non-finite, or a rate
        # drawn as an integral float; otherwise a short run is finite or
        # ends in SimulationFault
        drawn = {**bad, **{name: float(_RATES[name]) for name in integral}}
        try:
            sc = non_finite_scenario(kind, drawn)
            sc.validate()
        except ValueError as e:
            finite = re.fullmatch(r"(\w+) must be finite", str(e))
            integer = re.fullmatch(r"(\w+) must be a positive integer", str(e))
            assert ((finite and finite[1] in bad)
                    or (integer and integer[1] in integral)), (str(e), drawn)
            return
        assert not drawn
        try:
            log = run_scenario(sc)
        except SimulationFault:
            return
        assert len(log) == 50
        for name in LOG_COLUMNS:
            assert np.isfinite(log.column(name)).all(), name

    def test_numpy_integer_rates_validate(self):
        sc = SimScenario(reference=ReferenceSpec(), duration_s=0.01,
                         plant_hz=np.int64(5000), controller_hz=np.int32(1000))
        assert len(run_scenario(sc)) == 10

    def test_pendulum_runs_an_odd_substep_ratio(self):
        # five substeps a tick: two half-tick calls of five half-substeps
        sc = short_pendulum_scenario(plant_hz=5000, duration=0.5)
        log = run_scenario(sc)
        plant, pend = sc.plant.build(), sc.pendulum
        state = (0.0, pend.theta0, pend.theta_dot0)
        for k, i_m in enumerate(log.i_m.tolist()):
            assert (log.f_o[k], log.theta[k], log.theta_dot[k]) == state
            state = pendulum_tick_reference(plant, pend, i_m, *state, 1.0 / sc.plant_hz,
                                            sc.plant_hz // sc.controller_hz,
                                            1.0 / sc.controller_hz)

    def test_chirp_nyquist_guard(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=0.1, f_end=600.0),
            duration_s=1.0)
        with pytest.raises(ValueError):
            run_scenario(sc)

    def test_chirp_rejects_negative_frequencies(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=-0.1, f_end=-10.0),
            duration_s=2.0)
        with pytest.raises(ValueError):
            run_scenario(sc)

    def test_nyquist_violation_rejected(self):
        # a current chirp is generated at the controller rate, a position
        # chirp at the reference rate: each must stay below that Nyquist rate
        sc = SimScenario(
            reference=ReferenceSpec(kind="position_chirp", amplitude=1.0, omega_o=200.0),
            duration_s=10.0, pendulum=PendulumConfig(), reference_hz=1000)
        with pytest.raises(NyquistError):
            sc.validate()
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=0.1, f_end=600.0),
            duration_s=10.0)
        with pytest.raises(NyquistError):
            sc.validate()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="reference kind"):
            ReferenceSpec(kind="triangular")
        cases = [
            (ReferenceSpec(kind="current_chirp", amplitude=0.0, f_start=0.1, f_end=10.0),
             1.0, "positive amplitude"),
            (ReferenceSpec(kind="position_chirp", amplitude=0.0, omega_o=1.0),
             1.0, "positive amplitude"),
            (ReferenceSpec(kind="current_chirp", amplitude=1.0, f_start=0.1, f_end=10.0),
             0.0, "duration_s"),
            (ReferenceSpec(kind="position_chirp", amplitude=1.0, omega_o=1.0),
             0.0, "duration_s"),
            (ReferenceSpec(kind="current_chirp", amplitude=1.0, f_start=0.1),
             1.0, "f_start and f_end"),
        ]
        for reference, duration_s, match in cases:
            sc = SimScenario(reference=reference, duration_s=duration_s,
                             pendulum=PendulumConfig())
            with pytest.raises(ValueError, match=match):
                sc.validate()

    def test_current_chirp_is_exponential_only(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0, omega_o=1.0),
            duration_s=1.0)
        with pytest.raises(ValueError, match="f_start and f_end"):
            sc.validate()

    def test_current_chirp_sweep_ratio_validation(self):
        # f_end / f_start overflows, underflows, or reaches 2**1022: rejected;
        # just below 2**1022 validates
        def scenario(f_start, f_end):
            return SimScenario(
                reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                        f_start=f_start, f_end=f_end),
                duration_s=1.0)

        for f_start, f_end in [(1e-320, 15.0), (100.0, 5e-324), (400.0 / 2.0**1022, 400.0)]:
            with pytest.raises(ValueError, match="f_end / f_start"):
                scenario(f_start, f_end).validate()
        scenario(math.nextafter(400.0 / 2.0**1022, 1.0), 400.0).validate()

    def test_chirp_rejection_names_its_field(self):
        # each endpoint for its own rule, f_start first, both against
        # Nyquist before the sweep ratio, which names the smaller endpoint
        def current(f_start, f_end):
            return SimScenario(
                reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                        f_start=f_start, f_end=f_end),
                duration_s=1.0)

        def position(omega_o, pendulum=PendulumConfig()):
            return SimScenario(
                reference=ReferenceSpec(kind="position_chirp", amplitude=1.0, omega_o=omega_o),
                duration_s=10.0, pendulum=pendulum)

        cases = [
            (current(None, 10.0), ValueError, "f_start"),
            (current(0.1, -1.0), ValueError, "f_end"),
            (current(600.0, 10.0), NyquistError, "f_start"),
            (current(0.1, 600.0), NyquistError, "f_end"),
            (current(700.0, 600.0), NyquistError, "f_start"),
            (current(1e-320, 600.0), NyquistError, "f_end"),
            (current(1e-320, 15.0), ValueError, "f_start"),
            (current(100.0, 5e-324), ValueError, "f_end"),
            (current(400.0 / 2.0**1022, 400.0), ValueError, "f_start"),
            (position(None), ValueError, "omega_o"),
            (position(0.0), ValueError, "omega_o"),
            (position(200.0), NyquistError, "omega_o"),
        ]
        for sc, error, name in cases:
            with pytest.raises(ValueError) as info:
                sc.validate()
            assert (type(info.value), info.value.field) == (error, name), sc.reference
        # a rejection of anything but a chirp field names none
        for sc in (position(0.427, pendulum=None),
                   SimScenario(reference=ReferenceSpec(), duration_s=-1.0)):
            with pytest.raises(ValueError) as info:
                sc.validate()
            assert not hasattr(info.value, "field")

    def test_current_chirp_observer_nyquist_guard(self):
        # the chirp path builds its observer through the same guarded builder
        # as the force controller: a Q cutoff above Nyquist is rejected
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=0.1, f_end=10.0),
            duration_s=2.0, omega_c=2.0 * math.pi * 600.0, controller_hz=1000)
        with pytest.raises(NyquistError):
            run_scenario(sc)

    def test_two_rate_convergence(self):
        # halving the substep leaves the logged outputs essentially unchanged
        log_a = run_scenario(short_pendulum_scenario(plant_hz=10000))
        log_b = run_scenario(short_pendulum_scenario(plant_hz=20000))
        diff = np.sqrt(np.mean((log_a.f_o - log_b.f_o) ** 2))
        assert diff < 1e-6
        assert np.sqrt(np.mean((log_a.theta - log_b.theta) ** 2)) < 1e-9

    def test_csv_round_trip(self, tmp_path):
        log = run_scenario(short_pendulum_scenario(duration=0.2))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        assert path.read_text().partition("\n")[0] == ",".join(LOG_COLUMNS)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        for j, name in enumerate(LOG_COLUMNS):
            assert np.allclose(back[:, j], log.column(name), rtol=1e-8, atol=1e-12)

    def test_csv_write_is_reproducible(self, tmp_path):
        log = run_scenario(short_pendulum_scenario(duration=0.2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        log.to_csv(p1)
        run_scenario(short_pendulum_scenario(duration=0.2)).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numeric_fault_carries_time(self):
        # deliberately unstable force loop: giant proportional gain
        sc = SimScenario(
            reference=ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.0),
            duration_s=2.0,
            pid=PidConfig(1e9, 0.0, 0.0, 3.5e-3),
            plant_hz=5000)
        with pytest.raises(SimulationFault) as err:
            run_scenario(sc)
        assert 0.0 <= err.value.time <= 2.0
        assert err.value.what == "i_m"

    def test_impedance_overflow_names_desired_force(self):
        # with a stiffness near the float maximum, the pendulum's first
        # motion makes the desired force huge but finite at t = 0.001, and
        # the motion that force drives makes it overflow at t = 0.002; the
        # plant output is still finite there, so the tick names f_d
        sc = short_pendulum_scenario(duration=0.5)
        sc.impedance = ImpedanceConfig(1.7e308, 0.0)
        with pytest.raises(SimulationFault) as err:
            run_scenario(sc)
        assert err.value.what == "f_d"
        assert err.value.time == 0.002

    def test_plant_overflow_names_plant_output(self):
        # a plant gain of 1e300 keeps the output finite through tick 0 and
        # overflows it within tick 1, so the start of tick 2 reports f_o,
        # before the controller reads it
        sc = SimScenario(
            reference=ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.0),
            duration_s=0.5, plant=PlantConfig(gain_factor=1e300), plant_hz=5000)
        with pytest.raises(SimulationFault) as err:
            run_scenario(sc)
        assert err.value.what == "f_o"
        assert err.value.time == 0.002

    @pytest.mark.parametrize("theta0, theta_dot0, what, time", [
        pytest.param(0.0, 1e308, "theta", 0.001, id="1e+308-theta"),
        pytest.param(1.797e308, 1e308, "theta", 0.0, id="1.797e+308-1e+308-theta"),
        pytest.param(0.0, math.inf, "theta_dot", 0.0, id="inf-theta_dot"),
    ])
    def test_pendulum_fault_names_signal(self, theta0, theta_dot0, what, time):
        # from rest at 1e308 rad/s, tick 0's RK4 stages stay finite but its
        # angle update overflows to inf, which the start of tick 1 reports;
        # from 1.797e308 rad a stage angle overflows within tick 0, where
        # math.sin(inf) raises ValueError; PendulumConfig rejects an
        # infinite rate, so it is set after construction to reach the
        # loop's own check
        pend = PendulumConfig(theta0=theta0)
        pend.theta_dot0 = theta_dot0
        sc = SimScenario(reference=ReferenceSpec(), duration_s=0.2, pendulum=pend)
        with pytest.raises(SimulationFault) as err:
            run_scenario(sc)
        assert err.value.what == what
        assert err.value.time == time

    def test_block_log_across_block_boundaries(self):
        # with gamma = 0 the logged command is the chirp itself, and each
        # tick's output is, up to rounding, one advance of a plant driven by
        # the logged command
        n = 2 * _LOG_BLOCK_TICKS + 1
        ref = ReferenceSpec(kind="current_chirp", amplitude=1.0, f_start=0.1, f_end=10.0)
        sc = SimScenario(reference=ref, duration_s=n / 1000.0, gamma=0.0,
                         controller_hz=1000, plant_hz=5000,
                         plant=PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        log = run_scenario(sc)
        assert len(log) == n
        assert_log_layout(log, ("t", "f_o", "i_m", "d_hat"))
        T = 1.0 / sc.controller_hz
        assert np.array_equal(log.t, np.arange(n) * T)
        chirp = [exponential_chirp_point(ref.amplitude, ref.f_start, ref.f_end,
                                         sc.duration_s, t)[0] for t in log.t.tolist()]
        assert np.array_equal(log.i_m.view(np.uint64), np.array(chirp).view(np.uint64))
        plant = sc.plant.build()
        replay = np.array([0.0] + [plant.advance(i_m, 1.0 / sc.plant_hz, 5)
                                   for i_m in log.i_m[:-1].tolist()])
        assert np.max(np.abs(log.f_o - replay)) <= 1e-13 * np.max(np.abs(replay))

    def test_pendulum_block_log_across_block_boundaries(self):
        # replay every tick of a position chirp through the public blocks:
        # the reference and kinematics on reference ticks, the impedance,
        # the ForceController's stepper, then the written-out coupled step
        # (two LseaPlant.advance calls and one pendulum RK4 step)
        n = 2 * _LOG_BLOCK_TICKS + 3
        sc = short_pendulum_scenario(duration=n / 1000.0)
        sc.estimate_backlash_m = 0.002
        log = run_scenario(sc)
        assert len(log) == n
        T, n_sub = 1.0 / sc.controller_hz, sc.plant_hz // sc.controller_hz
        ref_div = sc.controller_hz // sc.reference_hz
        assert n % ref_div != 0
        ref, pend = sc.reference, sc.pendulum
        fc_step = build_force_controller(sc.pid, sc.omega_c, sc.gamma, sc.k_ff, T).stepper()
        plant, pmap = sc.plant.build(), PendulumMap(pend.l2)
        play = BacklashPlay(sc.estimate_backlash_m)
        f_o, theta, theta_dot = 0.0, pend.theta0, pend.theta_dot0
        inertia, mgl = pend.m * pend.l1 * pend.l1, pend.m * pend.g * pend.l1
        want = []
        for k in range(n):
            t = k * T
            q_hat_a_j = pend.l2 * theta
            q_hat_a_m = play.step(q_hat_a_j)
            if k % ref_div == 0:
                qj_d, qjdot_d, qjddot_d = linear_chirp_point(ref.amplitude, ref.omega_o, t)
                tau_ff = inertia * qjddot_d + mgl * math.sin(qj_d)
                q_a_d, qdot_a_d = actuator_setpoints(pmap, qj_d, qjdot_d, theta)
                f_ff = ff_force(pmap, theta, tau_ff)
            f_d = impedance_step(sc.impedance, q_a_d, qdot_a_d, q_hat_a_m,
                                 pend.l2 * theta_dot, f_ff)
            i_m, d_hat = fc_step(f_d, f_o)
            want.append((t, qj_d, q_a_d, qdot_a_d, f_d, f_o, i_m, d_hat,
                         theta, theta_dot, q_hat_a_m, q_hat_a_j))
            f_o, theta, theta_dot = pendulum_tick_reference(
                plant, pend, i_m, f_o, theta, theta_dot, 1.0 / sc.plant_hz, n_sub, T)
        got = np.stack([log.column(c) for c in LOG_COLUMNS], axis=1)
        assert np.any(log.q_hat_a_m != log.q_hat_a_j)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("reference, gamma, plant", [
        (ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.05), 1.0,
         PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15)),
        (CHIRP, 1.0, PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15)),
        (CHIRP, 1.0, PlantConfig(SHIPPED_DEN_FACTORS)),
    ], ids=["force_step", "current_chirp", "linear_chirp_gamma1"])
    def test_tick_equals_block_by_block_replay(self, monkeypatch, reference, gamma, plant):
        # the tick loop, which a force step always runs and a chirp runs
        # when the block path gives it up, is the replay bit for bit
        monkeypatch.setattr(plant_module, "block_scan", refuse_block_scan)
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        sc = SimScenario(reference=reference, duration_s=0.6, gamma=gamma,
                         controller_hz=1000, plant_hz=5000, plant=plant)
        log = run_scenario(sc)
        want = block_replay(sc)
        got = np.stack((log.i_m, log.d_hat, log.f_o), axis=1)
        assert np.any(got[:, 1] != 0.0)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("plant_hz", [1000, 5000])
    def test_linear_chirp_scan_matches_replay(self, monkeypatch, plant_hz):
        # an open-loop chirp on a linear plant is scanned by blocks: i_m is
        # the replay's bit for bit, f_o and d_hat differ in rounding only
        scans = spy_on(monkeypatch, "block_scan")
        sc = SimScenario(reference=CHIRP, duration_s=17.3, gamma=0.0, controller_hz=1000,
                         plant_hz=plant_hz, plant=PlantConfig(SHIPPED_DEN_FACTORS))
        log = run_scenario(sc)
        assert [scan is not None for scan in scans] == [True]
        # two chunks, the last ending in a partial block and a partial segment
        n = len(log)
        assert n > lti._SCAN_CHUNK and n % lti._SCAN_SEGMENT
        i_m, d_hat, f_o = block_replay(sc).T
        assert np.array_equal(bits(log.i_m), bits(i_m))
        assert np.max(np.abs(log.f_o - f_o)) <= 1e-13 * np.max(np.abs(f_o))
        assert np.max(np.abs(log.d_hat - d_hat)) <= 1e-9 * np.max(np.abs(d_hat))
        assert np.array_equal(log.t, np.arange(n) * (1.0 / sc.controller_hz))

    @pytest.mark.parametrize("plant_hz", [1000, 5000])
    def test_linear_chirp_fault_falls_back_to_tick_loop(self, monkeypatch, plant_hz):
        # an unstable plant overflows the scan, which gives up; the tick
        # loop then names the first non-finite signal at its own time
        scans = spy_on(monkeypatch, "block_scan")
        sc = SimScenario(reference=CHIRP, duration_s=1.0, gamma=0.0, controller_hz=1000,
                         plant_hz=plant_hz, plant=PlantConfig((1.0, 1.0, 1.0, 1e6)))
        want = block_replay(sc)
        assert len(want) < round(sc.duration_s * sc.controller_hz)
        assert np.all(np.isfinite(want))
        with pytest.raises(SimulationFault) as fault:
            run_scenario(sc)
        assert scans[-1] is None
        assert fault.value.what == "f_o"
        assert fault.value.time == len(want) * (1.0 / sc.controller_hz)

    @pytest.mark.parametrize("plant, scanned", [
        (PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15), True),
        (PlantConfig(SHIPPED_DEN_FACTORS, backlash=0.5), False),
        (PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15, backlash=0.01), False),
    ], ids=["stiction", "backlash", "stiction_backlash"])
    def test_open_loop_chirp_steps_plant_as_tick_loop(self, monkeypatch, plant, scanned):
        # an open-loop chirp on a nonlinear plant: with stiction alone one
        # scan gives f_o and d_hat, superposed with the stepped windows, so
        # t and i_m are the tick loop's bit for bit and f_o and d_hat differ
        # in rounding only; with backlash nothing is scanned and the block
        # path declines to the tick loop.  The tick loop itself equals the
        # block-by-block replay
        n = 2 * _LOG_BLOCK_TICKS + 1  # the last block is one tick, never stepped
        sc = SimScenario(reference=CHIRP, duration_s=n / 1000.0, gamma=0.0,
                         controller_hz=1000, plant_hz=5000, plant=plant)
        scans = spy_on(monkeypatch, "block_scan")
        log = run_scenario(sc)
        assert [scan is not None for scan in scans] == [True] * scanned
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        tick = run_scenario(sc)
        assert [scan is not None for scan in scans] == [True] * scanned
        assert len(log) == len(tick) == n
        for name in ("t", "i_m") if scanned else ("t", "i_m", "f_o", "d_hat"):
            assert np.array_equal(bits(log.column(name)), bits(tick.column(name))), name
        assert np.max(np.abs(log.f_o - tick.f_o)) <= 1e-13 * np.max(np.abs(tick.f_o))
        assert np.any(tick.d_hat != 0.0)
        assert np.max(np.abs(log.d_hat - tick.d_hat)) <= 1e-9 * np.max(np.abs(tick.d_hat))
        want = block_replay(sc)
        assert np.array_equal(bits(np.stack((tick.i_m, tick.d_hat, tick.f_o), axis=1)),
                              bits(want))

    @pytest.mark.parametrize("experiment, amplitude", [
        ("dob-verify", 1.75), ("bode-open-loop", 1.0), ("bode-open-loop", 1.5),
        ("bode-open-loop", 1.75)])
    def test_shipped_stiction_chirp_superposes_like_tick_loop(self, monkeypatch, experiment,
                                                              amplitude):
        # dob-verify's DOB-off run and each bode-open-loop amplitude: one
        # scan and 630 windows of held calls, the first at tick 0 (the chirp
        # starts at sin 0); no held call sees another effective input
        sc = shipped_chirp(experiment, amplitude)
        scans = spy_on(monkeypatch, "block_scan")
        log, changed = superpose_against_tick_loop(monkeypatch, sc)
        assert [scan is not None for scan in scans] == [True]
        held = np.abs(log.i_m[:-1]) < sc.plant.stiction_breakaway
        assert held[0] and np.count_nonzero(np.diff(held.astype(int)) == 1) == 629
        assert changed == 0

    def test_shipped_dob_on_chirp_scans_like_tick_loop(self, monkeypatch):
        # dob-verify's DOB-on run (gamma = 1): one scan of the sheared loop
        # map, and 650 windows of held calls found in order, the first at
        # tick 0; f_o within 1e-10 and d_hat within 1e-9 of their peaks, no
        # held decision flipped and no held call zeroed otherwise
        sc = shipped_chirp("dob-verify", 1.75, gamma=1.0)
        scans = spy_on(monkeypatch, "block_scan")
        log, changed = superpose_against_tick_loop(monkeypatch, sc)
        assert [scan is not None for scan in scans] == [True]
        held = np.abs(log.i_m[:-1]) < sc.plant.stiction_breakaway
        assert held[0] and np.count_nonzero(np.diff(held.astype(int)) == 1) == 649
        assert changed == 0

    @pytest.mark.parametrize("gamma, starts", [(0.0, 104), (1.0, 119)])
    def test_stuck_chirp_steps_zeroing_windows_like_tick_loop(self, monkeypatch, gamma,
                                                              starts):
        # dob-verify's chirp over 20 s at a breakaway of 0.6 (CI's
        # stuck.ini): stiction zeroes inputs in windows all through the
        # record, so besides tick 0 the bound leaves held calls undecided
        # mid-record, where the steppers are loaded and step; each held
        # call still sees the tick loop's effective input
        sc = shipped_chirp("dob-verify", 1.75, gamma)
        sc = dataclasses.replace(sc, duration_s=20.0,
                                 plant=dataclasses.replace(sc.plant, stiction_breakaway=0.6))
        scans = spy_on(monkeypatch, "block_scan")
        decisions = spy_on(monkeypatch, "_keeps_input")
        log, changed = superpose_against_tick_loop(monkeypatch, sc)
        assert [scan is not None for scan in scans] == [True]
        held = np.abs(log.i_m[:-1]) < sc.plant.stiction_breakaway
        assert held[0] and np.count_nonzero(np.diff(held.astype(int)) == 1) == starts
        assert sum(not kept.all() for kept in decisions) > 1
        assert changed == 0

    @pytest.mark.parametrize("breakaway", [0.0, 0.15])
    @pytest.mark.parametrize("gamma", [0.25, 0.5])
    def test_fractional_gamma_chirp_superposes_like_tick_loop(self, monkeypatch, gamma,
                                                              breakaway):
        # the shipped runs blend the estimate in fully or not at all: the
        # dob-verify chirp over 30 s at a gamma in between, on the plant
        # without stiction (scanned alone) and with it (held windows)
        sc = shipped_chirp("dob-verify", 1.75, gamma)
        sc = dataclasses.replace(sc, duration_s=30.0,
                                 plant=dataclasses.replace(sc.plant, stiction_breakaway=breakaway))
        scans = spy_on(monkeypatch, "block_scan")
        log, changed = superpose_against_tick_loop(monkeypatch, sc)
        assert [scan is not None for scan in scans] == [True]
        held = np.abs(log.i_m[:-1]) < breakaway
        assert held.any() == (breakaway > 0.0)
        assert changed == 0

    @pytest.mark.parametrize("experiment, gamma", [("fit", 0.0), ("dob-verify", 0.5)])
    def test_linear_plant_chirp_asks_the_scan_nothing(self, monkeypatch, experiment, gamma):
        # a plant that holds no call (the shipped fit, and a stiction-free
        # chirp at gamma = 0.5) queries neither the scanned state nor a free
        # response, so the scan builds no table, and i_m is the sampled
        # chirp less gamma times the scanned d_hat, bit for bit
        cfg = load_config(experiment)
        sc = shipped_chirp(experiment, cfg["scenario"]["amplitude"], gamma)
        sc = dataclasses.replace(sc, plant=dataclasses.replace(sc.plant, stiction_breakaway=0.0))
        queries = []
        for name in ("free", "state"):
            def spied(scan, *args, name=name, query=getattr(lti.Scan, name)):
                queries.append(name)
                return query(scan, *args)

            monkeypatch.setattr(lti.Scan, name, spied)
        scans = spy_on(monkeypatch, "block_scan")
        log = run_scenario(sc)
        assert len(scans) == 1 and scans[0] is not None
        assert queries == [] and "_tables" not in vars(scans[0])
        ref = sc.reference
        u_c = exponential_chirp(ref.amplitude, ref.f_start, ref.f_end, sc.duration_s)(
            np.arange(len(log)) * (1.0 / sc.controller_hz))
        assert np.any(log.d_hat != 0.0)
        assert np.array_equal(bits(log.i_m), bits(u_c - gamma * log.d_hat))

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("omega_c_hz", [
        *(pytest.param(hz, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                   reason="ROADMAP item 13"))
          for hz in (0.5, 1.0, 2.0, 5.0)),
        10.0, 25.0])
    def test_low_omega_c_chirp_superposes_like_tick_loop(self, monkeypatch, omega_c_hz, gamma):
        # run_scenario's accuracy contract at every Q-filter cutoff: the
        # shipped dob-verify chirp over 8 s; below about 10 Hz the scan's
        # d_hat leaves 1e-9 of its peak, a known defect whose fix makes
        # these strict expected failures pass, so it removes their marks
        sc = shipped_chirp("dob-verify", 1.75, gamma)
        sc = dataclasses.replace(sc, duration_s=8.0, omega_c=2.0 * math.pi * omega_c_hz)
        _, changed = superpose_against_tick_loop(monkeypatch, sc)
        assert changed == 0

    @pytest.mark.parametrize("f_start, f_end, duration, plant_hz", [
        (5.0, 5.0, 0.2, 5000),  # the last window ends at the last tick
        (5.0, 5.0, 0.02, 5000),  # shorter than one scan segment
        (0.1, 20.0, 3.0, 1000),  # one substep a call: an all-zero bound
    ], ids=["last_tick", "short", "one_substep"])
    def test_stiction_chirp_edges_superpose_like_tick_loop(self, monkeypatch, f_start, f_end,
                                                           duration, plant_hz):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0, f_start=f_start,
                                    f_end=f_end),
            duration_s=duration, gamma=0.0, controller_hz=1000, plant_hz=plant_hz,
            plant=PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        log, changed = superpose_against_tick_loop(monkeypatch, sc)
        held = np.abs(log.i_m[:-1]) < sc.plant.stiction_breakaway
        assert held[0] and not held.all()
        assert changed == 0
        if duration == 0.2:
            assert held[-1]
        if duration == 0.02:
            assert len(log) < lti._SCAN_SEGMENT

    @pytest.mark.parametrize("duration", [0.2, 0.02], ids=["last_tick", "short"])
    def test_dob_on_chirp_edges_like_tick_loop(self, monkeypatch, duration):
        # gamma = 1: a window that ends at the last tick, and a run shorter
        # than one scan segment
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0, f_start=5.0,
                                    f_end=5.0),
            duration_s=duration, gamma=1.0, controller_hz=1000, plant_hz=5000,
            plant=PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        log, changed = superpose_against_tick_loop(monkeypatch, sc)
        held = np.abs(log.i_m[:-1]) < sc.plant.stiction_breakaway
        assert held[0] and not held.all()
        assert changed == 0
        if duration == 0.2:
            assert held[-1]
        else:
            assert len(log) < lti._SCAN_SEGMENT

    def test_dob_on_chirp_with_backlash_runs_tick_loop(self, monkeypatch):
        # with backlash every call is held: the block path declines before
        # it scans anything, and the tick loop runs, bit for bit as when
        # it is forced
        n = 2 * _LOG_BLOCK_TICKS + 1
        sc = SimScenario(reference=CHIRP, duration_s=n / 1000.0, gamma=1.0,
                         controller_hz=1000, plant_hz=5000,
                         plant=PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15,
                                           backlash=0.01))
        scans = spy_on(monkeypatch, "block_scan")
        results = spy_on(monkeypatch, "_run_open_loop_chirp")
        log = run_scenario(sc)
        assert scans == [] and results == [False]
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        tick = run_scenario(sc)
        assert len(log) == n and np.any(tick.d_hat != 0.0)
        for name in LOG_COLUMNS:
            assert np.array_equal(bits(log.column(name)), bits(tick.column(name))), name

    @pytest.mark.parametrize("plant_hz, breakaway", [(1000, 0.0), (5000, 0.0), (1000, 0.15),
                                                     (5000, 0.15)])
    def test_dob_on_chirp_fault_is_the_tick_loop_fault(self, monkeypatch, plant_hz, breakaway):
        # gamma = 1 on an unstable plant: the block path gives up, and the
        # tick loop names the fault at the time it names it alone (f_o at
        # t = 0.221, 0.321 and 0.274 s; d_hat at 0.373 s)
        results = spy_on(monkeypatch, "_run_open_loop_chirp")
        sc = SimScenario(reference=CHIRP, duration_s=1.0, gamma=1.0, controller_hz=1000,
                         plant_hz=plant_hz,
                         plant=PlantConfig((1.0, 1.0, 1.0, 1e6), stiction_breakaway=breakaway))
        with pytest.raises(SimulationFault) as fault:
            run_scenario(sc)
        assert results == [False]
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        with pytest.raises(SimulationFault) as tick:
            run_scenario(sc)
        assert (fault.value.what, fault.value.time) == (tick.value.what, tick.value.time)
        assert fault.value.time < 0.5

    @pytest.mark.parametrize("gain", [1e300, 2e300])
    def test_finite_scan_limit_runs_tick_loop(self, monkeypatch, gain):
        # a scan that reaches 1e300 with every value finite (d_hat peaks at
        # 1.75e300, and at twice the gain f_o at 1.6e300) gives up, the
        # block path declines, and the tick loop runs every tick to no
        # fault: f_o is the plant's own step over i_m and d_hat the
        # observer's over i_m and f_o, bit for bit
        sc = SimScenario(reference=CHIRP, duration_s=10.0, gamma=0.0, controller_hz=1000,
                         plant_hz=5000,
                         plant=PlantConfig(gain_factor=gain, stiction_breakaway=0.15))
        results = spy_on(monkeypatch, "_run_open_loop_chirp")
        scans = spy_on(monkeypatch, "block_scan")
        log, changed = superpose_against_tick_loop(monkeypatch, sc)
        assert results == [False] and scans == [None]
        assert changed == 0
        step = DisturbanceObserver(sc.omega_c, 0.0, 1.0 / sc.controller_hz).stepper()
        stepped = [step(u, f)[1] for u, f in zip(log.i_m.tolist(), log.f_o.tolist())]
        assert np.array_equal(bits(log.d_hat), bits(stepped))
        assert np.max(np.abs(log.d_hat)) > 1e300
        advance = sc.plant.build().stepper(1.0 / sc.plant_hz, 5)
        f_o = [0.0] + [advance(u) for u in log.i_m[:-1].tolist()]
        assert np.array_equal(bits(log.f_o), bits(f_o))
        assert (np.max(np.abs(log.f_o)) > 1e300) == (gain == 2e300)

    @pytest.mark.parametrize("gamma, plant, scanned", [
        (1.0, PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15, backlash=0.01), []),
        (0.0, PlantConfig(gain_factor=1e300, stiction_breakaway=0.15), [None]),
    ], ids=["backlash", "scan_limit"])
    def test_block_path_declines_without_stepping(self, monkeypatch, gamma, plant, scanned):
        # a plant with backlash is declined before anything is scanned, and
        # a scan that reaches 1e300 with every value finite gives up: the
        # block path returns False having stepped neither the plant nor
        # the observer, whose states stay zero, and the tick loop's log is
        # the forced tick loop's bit for bit
        sc = SimScenario(reference=CHIRP, duration_s=10.0, gamma=gamma, controller_hz=1000,
                         plant_hz=5000, plant=plant)
        calls, declined = count_steps(monkeypatch), []
        block_path = plant_module._run_open_loop_chirp

        def spied(log, chirp, lsea, dt_sub, n_sub, dob):
            stepped = len(calls)
            declined.append(block_path(log, chirp, lsea, dt_sub, n_sub, dob))
            assert len(calls) == stepped
            assert lsea.state() == (0.0,) * 3 and dob.state() == (0.0,) * 4
            return declined[-1]

        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", spied)
        scans = spy_on(monkeypatch, "block_scan")
        log = run_scenario(sc)
        assert declined == [False] and scans == scanned
        assert len(calls) == 2 * len(log)  # the tick loop's: an observer and a plant step a tick
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        tick = run_scenario(sc)
        assert np.all(np.isfinite(tick.d_hat)) and np.any(tick.d_hat != 0.0)
        for name in LOG_COLUMNS:
            assert np.array_equal(bits(log.column(name)), bits(tick.column(name))), name

    def test_stepped_window_with_non_finite_command_declines(self, monkeypatch):
        # the first plant's stepper gives NaN on a held call, so the stepped
        # window's next command is NaN: the block path returns False at that
        # window, after a scan that succeeded, with the NaN force it recorded
        # the only non-finite f_o, and the tick loop, on a fresh plant, logs
        # what the forced tick loop logs, bit for bit
        sc = SimScenario(reference=CHIRP, duration_s=1.0, gamma=1.0, controller_hz=1000,
                         plant_hz=5000,
                         plant=PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        stepper, plants, poisoned = LseaPlant.stepper, [], []

        def poison_first(lsea, *args):
            step = stepper(lsea, *args)
            plants.append(lsea)
            if lsea is not plants[0]:
                return step

            def held_nan(u):
                if abs(u) < lsea.held_below:
                    poisoned.append(u)
                    return math.nan
                return step(u)

            return held_nan

        monkeypatch.setattr(LseaPlant, "stepper", poison_first)
        non_finite = []
        results = spy_on(monkeypatch, "_run_open_loop_chirp", lambda args, _: non_finite.append(
            np.count_nonzero(~np.isfinite(args[0]["f_o"]))))
        scans = spy_on(monkeypatch, "block_scan")
        log = run_scenario(sc)
        assert results == [False] and scans[0] is not None
        assert len(poisoned) == 1 and non_finite == [1]
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        tick = run_scenario(sc)
        assert np.all(np.isfinite(log.i_m)) and np.any(np.abs(log.i_m) < 0.15)
        for name in LOG_COLUMNS:
            assert np.array_equal(bits(log.column(name)), bits(tick.column(name))), name

    @pytest.mark.parametrize("plant_hz, backlash", [(1000, 0.0), (5000, 0.01)])
    def test_stepped_chirp_fault_falls_back_to_tick_loop(self, monkeypatch, plant_hz, backlash):
        # an unstable stiction plant overflows f_o; the block path declines,
        # when the scan gives up (without backlash) or before it scans
        # (with backlash), and the tick loop names the fault at its own
        # time, from a fresh plant (t = 0.322 and 0.42 s)
        results = spy_on(monkeypatch, "_run_open_loop_chirp")
        sc = SimScenario(reference=CHIRP, duration_s=1.0, gamma=0.0, controller_hz=1000,
                         plant_hz=plant_hz,
                         plant=PlantConfig((1.0, 1.0, 1.0, 1e6), stiction_breakaway=0.15,
                                           backlash=backlash))
        want = block_replay(sc)
        assert len(want) < round(sc.duration_s * sc.controller_hz)
        assert np.all(np.isfinite(want))
        with pytest.raises(SimulationFault) as fault:
            run_scenario(sc)
        assert results == [False]
        assert fault.value.what == "f_o"
        assert fault.value.time == len(want) * (1.0 / sc.controller_hz)
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        with pytest.raises(SimulationFault) as tick:
            run_scenario(sc)
        assert (tick.value.what, tick.value.time) == (fault.value.what, fault.value.time)

    @pytest.mark.parametrize("duration", [3.0, 0.027])
    def test_estimate_overflow_names_d_hat(self, monkeypatch, duration):
        # the observer's estimate overflows while f_o is still finite; at
        # gamma = 0 the command is u_c - 0.0 * d_hat, NaN, so the tick that
        # forms it names the estimate, the signal that went non-finite.  The
        # scan gives up and the block path declines; the tick loop then runs
        # from a fresh plant and observer (in 3 s its f_o would overflow
        # too, in 27 ticks it stays finite)
        scans = spy_on(monkeypatch, "block_scan")
        sc = SimScenario(reference=CHIRP, duration_s=duration, gamma=0.0, controller_hz=1000,
                         plant_hz=5000, plant=PlantConfig((1.0, 1.0, 1.0, 1e9)))
        with pytest.raises(SimulationFault) as fault:
            run_scenario(sc)
        assert scans == [None]
        assert fault.value.what == "d_hat"
        assert fault.value.time == 26 * (1.0 / sc.controller_hz)  # t = 0.026 s
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        with pytest.raises(SimulationFault) as tick:
            run_scenario(sc)
        assert (tick.value.what, tick.value.time) == ("d_hat", fault.value.time)

    def test_locked_testbed_logs_zero_pendulum_columns(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=0.1, f_end=10.0),
            duration_s=0.5, plant_hz=5000)
        log = run_scenario(sc)
        assert np.all(log.theta == 0.0)
        assert np.all(log.q_hat_a_m == 0.0)

    @pytest.mark.parametrize("scenario, written", [
        (SimScenario(reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                             f_start=0.1, f_end=10.0),
                     duration_s=0.5, plant_hz=5000),
         ("t", "f_o", "i_m", "d_hat")),
        (SimScenario(reference=ReferenceSpec(kind="force_step", step_value=500.0,
                                             step_time=0.05),
                     duration_s=0.5, plant_hz=5000),
         ("t", "f_d", "f_o", "i_m", "d_hat")),
        (short_pendulum_scenario(duration=0.5), LOG_COLUMNS),
    ], ids=["current_chirp", "force_step", "position_chirp"])
    def test_log_columns_are_separate_arrays(self, scenario, written):
        # each written column owns its buffer: as rows of one (12, n)
        # array, the columns would share huge pages
        log = run_scenario(scenario)
        assert len(log) == int(round(scenario.duration_s * scenario.controller_hz))
        assert_log_layout(log, written)
        columns = [log.column(c) for c in LOG_COLUMNS]
        for i, a in enumerate(columns):
            for b in columns[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_estimate_backlash_divergence(self):
        sc = short_pendulum_scenario(duration=1.0)
        sc.estimate_backlash_m = 0.002
        log = run_scenario(sc)
        gap = log.q_hat_a_m - log.q_hat_a_j
        assert np.max(np.abs(gap)) <= 0.001 + 1e-12
        assert np.max(np.abs(gap)) > 0.0


class TestChirpLoopMap:
    """The tick of a current chirp around the observer as one linear map."""

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_response_is_the_sampled_data_prediction(self, gamma):
        # ROADMAP item 3's gate for the DOB loop: on dob-verify's 41-point
        # grid, C (zI - A)^-1 B from u_c to f_o is the exact sampled-data
        # loop (scipy's zero-order hold of the plant) within 1e-8 dB
        pytest.importorskip("scipy")
        cfg = load_config("dob-verify")
        sn = cfg["scenario"]
        plant = LseaPlant(cfg["plant"]["den_factors"], cfg["plant"]["gain_factor"])
        T = 1.0 / sn["controller_hz"]
        dob = DisturbanceObserver(2.0 * math.pi * cfg["control"]["omega_c_hz"], gamma, T)
        A, B, C, shear = plant_module._chirp_loop(plant, dob, 1.0 / sn["plant_hz"],
                                                  sn["plant_hz"] // sn["controller_hz"])
        p0, _, p2, p3 = dob.coefficients[0]
        assert shear == (p0, -(p2 + p3), -p3)
        freqs = experiments._grid(cfg, "grid")
        assert freqs.size == 41
        A, B, C = np.array(A), np.array(B), np.array(C[0])
        got = np.array([C @ np.linalg.solve(z * np.eye(len(A)) - A, B)
                        for z in np.exp(2j * np.pi * freqs * T)])
        want = dob_loop_response(plant.tf, dob, freqs)
        assert np.max(np.abs(20.0 * np.log10(np.abs(got / want)))) <= 1e-8

    def test_dob_verify_summary_is_the_tick_loop_summary(self, tmp_path, monkeypatch):
        # both runs' deviations within 1e-6 dB of the tick loop's, and the
        # same verdicts
        cfg = load_config("dob-verify")
        block = experiments.dob_verify(cfg, tmp_path / "block")
        monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        tick = experiments.dob_verify(cfg, tmp_path / "tick")
        for key in ("max_dev_db_dob_on", "max_dev_db_dob_off"):
            assert abs(block[key] - tick[key]) <= 1e-6, key
        for key in ("nominalized_within_2db", "off_exceeds_2db"):
            assert block[key] is tick[key] is True, key


class TestDerivedColumns:
    """The columns ``run_scenario`` fills after its loop, pinned bit for bit.

    A tick records only the values it computes; ``t``, the held reference,
    a force step's ``f_d`` and ``q_hat_a_j`` are filled with numpy once, and
    every other column stays the zero it was allocated as.
    """

    CHIRP = ReferenceSpec(kind="current_chirp", amplitude=1.75, f_start=0.1, f_end=20.0)
    STEP = ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.0503)

    @pytest.mark.parametrize("reference, pendulum", [
        (CHIRP, None),
        (STEP, None),
        (ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427),
         PendulumConfig(damping=0.05)),
    ], ids=["current_chirp", "force_step", "position_chirp"])
    def test_time_is_tick_times_period(self, reference, pendulum):
        sc = SimScenario(reference=reference, duration_s=0.3331, pendulum=pendulum)
        log = run_scenario(sc)
        T = 1.0 / sc.controller_hz
        assert len(log) == 333
        assert np.array_equal(bits(log.t), bits([k * T for k in range(len(log))]))

    @pytest.mark.parametrize("step_time", [0.0, 0.05, 0.0503, 1.0])
    def test_force_step_follows_the_tick_rule(self, step_time):
        ref = ReferenceSpec(kind="force_step", step_value=-37.5, step_time=step_time)
        sc = SimScenario(reference=ref, duration_s=0.3, plant_hz=5000)
        log = run_scenario(sc)
        T = 1.0 / sc.controller_hz
        want = [ref.step_value if k * T >= ref.step_time else 0.0 for k in range(len(log))]
        assert np.array_equal(bits(log.f_d), bits(want))

    @pytest.mark.parametrize("duration", [0.6, 0.603], ids=["whole", "partial"])
    def test_reference_held_between_reference_ticks(self, duration):
        sc = short_pendulum_scenario(duration=duration)
        log = run_scenario(sc)
        n, T = len(log), 1.0 / sc.controller_hz
        ref_div = sc.controller_hz // sc.reference_hz
        ref, pmap = sc.reference, PendulumMap(sc.pendulum.l2)
        want = []
        for k in range(n):
            if k % ref_div == 0:
                qj_d, qjdot_d, _ = linear_chirp_point(ref.amplitude, ref.omega_o, k * T)
                held = (qj_d, *actuator_setpoints(pmap, qj_d, qjdot_d, log.theta[k].item()))
            want.append(held)
        got = np.stack((log.ref_pos, log.q_bar_a_d, log.qdot_bar_a_d), axis=1)
        assert (n % ref_div == 0) == (duration == 0.6)
        assert np.array_equal(bits(got), bits(want))

    def test_joint_estimate_is_l2_theta(self):
        sc = short_pendulum_scenario(duration=0.5)
        sc.estimate_backlash_m = 0.002
        log = run_scenario(sc)
        l2 = sc.pendulum.l2
        assert np.array_equal(bits(log.q_hat_a_j), bits([l2 * th for th in log.theta.tolist()]))

    @pytest.mark.parametrize("pendulum", [PendulumConfig(damping=0.05), None],
                             ids=["pendulum", "locked"])
    def test_motor_estimate_is_backlash_replay(self, pendulum):
        # without the pendulum the joint estimate is 0.0 on every tick, and
        # so is the play's output
        reference = (ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427)
                     if pendulum else self.CHIRP)
        sc = SimScenario(reference=reference, duration_s=0.5, pendulum=pendulum,
                         estimate_backlash_m=0.002)
        log = run_scenario(sc)
        play = BacklashPlay(sc.estimate_backlash_m)
        want = [play.step(q) for q in log.q_hat_a_j.tolist()]
        assert np.array_equal(bits(log.q_hat_a_m), bits(want))

    @pytest.mark.parametrize("reference, computed", [
        (CHIRP, ("t", "f_o", "i_m", "d_hat")),
        (STEP, ("t", "f_d", "f_o", "i_m", "d_hat")),
    ], ids=["current_chirp", "force_step"])
    def test_constant_columns_are_positive_zero(self, reference, computed):
        sc = SimScenario(reference=reference, duration_s=0.3, plant_hz=5000,
                         estimate_backlash_m=0.002)
        log = run_scenario(sc)
        for name in LOG_COLUMNS:
            if name not in computed:
                assert not np.any(bits(log.column(name))), name

    @pytest.mark.parametrize("reference, pendulum, written", [
        (CHIRP, None, ("t", "f_o", "i_m", "d_hat")),
        (STEP, None, ("t", "f_d", "f_o", "i_m", "d_hat")),
        (ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427),
         PendulumConfig(damping=0.05), LOG_COLUMNS),
        (ReferenceSpec(), PendulumConfig(damping=0.05),
         ("t", "f_d", "f_o", "i_m", "d_hat", "theta", "theta_dot", "q_hat_a_m",
          "q_hat_a_j")),
    ], ids=["current_chirp", "force_step", "position_chirp", "pendulum_force_step"])
    def test_unwritten_columns_reach_the_writer_as_one_value(
            self, tmp_path, monkeypatch, reference, pendulum, written):
        # the columns run_scenario never writes are read-only zero-stride
        # views of +0.0, and reach the writer as such, so its constancy
        # test faults in one page, not all; the bytes are those of the
        # per-value reference writer
        sc = SimScenario(reference=reference, duration_s=0.3, pendulum=pendulum,
                         estimate_backlash_m=0.002)
        log = run_scenario(sc)
        for name in LOG_COLUMNS:
            assert log.column(name).flags.writeable is (name in written), name
        seen = []
        monkeypatch.setattr(plant_module, "write_csv",
                            lambda path, header, columns: seen.append(columns))
        log.to_csv(tmp_path / "spied.csv")
        strides = {name: column.strides for name, column in zip(LOG_COLUMNS, seen[0])}
        assert strides == {name: (8,) if name in written else (0,) for name in LOG_COLUMNS}
        monkeypatch.undo()
        columns = [log.column(c) for c in LOG_COLUMNS]
        log.to_csv(tmp_path / "log.csv")
        csv_reference(tmp_path / "want.csv", LOG_COLUMNS, columns)
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_an_unwritten_column_changed_later_is_read_in_full(self, tmp_path):
        # a never-written column is a read-only view: a caller copies it to
        # write into it; a column replaced (here by a read-only array) is
        # no longer taken for one value
        log = run_scenario(SimScenario(reference=self.CHIRP, duration_s=0.3))
        with pytest.raises(ValueError, match="read-only"):
            log.theta[-1] = 0.25
        log.theta = log.theta.copy()
        log.theta[-1] = 0.25
        log.theta_dot = np.frombuffer(np.arange(len(log), dtype=float).tobytes())
        assert not log.theta_dot.flags.writeable
        log.to_csv(tmp_path / "log.csv")
        last = (tmp_path / "log.csv").read_text().splitlines()[-1].split(",")
        assert last[8:10] == ["0.25", "299"]


class TestPythonFloats:
    """The per-tick arithmetic runs on Python floats, never numpy scalars.

    ``numpy.float64`` subclasses ``float``, so each check is ``type(x) is float``.
    """

    @pytest.mark.parametrize("kwargs, u, n", [
        (dict(), 0.7, 1),
        (dict(stiction_breakaway=0.15), 0.1, 5),
        (dict(stiction_breakaway=0.15, backlash=0.01), 0.7, 5),
        (dict(stiction_breakaway=0.15), 0.7, 5),
    ], ids=["one-substep", "stuck", "backlash", "lifted"])
    def test_advance_returns_and_keeps_floats(self, kwargs, u, n):
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        for _ in range(3):
            assert type(p.advance(u, 1e-4, n)) is float
            assert all(type(x) is float for x in p.state())

    def test_coefficient_tuples_hold_floats(self):
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS)
        assert all(type(c) is float for c in p._coeffs(1e-4))
        lifted, bound = p._lifted(1e-4, 5)
        assert all(type(c) is float for c in (*lifted, *bound))

    @pytest.mark.parametrize("reference, pendulum", [
        (ReferenceSpec(kind="current_chirp", amplitude=1.75, f_start=0.05, f_end=15.0), None),
        (ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.1), None),
        (ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427),
         PendulumConfig(damping=0.05)),
    ], ids=["current_chirp", "force_step", "position_chirp"])
    def test_loop_sees_only_floats(self, monkeypatch, reference, pendulum):
        # the tick calls the closures the plant's and the observer's
        # steppers return; spy on those
        seen = []
        plant_stepper, dob_stepper = LseaPlant.stepper, DisturbanceObserver.stepper

        def spy_plant_stepper(self, dt, substeps):
            advance = plant_stepper(self, dt, substeps)

            def spy(i_m):
                out = advance(i_m)
                seen.extend((i_m, dt, out))
                return out
            return spy

        def spy_dob_stepper(self):
            step = dob_stepper(self)

            def spy(u_c, f_measured):
                out = step(u_c, f_measured)
                seen.extend((u_c, f_measured, *out))
                return out
            return spy

        monkeypatch.setattr(LseaPlant, "stepper", spy_plant_stepper)
        monkeypatch.setattr(DisturbanceObserver, "stepper", spy_dob_stepper)
        # the shipped plant of each experiment: perturbed, with stiction
        plant = (PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=150.0,
                             stiction_velocity_deadband=500.0) if pendulum else
                 PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        sc = SimScenario(reference=reference, duration_s=0.2, plant=plant, pendulum=pendulum,
                         k_ff=987.0 / 208.8)
        if reference.kind == "current_chirp":
            # the block path steps its windows of held calls only
            run_scenario(sc)
            assert seen and {type(x) for x in seen} == {float}
            seen.clear()
            monkeypatch.setattr(plant_module, "_run_open_loop_chirp", lambda *args: False)
        run_scenario(sc)
        assert len(seen) >= 1000  # 200 ticks of at least one observer and one plant call
        assert {type(x) for x in seen} == {float}
