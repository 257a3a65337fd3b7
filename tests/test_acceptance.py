"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

The experimental imperfection set used throughout is: system efficiency
eta_total = 0.65 (transmission 0.90 x detector 0.73, rounded as quoted),
visibility xi = 0.996, dark counts nu = 9.1e-3 per state, bin schedule
T = 200 us split into M bins with a 1.1 us discard window per feedback
action (lumped as linear loss 1 - (M-1)*1.1/200).

The receiver under test is the nulling receiver: every bin displaces the
current MAP hypothesis to vacuum, symbol 0 first, with ties broken to the
lowest index.  Its ideal error curve crosses the heterodyne SQL once, at
|alpha|^2 = 1.0010 for M=3, 0.818 for M=4 and 0.606 for M=10, so C02 and C03
check the SQL beat above the crossing only.  Beating the SQL at lower power
needs the optimized displacement of Izumi et al., PRA 86, 042328 (2012)
(ROADMAP item 2).
"""

import math

import numpy as np
import pytest

from _acceptance_report import report
from qpskrx.bayes import (InferenceModel, enumerate_detail,
                          enumerate_error_probability, initial_state,
                          posterior_update, truth_from_inference)
from qpskrx.bounds import (gram_eigenvalues, helstrom_qpsk, qpsk_gram,
                           sql_heterodyne)
from qpskrx.delay import DelayParams, delay_truth_tables
from qpskrx.montecarlo import RngSpec, estimate_error
from qpskrx.physics import ChannelModel

ETA_SE = 0.65
XI = 0.996
NU = 9.1e-3
DT_US = 1.1
T_TOTAL_US = 200.0
DELAY_DEFAULTS = DelayParams(20.0, 0.37, 0.63)
# grid points around the single sign change of P_e(M=3) - SQL (ideal model)
M3_SQL_CROSSING_BRACKET = (1.0, 1.25)


def discard_mult(stages: int, dt_us: float = DT_US) -> float:
    return 1.0 - (stages - 1) * dt_us / T_TOTAL_US


def experimental_model(alpha_sq: float, stages: int, eta: float = ETA_SE,
                       discard: bool = True) -> InferenceModel:
    mult = discard_mult(stages) if discard else 1.0
    return InferenceModel(alpha_sq, stages, eta * mult, XI, NU)


def test_c01_zero_signal_limit():
    enum = enumerate_error_probability(InferenceModel(0.0, 10))
    mc = estimate_error(InferenceModel(0.0, 10), 10**6, RngSpec(1), n_workers=4)
    sql = sql_heterodyne(0.0)
    hel = helstrom_qpsk(0.0)
    ok = (abs(enum - 0.75) <= 1e-12
          and abs(mc.error_prob - 0.75) <= 3 * mc.stderr
          and abs(sql - 0.75) <= 1e-15
          and abs(hel - 0.75) <= 1e-6)
    assert report("C01 zero-signal limit",
                  ok, f"enum={enum:.3e} mc={mc.error_prob:.6f} sql={sql} "
                      f"helstrom={hel:.9f}")


def test_c02_sql_beat_at_minimum_stages():
    """The ideal M=3 nulling receiver beats the SQL above a single crossing.

    On the |alpha|^2 grid 0.25:12:0.25, P_e(M=3) - SQL changes sign exactly
    once, between 1.0 and 1.25 (bisection: 1.0010), and is negative at every
    grid point above.  Below the crossing the receiver loses to the SQL
    (0.4709 vs 0.4220 at 0.5; 0.29222 vs 0.29214 at 1.0); an SQL beat there
    needs optimized displacement (ROADMAP item 2).
    """
    grid = np.arange(0.25, 12.0 + 1e-9, 0.25)
    pes = np.array([enumerate_error_probability(InferenceModel(a2, 3))
                    for a2 in grid])
    margin = pes - np.array([sql_heterodyne(a2) for a2 in grid])
    flips = np.flatnonzero(np.sign(margin[:-1]) != np.sign(margin[1:]))
    lo, hi = M3_SQL_CROSSING_BRACKET
    ok = (len(flips) == 1
          and (grid[flips[0]], grid[flips[0] + 1]) == (lo, hi)
          and bool(np.all(margin[grid >= hi] < 0)))
    details = ["sign changes between "
               f"{[(float(grid[i]), float(grid[i + 1])) for i in flips]}"]
    for a2 in (0.5, 1.0, 2.0, 5.0):
        i = int(np.argmin(np.abs(grid - a2)))
        details.append(f"a2={a2}: {pes[i]:.6f} vs SQL {pes[i] - margin[i]:.6f}")
    assert report("C02 SQL beat at M=3", ok, "; ".join(details))


def test_c03_stage_ordering():
    """Helstrom <= P_e(M=10) <= P_e(M=4) <= P_e(M=3) at every point, and
    P_e(M=3) <= SQL at the points above the M=3 SQL crossing (see C02).
    """
    slack = 1e-10
    ok = True
    details = []
    for a2 in (0.5, 1.0, 2.0, 4.0):
        p3 = enumerate_error_probability(InferenceModel(a2, 3))
        p4 = enumerate_error_probability(InferenceModel(a2, 4))
        p10 = enumerate_error_probability(InferenceModel(a2, 10))
        hel, sql = helstrom_qpsk(a2), sql_heterodyne(a2)
        above_crossing = a2 >= M3_SQL_CROSSING_BRACKET[1]
        chain_ok = (hel <= p10 + slack and p10 <= p4 + slack
                    and p4 <= p3 + slack
                    and (not above_crossing or p3 <= sql + slack))
        ok &= chain_ok
        details.append(f"a2={a2}: {'ok' if chain_ok else 'violated'}"
                       f"{'' if above_crossing else ' (below SQL crossing)'}")
    assert report("C03 stage ordering", ok, "; ".join(details))


def test_c04_oracle_equivalence():
    worst = 0.0
    ok = True
    for stages in (4, 7, 10):
        for a2 in (0.25, 1.0, 4.0, 9.0):
            model = experimental_model(a2, stages)
            exact = enumerate_error_probability(model)
            mc = estimate_error(model, 10**6, RngSpec(100 + stages), n_workers=4)
            pull = abs(mc.error_prob - exact) / mc.stderr if mc.stderr else 0.0
            worst = max(worst, pull)
            ok &= abs(mc.error_prob - exact) <= 3 * mc.stderr
    assert report("C04 Monte Carlo vs enumeration (12-point grid)", ok,
                  f"worst deviation {worst:.2f} stderr")


def test_c05_experimental_sql_violation():
    below = []
    for a2 in range(2, 11):
        model = experimental_model(float(a2), 10)
        mc = estimate_error(model, 10**6, RngSpec(200 + a2), n_workers=4)
        if mc.error_prob < sql_heterodyne(float(a2)):
            below.append(a2)
    ok = len(below) >= 3
    assert report("C05 SQL violation under experimental conditions", ok,
                  f"below ideal SQL at |alpha|^2 = {below}")


def test_c06_m4_error_floor():
    grid = np.arange(0.25, 12.0 + 1e-9, 0.25)
    pes = [enumerate_error_probability(experimental_model(a2, 4)) for a2 in grid]
    i_min = int(np.argmin(pes))
    interior = 0 < i_min < len(grid) - 1
    floor = pes[-1] > 0.8 * pes[i_min]
    ok = interior and floor
    assert report("C06 M=4 error floor", ok,
                  f"min {pes[i_min]:.5f} at |alpha|^2={grid[i_min]}, "
                  f"P_e(12)={pes[-1]:.5f}")


def test_c07_break_even_efficiency():
    a2_grid = np.arange(1.0, 12.0 + 1e-9, 0.5)
    break_even = None
    for eta_spd in np.arange(0.55, 0.7501, 0.01):
        eta = 0.90 * eta_spd
        margin = min(
            enumerate_error_probability(experimental_model(a2, 10, eta=eta))
            - sql_heterodyne(a2) for a2 in a2_grid)
        if margin < 0:
            break_even = round(float(eta_spd), 2)
            break
    ok = break_even is not None and 0.62 <= break_even <= 0.68
    assert report("C07 break-even detector efficiency", ok,
                  f"smallest eta_spd beating ideal SQL: {break_even}")


def test_c08_delay_coincidence():
    ch = ChannelModel(ETA_SE, XI)

    table_ok = True
    for dt in (1.0, 1.1, 2.0):
        for a2 in (3.3, 9.4):
            t1 = delay_truth_tables(a2, 10, ch, NU, DELAY_DEFAULTS, dt,
                                    include_delay=True)
            t0 = delay_truth_tables(a2, 10, ch, NU, DELAY_DEFAULTS, dt,
                                    include_delay=False)
            table_ok &= (np.abs(t1.first - t0.first).max() <= 1e-12
                         and np.abs(t1.trans - t0.trans).max() <= 1e-12)

    def run(a2, dt):
        mult = 1.0 - 9 * dt / T_TOTAL_US
        inference = InferenceModel(a2, 10, ETA_SE * mult, XI, NU)
        truth = delay_truth_tables(a2, 10, ch, NU, DELAY_DEFAULTS, dt,
                                   include_delay=True)
        return estimate_error(inference, 10**6, RngSpec(int(a2 * 100)),
                              truth=truth, n_workers=4)

    degradation = {}
    sigma = {}
    for a2 in (9.4, 3.3):
        r0, r1 = run(a2, 0.0), run(a2, DT_US)
        degradation[a2] = r0.error_prob - r1.error_prob
        sigma[a2] = math.hypot(r0.stderr, r1.stderr)

    strong = degradation[9.4] > 5 * sigma[9.4]
    milder = degradation[3.3] < degradation[9.4]
    ok = table_ok and strong and milder
    assert report("C08 delay coincidence and delay penalty", ok,
                  f"tables match at dt>=1.0us: {table_ok}; "
                  f"penalty(9.4)={degradation[9.4]:.4f} "
                  f"({degradation[9.4] / sigma[9.4]:.0f} sigma), "
                  f"penalty(3.3)={degradation[3.3]:.4f}")


def test_c09_discard_loss_tradeoff():
    stages = range(3, 31)

    def curve(discard):
        out = []
        for m in stages:
            model = experimental_model(4.0, m, discard=discard)
            out.append(estimate_error(model, 10**6, RngSpec(500 + m),
                                      n_workers=4))
        return out

    with_discard = curve(True)
    no_discard = curve(False)

    pes = [r.error_prob for r in with_discard]
    i_min = int(np.argmin(pes))
    rises = pes[-1] - pes[i_min] > 3 * math.hypot(with_discard[-1].stderr,
                                                  with_discard[i_min].stderr)
    finite_min = i_min < len(pes) - 1

    monotone = all(
        b.error_prob <= a.error_prob + 3 * math.hypot(a.stderr, b.stderr)
        for a, b in zip(no_discard, no_discard[1:]))

    ok = finite_min and rises and monotone
    assert report("C09 discard-loss trade-off over M", ok,
                  f"with-discard min at M={list(stages)[i_min]}, "
                  f"P_e(30)-min={pes[-1] - pes[i_min]:.5f}; "
                  f"no-discard monotone: {monotone}")


def test_c10_swing_limit_convergence():
    from qpskrx.delay import off_prob_swing_analytic, off_prob_swing_discrete

    rng = np.random.default_rng(3)
    worst = 0.0
    ratios = []
    for _ in range(100):
        params = DelayParams(20.0, rng.uniform(0.2, 0.5), rng.uniform(0.4, 0.8))
        ch = ChannelModel(rng.uniform(0.3, 0.65), rng.uniform(0.95, 1.0))
        m = int(rng.integers(0, 4))
        prev = int(rng.integers(0, 4))
        new = (prev + int(rng.integers(1, 4))) % 4
        g = rng.uniform(0.0, 0.5)
        exact = off_prob_swing_analytic(m, prev, new, g, params, ch)
        e_hi = abs(off_prob_swing_discrete(m, prev, new, g, params, ch, 10**4) - exact)
        e_lo = abs(off_prob_swing_discrete(m, prev, new, g, params, ch, 10**2) - exact)
        worst = max(worst, e_hi)
        if e_hi > 0:
            ratios.append(e_lo / e_hi)
    scaling = 50 <= np.median(ratios) <= 200
    ok = worst <= 1e-6 and scaling
    assert report("C10 swing-limit convergence", ok,
                  f"worst |discrete(L=1e4) - analytic| = {worst:.2e}; "
                  f"median error ratio L=1e2/1e4 = {np.median(ratios):.0f}")


def test_c11_property_suites():
    """Property checks, among them the exact mirror symmetry m -> -m.

    The matched model is symmetric under m -> -m, so its tables must be
    bitwise mirror-symmetric and MAP ties between hypotheses 1 and 3 exact.
    The receiver is not symmetric: it nulls symbol 0 first and breaks ties to
    the lowest index, so its per-symbol errors differ by design; they are
    printed, not asserted equal.
    """
    checks = {}

    # posterior normalization along an outcome chain
    model = InferenceModel(3.0, 8, ETA_SE, XI, NU)
    s = initial_state()
    norm_ok = True
    for e in (0, 1, 1, 0, 1, 0, 0, 1):
        s = posterior_update(s, e, model)
        norm_ok &= abs(s.posterior.sum() - 1.0) <= 1e-10
    checks["posterior-normalization"] = norm_ok

    # branch-probability completeness
    sym_model = InferenceModel(2.5, 7, ETA_SE, XI, NU)
    detail = enumerate_detail(sym_model)
    checks["branch-completeness"] = bool(
        np.abs(detail.branch_totals - 1.0).max() <= 1e-10)

    # mirror symmetry m -> -m of the matched model, bitwise
    ll = sym_model.log_likelihood_table()
    truth = truth_from_inference(sym_model)
    first, trans = truth.first, truth.trans
    checks["mirror-symmetry"] = bool(
        np.array_equal(ll[:, 1], ll[:, 3]) and first[1] == first[3]
        and all(trans[a, b] == trans[-a % 4, -b % 4]
                and trans[a, b] == first[(a - b) % 4]
                for a in range(4) for b in range(4)))

    # Helstrom below SQL pointwise
    checks["helstrom-below-sql"] = all(
        helstrom_qpsk(a2) < sql_heterodyne(a2)
        for a2 in np.linspace(0.05, 12, 60))

    # closed-form circulant eigenvalues vs dense eigensolver
    eig_ok = True
    for a2 in (0.0, 0.5, 2.0, 7.0, 11.0):
        lam = np.sort(gram_eigenvalues(a2))
        dense = np.sort(np.linalg.eigvalsh(qpsk_gram(a2)))
        eig_ok &= bool(np.abs(lam - dense).max() <= 1e-10)
    checks["srm-eigensolver-agreement"] = eig_ok

    # worker-count determinism
    m = InferenceModel(2.0, 10, ETA_SE, XI, NU)
    runs = [estimate_error(m, 40_000, RngSpec(5), n_workers=w, chunk_size=1024)
            for w in (1, 2, 4)]
    checks["worker-determinism"] = all(
        r.error_prob == runs[0].error_prob
        and r.per_symbol_error == runs[0].per_symbol_error for r in runs[1:])

    ok = all(checks.values())
    detail_str = "; ".join(f"{k}: {'ok' if v else 'VIOLATED'}"
                           for k, v in checks.items())
    detail_str += ("; per_symbol_error (asymmetric by design) = "
                   f"{np.round(detail.per_symbol_error, 4).tolist()}")
    assert report("C11 property suites", ok, detail_str)
