"""Monte Carlo engine and tiny exact enumeration."""

import dataclasses
import hashlib

import numpy as np
import pytest

from branchpcr.kinetics import MMParams
from branchpcr.moments import (
    MutationLaw,
    exact_sample_moments,
    infinite_population_moments,
    moment_envelope,
    poisson_law,
)
from branchpcr.schedule import build_schedule, derived_sequences, mm_lambda
from branchpcr import simulator
from branchpcr.simulator import (
    MAX_POPULATION_CAP,
    PopulationCapExceeded,
    ProcessSpec,
    draw_sample,
    enumerate_tiny,
    envelope_checks,
    eta_star_distribution,
    monte_carlo_moments,
    simulate,
    simulate_batch,
)


def spec_for(lams, mu=0.05, S0=2):
    return ProcessSpec(build_schedule(lams), poisson_law(mu), S0)


def test_process_spec_validation():
    sched = build_schedule([0.5])
    with pytest.raises(ValueError):
        ProcessSpec(sched, MutationLaw(mu=0.0, nu=0.1), 1)
    with pytest.raises(ValueError):
        ProcessSpec(sched, poisson_law(0.05), 0)


def test_simulate_is_seed_deterministic():
    spec = spec_for([0.5] * 6)
    a = simulate(spec, 6, np.random.Generator(np.random.Philox(42)))[-1]
    b = simulate(spec, 6, np.random.Generator(np.random.Philox(42)))[-1]
    c = simulate(spec, 6, np.random.Generator(np.random.Philox(43)))[-1]
    assert a.size == b.size
    assert a.states == b.states
    assert a.realized_lambdas == b.realized_lambdas
    assert (a.size != c.size) or (a.states != c.states)


def test_simulate_snapshots_hold_their_own_tables():
    traj = simulate(spec_for([0.5] * 6), 6, np.random.Generator(np.random.Philox(7)))
    assert len({id(state.states) for state in traj}) == len(traj)
    for state in traj:
        assert sum(state.states.values()) == state.size


def test_simulate_full_efficiency_doubles():
    spec = spec_for([1.0] * 5, S0=3)
    traj = simulate(spec, 5, np.random.Generator(np.random.Philox(0)))
    assert [p.size for p in traj] == [3 * 2**g for g in range(6)]
    assert traj[-1].gen == 5


def test_draw_sample_statistics():
    spec = spec_for([1.0] * 3, mu=0.2, S0=1)
    rng = np.random.Generator(np.random.Philox(7))
    state = simulate(spec, 3, rng)[-1]
    draws = draw_sample(state, 50, rng)
    vals, counts = state.values_counts()
    assert draws.shape == (50,)
    assert vals.min() <= draws.min() and draws.max() <= vals.max()
    with pytest.raises(ValueError):
        draw_sample(state, 0, rng)


def assert_same_moments(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


def test_monte_carlo_thread_invariance():
    # three chunks of the batched engine, the last one partial
    spec = spec_for([0.6] * 5)
    kw = dict(n=5, ell=4, replicates=2 * 1024 + 300, seed=123, collect_histogram=True)
    runs = [monte_carlo_moments(spec, threads=k, **kw) for k in (1, 2, 3)]
    for other in runs[1:]:
        assert_same_moments(runs[0], other)
    kw["seed"] = 124
    diff = monte_carlo_moments(spec, threads=1, **kw)
    assert runs[0].t_mean != diff.t_mean


def test_multinomial_row_blocks_leave_the_stream(monkeypatch):
    # wide Poisson tables are drawn in row blocks of at most _DRAW_CELLS cells;
    # one row per block must give the same results as one block per chunk
    spec = spec_for([0.7] * 6, mu=0.4)
    kw = dict(n=6, ell=3, replicates=1024 + 40, seed=9, collect_histogram=True)
    whole = monte_carlo_moments(spec, **kw)
    monkeypatch.setattr(simulator, "_DRAW_CELLS", 16)
    assert_same_moments(whole, monte_carlo_moments(spec, **kw))


def test_monte_carlo_validation():
    spec = spec_for([0.5] * 3)
    with pytest.raises(ValueError):
        monte_carlo_moments(spec, 3, 1, replicates=0, seed=1)
    for run in (lambda **kw: monte_carlo_moments(spec, ell=1, replicates=4, seed=1, **kw),
                lambda **kw: simulate_batch(spec, replicates=4, seed=1, **kw)):
        with pytest.raises(ValueError, match="cycle count must be nonnegative"):
            run(n=-1)
        with pytest.raises(ValueError, match="64-bit"):
            run(n=3, population_cap=MAX_POPULATION_CAP + 1)
    with pytest.raises(ValueError, match="64-bit"):
        simulate_batch(spec_for([0.5] * 3, S0=MAX_POPULATION_CAP + 1), 3, 4, 1)
    with pytest.raises(ValueError):
        simulate_batch(spec, 3, 4, 1, marks=(2, 4))
    with pytest.raises(ValueError):
        simulate_batch(spec, 3, 4, 1, marks=(2, 1))
    with pytest.raises(ValueError):
        simulate_batch(spec, 3, 0, 1)
    too_fast = ProcessSpec(build_schedule(mm_C=10.0, mm_D=12.0), poisson_law(0.1), 1)
    for run in (lambda: simulate_batch(too_fast, 3, 4, 1),
                lambda: simulate(too_fast, 0, np.random.Generator(np.random.Philox(0)))):
        with pytest.raises(ValueError, match="exceeds"):  # D/(C + S0) above one
            run()
    with pytest.raises(ValueError):
        simulate_batch(spec, 3, 4, 1)[0].sample_means(0, np.random.Generator(np.random.Philox(0)))


def test_monte_carlo_against_envelopes():
    lams = [0.5] * 6
    for law in (poisson_law(0.05), MutationLaw(mu=0.1, nu=0.04), poisson_law(0.0)):
        spec = ProcessSpec(build_schedule(lams), law, 2)
        seqs = derived_sequences(spec.sched, 6)
        mc = monte_carlo_moments(spec, 6, 5, replicates=4000, seed=11, threads=2)
        dp = exact_sample_moments(spec.sched, spec.law, 2, 6, 5)
        assert mc.t_mean == pytest.approx(dp.Et, abs=4 * mc.t_se)
        assert mc.t_var == pytest.approx(dp.Vt, abs=4 * mc.t_var_se)
        assert mc.M_mean == pytest.approx(dp.M_eta, abs=4 * mc.M_se)
        assert mc.martingale_mean == pytest.approx(2.0, abs=4 * mc.martingale_se)
        env = moment_envelope(seqs, spec.law, 2, 6, 1)
        assert env.Et_lo - 4 * mc.t_se <= mc.t_mean <= env.Et_hi + 4 * mc.t_se


def test_envelope_checks():
    spec = spec_for([0.4] * 5, mu=0.1, S0=3)
    seqs = derived_sequences(spec.sched, 5)
    env = moment_envelope(seqs, spec.law, 3, 5, 2)
    mc = monte_carlo_moments(spec, 5, 2, replicates=3000, seed=5, collect_histogram=True)
    flags, tv = envelope_checks(mc, env, seqs, spec.law)
    assert flags == {"Et": "pass", "Vt": "pass", "Rn": "pass"}
    _, probs = eta_star_distribution(seqs, spec.law, 5)
    support = range(max(len(probs), max(mc.eta_hist) + 1))
    distance = 0.5 * sum(abs(mc.eta_hist.get(m, 0.0) - (probs[m] if m < len(probs) else 0.0))
                         for m in support)
    assert tv["distance"] == pytest.approx(distance, rel=1e-12)
    assert tv["bound"] == env.TV_hi and tv["check"] == "pass"
    assert 0.0 < tv["mc_error"] < tv["bound"]
    # an envelope that excludes the estimates fails each flag
    off = dataclasses.replace(env, Et_lo=env.Et_hi + 1.0, Vt_hi=-1.0, Rn_hi=-1.0, TV_hi=-1.0)
    flags, tv = envelope_checks(mc, off, seqs, spec.law)
    assert flags == {"Et": "fail", "Vt": "fail", "Rn": "fail"} and tv["check"] == "fail"
    # one replicate has no variance flags; no histogram, no distance
    single = monte_carlo_moments(spec, 5, 2, replicates=1, seed=5)
    flags, tv = envelope_checks(single, env, seqs, spec.law)
    assert list(flags) == ["Et"] and tv is None


def test_sample_variance_error_matches_drawn_samples():
    # at many replicates the error from the replicates' state laws agrees with
    # the large-sample error computed from the drawn sample means themselves
    for law in (poisson_law(0.3), MutationLaw(mu=0.2, nu=0.1)):
        spec = ProcessSpec(build_schedule([0.5] * 6), law, 2)
        mc = monte_carlo_moments(spec, 6, 3, 20_000, 1)
        r = len(mc.t_values)
        d = mc.t_values - mc.t_values.mean()
        s2 = float(d @ d) / (r - 1)
        plug_in = np.sqrt((np.mean(d**4) - s2 * s2 * (r - 3) / (r - 1)) / r)
        assert mc.t_var == pytest.approx(s2, rel=1e-12)
        assert mc.t_var_se == pytest.approx(plug_in, rel=0.1)


def test_monte_carlo_counters():
    spec = spec_for([0.5] * 4, mu=0.3)
    mc = monte_carlo_moments(spec, 4, 2, replicates=500, seed=3, population_cap=10**4)
    final = simulate_batch(spec, 4, 500, 3)[0]
    assert mc.peak_population == final.sizes.max()
    assert mc.occupied_classes == (final.counts > 0).sum(axis=1).max()
    assert mc.cap_headroom == 10**4 / mc.peak_population


def test_batch_full_efficiency_doubles():
    spec = spec_for([1.0] * 5, S0=3)
    batches = simulate_batch(spec, 5, 40, 0, marks=tuple(range(6)))
    for g, batch in enumerate(batches):
        assert batch.gen == g
        assert (batch.sizes == 3 * 2**g).all()
        assert (batch.lambdas == 1.0).all() and batch.lambdas.shape == (40, g)


def test_batch_population_cap():
    spec = spec_for([1.0] * 10, S0=1)
    with pytest.raises(PopulationCapExceeded) as ei:
        simulate_batch(spec, 10, 8, 1, population_cap=100)
    assert (ei.value.gen, ei.value.size) == (7, 128)
    assert ei.value.sizes == [2**g for g in range(7)]
    # random growth: the first cycle where any row passes the cap, and the
    # first such row, as read off the uncapped run on the same stream
    spec = spec_for([0.7] * 12, S0=1)
    sizes = np.array([b.sizes for b in simulate_batch(spec, 12, 300, 5, marks=tuple(range(13)))])
    cap = 100
    gen = int(np.flatnonzero((sizes > cap).any(axis=1))[0])
    rows = np.flatnonzero(sizes[gen] > cap)
    assert len(rows) > 1
    row = int(rows[0])
    for run in (lambda: simulate_batch(spec, 12, 300, 5, population_cap=cap),
                lambda: monte_carlo_moments(spec, 12, 1, 300, 5, population_cap=cap)):
        with pytest.raises(PopulationCapExceeded) as ei:
            run()
        assert (ei.value.gen, ei.value.size) == (gen, sizes[gen, row])
        assert ei.value.sizes == sizes[:gen, row].tolist()


def test_batch_saturating_efficiency_follows_row_size():
    params = MMParams(C=50.0, D=51.0, S0=1)
    spec = ProcessSpec(params.as_schedule(), poisson_law(0.05), params.S0)
    batches = simulate_batch(spec, 12, 200, 4, marks=tuple(range(13)))
    for c in range(12):
        want = [mm_lambda(int(s), params.C, params.D) for s in batches[c].sizes]
        assert batches[c + 1].lambdas[:, c].tolist() == want
        assert np.array_equal(batches[c + 1].lambdas[:, :c], batches[c].lambdas)
    assert len(set(batches[12].lambdas[:, -1].tolist())) > 1


def test_monte_carlo_keep_samples():
    # every run keeps the sampled mean of each replicate
    spec = spec_for([0.5] * 3)
    mc = monte_carlo_moments(spec, 3, 2, replicates=16, seed=5)
    assert mc.t_values.shape == (16,)
    assert mc.t_mean == pytest.approx(float(mc.t_values.mean()))


def test_population_cap_exception():
    spec = spec_for([1.0] * 10, S0=1)
    with pytest.raises(PopulationCapExceeded) as ei:
        simulate(spec, 10, np.random.Generator(np.random.Philox(1)),
                 population_cap=100)
    err = ei.value
    assert err.size > 100
    assert 0 < err.gen <= 10
    assert err.sizes == [2**g for g in range(err.gen)]



def test_population_cap_below_initial_size():
    # refused before any draw, where it used to run a cycle and report a cap
    # exceeded at cycle 1 (even at lambda = 0, where the size never changes)
    for lam in (0.5, 0.0):
        spec = spec_for([lam] * 3, S0=2)
        rng = np.random.Generator(np.random.Philox(1))
        for run in (lambda: simulate(spec, 3, rng, population_cap=1),
                    lambda: monte_carlo_moments(spec, 3, 1, 4, 1, population_cap=1),
                    lambda: simulate_batch(spec, 3, 4, 1, population_cap=1)):
            with pytest.raises(ValueError, match="population cap 1 is below the initial size 2"):
                run()
        assert rng.random() == np.random.Generator(np.random.Philox(1)).random()
    # a cap equal to S0 holds a population that never grows
    spec = spec_for([0.0] * 3, S0=2)
    traj = simulate(spec, 3, np.random.Generator(np.random.Philox(1)), population_cap=2)
    assert [x.size for x in traj] == [2] * 4
    assert simulate_batch(spec, 3, 4, 1, population_cap=2)[0].sizes.tolist() == [2] * 4
    mc = monte_carlo_moments(spec, 3, 1, 4, 1, population_cap=2)
    assert (mc.peak_population, mc.cap_headroom) == (2, 1.0)

# ----- limiting sample distribution -----

def test_eta_star_distribution_moments():
    lams = [0.4, 0.9, 0.6, 0.3]
    seqs = derived_sequences(build_schedule(lams), 4)
    law = poisson_law(0.07)
    values, probs = eta_star_distribution(seqs, law, 4)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    mean = float(np.dot(values, probs))
    assert mean == pytest.approx(law.mu * seqs.W[4], abs=1e-9)
    var = float(np.dot((values - mean) ** 2, probs))
    Et, Vt = infinite_population_moments(seqs, law, 4, 1)
    assert var == pytest.approx(Vt, abs=1e-8)


def test_eta_star_two_point_law():
    lams = [0.4, 0.9]
    seqs = derived_sequences(build_schedule(lams), 2)
    law = MutationLaw(mu=0.1, nu=0.04)
    values, probs = eta_star_distribution(seqs, law, 2)
    assert float(np.dot(values, probs)) == pytest.approx(law.mu * seqs.W[2], abs=1e-9)
    with pytest.raises(ValueError):
        eta_star_distribution(seqs, MutationLaw(mu=0.0, nu=0.1), 2)


# ----- tiny exact enumeration -----

def test_enumerate_tiny_single_founder_one_cycle():
    dp = enumerate_tiny(build_schedule([0.5]), poisson_law(0.05), 1, 1)
    assert dp.Et == pytest.approx(0.05 / 4)


def test_enumerate_tiny_full_efficiency():
    # every particle duplicates, so after two cycles the average particle
    # carries exactly one increment in expectation
    dp = enumerate_tiny(build_schedule([1.0, 1.0]), poisson_law(0.05), 1, 2)
    assert dp.Et == pytest.approx(0.05)
    assert dp.M_eta == pytest.approx(0.05)


def test_enumerate_tiny_domain():
    sched = build_schedule([0.5] * 5)
    law = poisson_law(0.05)
    with pytest.raises(ValueError):
        enumerate_tiny(sched, law, 3, 2)
    with pytest.raises(ValueError):
        enumerate_tiny(sched, law, 1, 5)
    with pytest.raises(ValueError):
        enumerate_tiny(sched, law, 1, 2, ell=0)


def test_enumerate_tiny_matches_dynamic_program():
    law = MutationLaw(mu=0.1, nu=0.04)
    for S0 in (1, 2):
        for n in (0, 1, 2, 3):
            lams = [0.25, 0.5, 0.9, 0.4][:n] or []
            sched = build_schedule(lams or [0.5])
            tiny = enumerate_tiny(sched, law, S0, n, ell=2)
            dp = exact_sample_moments(sched, law, S0, n, 2)
            assert tiny.Et == pytest.approx(dp.Et, abs=1e-14)
            assert tiny.Vt == pytest.approx(dp.Vt, abs=1e-14)
            assert tiny.Rn == pytest.approx(dp.Rn, abs=1e-14)


def test_tiny_total_variation_is_small():
    # empirical sampling distribution of the mean concentrates around the
    # deterministic limit as founders grow
    lams = [0.5] * 4
    law = poisson_law(0.05)
    seqs = derived_sequences(build_schedule(lams), 4)
    t2 = enumerate_tiny(build_schedule(lams), law, 2, 4).Rn
    bound = moment_envelope(seqs, law, 2, 4, 1).Rn_hi
    assert t2 <= bound + 1e-14


@pytest.mark.parametrize("law,final,batch_sha,t_mean", [
    (poisson_law(0.7), {0: 11, 1: 16, 2: 19, 3: 5, 4: 2, 5: 2}, "a24bb030d02da044", 1.55),
    (poisson_law(3.5), {0: 3, 2: 1, 3: 3, 4: 5, 5: 6, 6: 4, 7: 5, 8: 4, 9: 8, 10: 3, 11: 5,
                        12: 4, 13: 1, 14: 6, 15: 1, 16: 1, 17: 3, 19: 1, 23: 1},
     "46069eb783e61f35", 7.55),
    (MutationLaw(mu=0.1, nu=0.04), {0: 37, 1: 18, 2: 5}, "c0ca564154b4d830", 0.22916666666666666),
])
def test_increment_table_built_once_keeps_the_draws(law, final, batch_sha, t_mean):
    # the table is made once per law and shared read-only; the draws and
    # states for fixed seeds are those of a table rebuilt on every call
    pmf = simulator._increments(law)[1]
    assert simulator._increments(dataclasses.replace(law))[1] is pmf   # an equal law's
    assert not pmf.flags.writeable
    spec = ProcessSpec(build_schedule([0.6, 0.3, 0.9, 0.5, 0.7, 0.4]), law, 3)
    for _ in range(2):
        assert simulate(spec, 6, np.random.default_rng(11))[-1].states == final
    counts = simulate_batch(spec, 6, 50, 7)[-1].counts
    assert hashlib.sha256(np.ascontiguousarray(counts).tobytes()).hexdigest()[:16] == batch_sha
    assert monte_carlo_moments(spec, 6, 3, 40, 5).t_mean == t_mean
