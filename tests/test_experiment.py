import math
import os
import resource
import subprocess
import sys
import tracemalloc
import concurrent.futures
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyvote import (
    ActiveSet,
    DelegationError,
    ExperimentConfig,
    NoConvergenceError,
    PropagationConfig,
    StrandedPolicy,
    StrandedTrustError,
    TrustNetwork,
    analytic_traditional_error,
    compute_weights_exact,
    decision_report,
    generate_network,
    run_experiment,
    run_trial,
)
from proxyvote import delegation, experiment
from conftest import four_node_network

UNIFORM = PropagationConfig(stranded_policy=StrandedPolicy.UNIFORM_TO_ACTIVE)


def triples(rows):
    """A pass's (err_traditional, err_weighted, stranded mass) rows as
    run_trial's (err_traditional, err_weighted, stranded) triples."""
    return [(err_t, err_w, mass > 0.0) for err_t, err_w, mass in rows.tolist()]


def brute_force_traditional_error(active_size, n, samples=1_000_000, seed=123, batch=50_000):
    """Independent oracle: direct Monte Carlo of |active mean - population mean|
    for i.i.d. uniform opinions.  Opinions are exchangeable, so the sampled
    active set can be taken to be the first ``active_size`` nodes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, active_size, n]))
    total, done = 0.0, 0
    while done < samples:
        b = min(batch, samples - done)
        opinions = rng.random((b, n))
        total += np.abs(opinions[:, :active_size].mean(axis=1) - opinions.mean(axis=1)).sum()
        done += b
    return total / samples


def test_analytic_error_frozen_values():
    assert analytic_traditional_error(100, 100) == 0.0
    assert analytic_traditional_error(5, 100) == pytest.approx(0.10039827220867252, abs=1e-15)
    assert analytic_traditional_error(1, 100) == pytest.approx(0.22917489221187703, abs=1e-15)
    assert analytic_traditional_error(10, 100) == pytest.approx(0.0690988298942671, abs=1e-15)


def test_analytic_error_bounds():
    with pytest.raises(ValueError):
        analytic_traditional_error(0, 100)
    with pytest.raises(ValueError):
        analytic_traditional_error(101, 100)
    with pytest.raises(ValueError):
        analytic_traditional_error(1, 0)


def test_analytic_error_against_brute_force_oracle():
    formula = analytic_traditional_error(5, 100)
    oracle = brute_force_traditional_error(5, 100)
    assert abs(formula - oracle) / oracle < 0.02


def test_analytic_error_gap_at_size_one_is_documented():
    # the normal approximation is weakest at size 1: the brute-force value
    # sits about 8% above the formula; keep that gap pinned down
    formula = analytic_traditional_error(1, 100)
    oracle = brute_force_traditional_error(1, 100, samples=400_000)
    gap = (oracle - formula) / oracle
    assert 0.04 < gap < 0.11


def test_run_trial_deterministic():
    config = ExperimentConfig(n=30, k=3, trials=10, active_sizes=(5,), master_seed=77)
    first = run_trial(config, 5, 3)
    second = run_trial(config, 5, 3)
    assert first == second
    other_index = run_trial(config, 5, 4)
    assert first != other_index


def test_run_trial_full_participation_is_exact_zero():
    config = ExperimentConfig(n=20, k=2, trials=1, active_sizes=(20,), master_seed=5)
    err_t, err_w, stranded = run_trial(config, 20, 0)
    assert err_t == 0.0 and err_w == 0.0 and stranded is False


def test_run_trial_on_injected_four_node_network():
    net = four_node_network()
    # master seed 15 samples the representatives {2, 3} at size 2, trial 0
    config = ExperimentConfig(
        n=4, k=3, trials=1, active_sizes=(2,), master_seed=15, fresh_network_per_trial=False
    )
    err_t, err_w, stranded = run_trial(config, 2, 0, network=net)
    assert err_t == pytest.approx(0.05, abs=1e-12)
    assert err_w == pytest.approx(0.0, abs=1e-12)
    assert stranded is False


def test_run_trial_rejects_bad_inputs():
    config = ExperimentConfig(n=10, k=2, trials=1, active_sizes=(3,), master_seed=1)
    with pytest.raises(ValueError):
        run_trial(config, 0, 0)
    with pytest.raises(ValueError):
        run_trial(config, 11, 0)
    with pytest.raises(ValueError):
        run_trial(config, 3, -1)
    # an injected network needs fixed mode here as in run_experiment
    fresh = ExperimentConfig(n=4, k=2, trials=1, active_sizes=(2,), master_seed=1)
    with pytest.raises(ValueError, match="requires fresh_network_per_trial=False"):
        run_trial(fresh, 2, 0, four_node_network())


@pytest.mark.parametrize("value", [2.0, "1", True, None])
def test_run_arguments_must_be_integers(value):
    # a float or string used to fail with a TypeError deep in the pool or the
    # seeding, and True to run as 1
    config = ExperimentConfig(n=10, k=2, trials=1, active_sizes=(3,), master_seed=1)
    with pytest.raises(ValueError, match="workers must be an integer"):
        run_experiment(config, workers=value)
    with pytest.raises(ValueError, match="active_size must be an integer"):
        run_trial(config, value, 0)
    with pytest.raises(ValueError, match="trial_index must be an integer"):
        run_trial(config, 3, value)
    assert run_trial(config, np.int64(3), np.uint8(1)) == run_trial(config, 3, 1)


def test_run_trial_propagates_stranded_under_reject():
    # every 2-node active set strands trust here: 2 and 3 are dangling, and
    # the 0 <-> 1 pair has no edge out
    net = TrustNetwork([0.6, 0.4, 0.2, 1.0], [0, 1], [1, 0], [1.0, 1.0])
    config = ExperimentConfig(
        n=4,
        k=1,
        trials=1,
        active_sizes=(2,),
        master_seed=1,
        fresh_network_per_trial=False,
        propagation=PropagationConfig(stranded_policy=StrandedPolicy.REJECT),
    )
    with pytest.raises(StrandedTrustError):
        run_trial(config, 2, 0, network=net)
    uniform_cfg = ExperimentConfig(
        n=4, k=1, trials=1, active_sizes=(2,), master_seed=1,
        fresh_network_per_trial=False, propagation=UNIFORM,
    )
    err_t, err_w, stranded = run_trial(uniform_cfg, 2, 0, network=net)
    assert stranded is True
    assert math.isfinite(err_t) and math.isfinite(err_w)


def test_run_experiment_full_size_row_is_zero():
    config = ExperimentConfig(n=15, k=2, trials=50, active_sizes=(15,), master_seed=9)
    result = run_experiment(config)
    row = result.rows[0]
    assert row.mean_err_traditional == 0.0
    assert row.mean_err_weighted == 0.0
    assert row.stderr_traditional == 0.0 and row.stderr_weighted == 0.0


def _injected_network(n, rng):
    """A network of any shape with finite opinions: each ordered pair of
    distinct nodes is an edge with a random chance, a fifth of them with zero
    raw trust, so nodes may dangle and groups may strand trust."""
    src, tgt = np.nonzero(~np.eye(n, dtype=bool))
    keep = rng.random(len(src)) < rng.random()
    raw = rng.random(int(keep.sum()))
    raw[rng.random(len(raw)) < 0.2] = 0.0
    return TrustNetwork(rng.random(n), src[keep], tgt[keep], raw)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_full_participation_rows_are_exact_zeros(data):
    # with every node active nothing is transient or stranded, every weight is
    # 1.0 exactly and the three decisions sum the same opinions in the same
    # order: the kernel's row at size n is (+0.0, +0.0, +0.0), the row that
    # run_experiment leaves in place of running the trial
    n = data.draw(st.integers(2, 60), label="n")
    mode = data.draw(st.sampled_from(["fresh", "fixed", "injected"]), label="mode")
    config = ExperimentConfig(
        n=n,
        k=None if mode == "injected" else data.draw(st.integers(1, n - 1), label="k"),
        trials=data.draw(st.integers(1, 25), label="trials"),
        active_sizes=(n,),
        master_seed=data.draw(_SEEDS, label="seed"),
        fresh_network_per_trial=mode == "fresh",
        solver=data.draw(st.sampled_from(experiment.SOLVERS), label="solver"),
        propagation=PropagationConfig(
            stranded_policy=data.draw(st.sampled_from(StrandedPolicy), label="policy")),
    )
    injected = None
    if mode == "injected":
        injected = _injected_network(n, np.random.default_rng(data.draw(st.integers(0, 2**32))))
    rows = experiment._trial_block(config, experiment._trial_network(config, injected),
                                   (n, 0, config.trials))
    assert rows.shape == (config.trials, 3) and rows.tobytes() == bytes(rows.nbytes)
    assert run_trial(config, n, config.trials - 1, injected) == (0.0, 0.0, False)
    assert run_experiment(config, injected).rows == (experiment._aggregate(n, rows),)


def test_full_participation_alone_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = ExperimentConfig(n=30, k=3, trials=50, active_sizes=(30,), master_seed=6)
    (row,) = run_experiment(config, workers=2).rows
    assert (row.mean_err_traditional, row.stderr_traditional, row.mean_err_weighted,
            row.stderr_weighted, row.stranded_fraction) == (0.0,) * 5
    assert run_experiment(config, workers=1).rows == (row,)


def test_full_participation_keeps_a_smaller_sizes_error_first():
    # every 2-node active set strands trust here (2 and 3 dangle, 0 <-> 1 has
    # no edge out); size 4 runs nothing, and size 2's first trial still raises
    net = TrustNetwork([0.6, 0.4, 0.2, 1.0], [0, 1], [1, 0], [1.0, 1.0])
    config = ExperimentConfig(n=4, k=None, trials=5, active_sizes=(4, 2), master_seed=1,
                              fresh_network_per_trial=False,
                              propagation=PropagationConfig(stranded_policy=StrandedPolicy.REJECT))
    for workers in (1, 2):
        with pytest.raises(StrandedTrustError) as excinfo:
            run_experiment(config, net, workers=workers)
        assert excinfo.value.trial == (2, 0, 1)


def test_injected_network_is_validated_before_any_pass(monkeypatch):
    # a NaN opinion would give NaN rows, and the zero rows at size n assume
    # finite opinions; every fault is listed, as the file loader lists them
    def no_pass(*args):
        raise AssertionError("a pass was run")

    monkeypatch.setattr(experiment, "_kernel", no_pass)
    net = TrustNetwork([0.5, float("nan"), 0.2], [0, 1, 2], [1, 2, 2], [1.0, 1.0, 1.0])
    config = ExperimentConfig(n=3, k=None, trials=4, active_sizes=(1, 3), master_seed=2,
                              fresh_network_per_trial=False, propagation=UNIFORM)
    message = ("injected network is invalid:\nnode 1: opinion nan outside [0.0, 1.0]\n"
               "edge (2, 2): self-loop on node 2")
    for call in (lambda: run_experiment(config, net), lambda: run_trial(config, 1, 0, net)):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_run_experiment_rows_ascending_and_echo_config():
    config = ExperimentConfig(n=25, k=3, trials=40, active_sizes=(10, 2, 25), master_seed=3)
    result = run_experiment(config)
    assert [r.active_size for r in result.rows] == [2, 10, 25]
    assert all(r.trials == 40 for r in result.rows)
    assert result.config == config
    for row in result.rows:
        assert 0.0 <= row.stranded_fraction <= 1.0


def test_run_experiment_deterministic_and_schedule_independent():
    config = ExperimentConfig(n=40, k=3, trials=60, active_sizes=(2, 8), master_seed=101)
    sequential = run_experiment(config, workers=1)
    again = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    assert sequential.rows == again.rows
    assert sequential.rows == parallel.rows


def test_run_experiment_starts_at_most_one_pool(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    config = ExperimentConfig(n=20, k=2, trials=7, active_sizes=(2, 5, 20), master_seed=4)
    parallel = run_experiment(config, workers=2)
    assert len(pools) == 1
    serial = run_experiment(config, workers=1)
    assert len(pools) == 1
    assert serial.rows == parallel.rows


def test_run_experiment_fixed_network_mode_deterministic():
    config = ExperimentConfig(
        n=30, k=3, trials=40, active_sizes=(4,), master_seed=55, fresh_network_per_trial=False
    )
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.rows == b.rows


def test_run_experiment_solvers_agree():
    base = dict(n=30, k=3, trials=40, active_sizes=(3, 30), master_seed=8)
    exact = run_experiment(ExperimentConfig(solver="exact", **base))
    iterative = run_experiment(ExperimentConfig(solver="iterative", **base))
    for row_e, row_i in zip(exact.rows, iterative.rows):
        assert row_i.mean_err_traditional == pytest.approx(row_e.mean_err_traditional, abs=1e-12)
        assert row_i.mean_err_weighted == pytest.approx(row_e.mean_err_weighted, abs=1e-7)


def test_run_experiment_injected_network_requires_fixed_mode():
    net = four_node_network()
    fresh = ExperimentConfig(n=4, k=2, trials=5, active_sizes=(2,), master_seed=1)
    with pytest.raises(ValueError):
        run_experiment(fresh, network=net)
    wrong_n = ExperimentConfig(
        n=5, k=2, trials=5, active_sizes=(2,), master_seed=1, fresh_network_per_trial=False
    )
    with pytest.raises(ValueError):
        run_experiment(wrong_n, network=net)
    # k may be left out only when no network has to be drawn
    fixed = dict(n=4, trials=5, active_sizes=(2,), master_seed=1, fresh_network_per_trial=False)
    assert run_experiment(ExperimentConfig(k=None, **fixed), network=net).rows == \
        run_experiment(ExperimentConfig(k=3, **fixed), network=net).rows
    fresh_no_k = ExperimentConfig(n=4, k=None, active_sizes=(2,))
    for config in (ExperimentConfig(k=None, **fixed), fresh_no_k):
        with pytest.raises(ValueError, match="k is needed to draw networks"):
            run_experiment(config)
        with pytest.raises(ValueError, match="k is needed to draw networks"):
            run_trial(config, 2, 0)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=1)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, k=10)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(active_sizes=())
    with pytest.raises(ValueError):
        ExperimentConfig(active_sizes=(5, 5))
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, active_sizes=(11,))
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=-4)
    with pytest.raises(ValueError):
        ExperimentConfig(solver="magic")
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(trials=1, active_sizes=(2,)), workers=0)
    with pytest.raises(ValueError, match="CPU count"):
        run_experiment(ExperimentConfig(trials=1, active_sizes=(2,)), workers=os.cpu_count() + 1)


@pytest.mark.parametrize("field, value", [
    ("n", 30.0), ("k", 3.0), ("trials", 5.0), ("master_seed", 1.5), ("active_sizes", (2.5,)),
    ("n", "30"), ("active_sizes", ("2",)), ("trials", True), ("k", False),
])
def test_experiment_config_refuses_fields_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("tolerance", [1e-3, float("inf")])
def test_experiment_config_refuses_a_tolerance_over_the_conservation_bound(tolerance):
    # the iterative solve drops up to its tolerance of residual trust, and each
    # trial's weights must sum to n within CONSERVATION_TOL
    with pytest.raises(ValueError) as excinfo:
        ExperimentConfig(solver="iterative", propagation=PropagationConfig(tolerance=tolerance))
    assert str(excinfo.value) == (f"tolerance must be at most 1e-06 (the bound on |sum of weights"
                                  f" - n|), got {tolerance}")
    ExperimentConfig(solver="iterative", propagation=PropagationConfig(tolerance=1e-6))


@pytest.mark.parametrize("field, value, message", [
    ("fresh_network_per_trial", "false", "must be a bool"),
    ("fresh_network_per_trial", None, "must be a bool"),
    ("fresh_network_per_trial", 1, "must be a bool"),
    ("propagation", {"tolerance": 1e-9}, "must be a PropagationConfig"),
    ("propagation", None, "must be a PropagationConfig"),
])
def test_experiment_config_refuses_fields_of_the_wrong_type(field, value, message):
    # "false" would draw fresh networks and None a fixed one without a word;
    # a dict would fail later as an AttributeError
    with pytest.raises(ValueError, match=f"{field} {message}"):
        ExperimentConfig(**{field: value})


def test_experiment_config_stores_a_numpy_bool_as_bool():
    for value in (np.bool_(True), np.bool_(False)):
        config = ExperimentConfig(fresh_network_per_trial=value)
        assert type(config.fresh_network_per_trial) is bool
        assert config.fresh_network_per_trial is bool(value)


def test_experiment_config_stores_numpy_integers_as_int():
    config = ExperimentConfig(n=np.int64(30), k=np.uint8(3), trials=np.int32(5),
                              active_sizes=(np.int64(2), np.uint16(30)),
                              master_seed=np.uint64(2**64 - 1))
    fields = (config.n, config.k, config.trials, config.master_seed, *config.active_sizes)
    assert [type(v) for v in fields] == [int] * 6
    assert config.master_seed == 2**64 - 1


_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3]), st.integers(0, 2**96))


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, data=st.data())
def test_trial_rngs_are_the_trials_own_streams(seed, data):
    # each generator of a pass must draw exactly as default_rng(SeedSequence(
    # [seed, size, i])) does, for seeds and indices of one word or more
    n = data.draw(st.integers(2, 60), label="n")
    size = data.draw(st.integers(1, n), label="size")
    count = data.draw(st.integers(1, 6), label="count")
    lo = data.draw(st.one_of(st.integers(0, 50), st.integers(2**32 - count, 2**32),
                             st.integers(0, 2**40)), label="lo")
    rngs = list(experiment._trial_rngs(seed, size, lo, lo + count))
    assert len(rngs) == count
    for i, rng in enumerate(rngs, start=lo):
        reference = np.random.default_rng(np.random.SeedSequence([seed, size, i]))
        assert rng.random(3).tolist() == reference.random(3).tolist()
        assert rng.choice(n, size=size, replace=False).tolist() == \
            reference.choice(n, size=size, replace=False).tolist()


class _Stop(Exception):
    pass


def kernel_draws(config, network, size, lo, hi, pass_rngs=None):
    """The sorted active sets the kernel draws for trials lo..hi-1, read at its
    call of _reach before any solve, and the trials it then drew again one at a
    time.  ``pass_rngs``, if given, stands in for the pass's _trial_rngs call."""
    seen, calls, real = [], [], experiment._trial_rngs

    def trial_rngs(seed, size, start, stop):
        calls.append(start)
        return (pass_rngs if len(calls) == 1 and pass_rngs else real)(seed, size, start, stop)

    def stop(src, tgt, norm, active, nodes):
        seen.append(active.reshape(hi - lo, size) - np.arange(0, nodes, config.n)[:, None])
        raise _Stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "_trial_rngs", trial_rngs)
        patch.setattr(experiment, "_reach", stop)
        with pytest.raises(_Stop):
            experiment._kernel(config, network, size, lo, hi)
    return seen[0].tolist(), calls[1:]


def choice_sets(config, size, lo, hi):
    """np.sort of each trial's rng.choice on its own stream, after its network's
    uniforms when it draws one."""
    sets = []
    for i in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, size, i]))
        if config.fresh_network_per_trial:
            rng.random(config.n * (config.k + 1))
        sets.append(np.sort(rng.choice(config.n, size=size, replace=False)).tolist())
    return sets


def draw_config(n, size, seed, mode, k=3):
    """A config of one size and its kernel network: None (fresh), the master
    seed's network (fixed) or one made apart from it (injected)."""
    if mode == "injected":
        network = generate_network(n, min(k, n - 1), np.random.default_rng(seed % 2**32 + 1))
        config = ExperimentConfig(n=n, k=None, trials=1, active_sizes=(size,), master_seed=seed,
                                  fresh_network_per_trial=False)
        return config, experiment._trial_network(config, network)
    config = ExperimentConfig(n=n, k=min(k, n - 1), trials=1, active_sizes=(size,),
                              master_seed=seed, fresh_network_per_trial=mode == "fresh")
    return config, experiment._trial_network(config, None)


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, data=st.data())
def test_kernel_active_sets_are_rng_choice(seed, data):
    # a pass reads each trial's stream as one block of words: its picks are
    # numpy's bounded 32-bit draws on the words' halves, made into Floyd's set
    # as arrays.  Every set is rng.choice's, and no row is drawn again unless
    # numpy rejects a word (about 1 in 10**6 trials at n = 100)
    n = data.draw(st.one_of(st.integers(2, 100), st.integers(1_000, 10_000)), label="n")
    size = data.draw(st.integers(1, n), label="size")
    mode = data.draw(st.sampled_from(["fresh", "fixed", "injected"]), label="mode")
    k = data.draw(st.integers(1, 3), label="k")
    count = data.draw(st.integers(1, 4), label="count")
    lo = data.draw(st.one_of(st.integers(0, 50), st.integers(0, 2**40)), label="lo")
    config, network = draw_config(n, size, seed, mode, k)
    sets, redrawn = kernel_draws(config, network, size, lo, lo + count)
    assert sets == choice_sets(config, size, lo, lo + count)
    assert redrawn == [] or n >= 1_000


@pytest.mark.parametrize("size", [200, 201])
@pytest.mark.parametrize("mode", ["fresh", "fixed"])
def test_kernel_draws_every_set_above_n_10000_by_rng_choice(size, mode):
    # above n = 10,000 numpy's choice shuffles part of the population when
    # size > n // 50 and draws 64-bit words past n = 2**32; every row there is
    # drawn again by rng.choice itself
    config, network = draw_config(10_001, size, 2**64 + 3, mode)
    sets, redrawn = kernel_draws(config, network, size, 5, 8)
    assert sets == choice_sets(config, size, 5, 8)
    assert redrawn == [5, 6, 7]


def test_a_rejected_word_sends_its_row_to_rng_choice():
    # numpy's bounded draw over 0 .. j rejects a 32-bit word w when
    # w * (j + 1) mod 2**32 < 2**32 mod (j + 1), and draws again, so the
    # row's later picks read other words.  Pick 3 (j + 1 = 29) reads word
    # 2 * head + 3 of a row: trial 2 gets 0 there, trial 3 the word at the
    # bound and trial 4 the word one below it.  Trials 2 and 4 alone are
    # drawn again, each on its own stream
    config, network = draw_config(30, 5, 4, "fresh", k=2)
    head, real = config.n * (config.k + 1), experiment._trial_rngs
    bound = 2**32 % 29 * pow(29, -1, 2**32) % 2**32  # w * 29 mod 2**32 == 2**32 mod 29
    words_at = {2: 0, 3: bound, 4: (bound - pow(29, -1, 2**32)) % 2**32}

    def crafted(seed, size, lo, hi):
        for i, rng in enumerate(real(seed, size, lo, hi), start=lo):
            words = rng.bit_generator.random_raw(head + 3).astype("<u8")
            if i in words_at:
                words.view("<u4")[2 * head + 3] = words_at[i]
            yield SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda _, w=words: w))

    sets, redrawn = kernel_draws(config, network, 5, 0, 5, pass_rngs=crafted)
    assert redrawn == [2, 4]
    expected = choice_sets(config, 5, 0, 5)
    assert [sets[i] for i in (0, 1, 2, 4)] == [expected[i] for i in (0, 1, 2, 4)]
    # a real stream: trial 78 of seed 0 at n = 10,000, size 3,000 rejects its
    # 481st word, and the trials around it none
    config, network = draw_config(10_000, 3_000, 0, "fixed")
    sets, redrawn = kernel_draws(config, network, 3_000, 76, 81)
    assert sets == choice_sets(config, 3_000, 76, 81)
    assert redrawn == [78]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_block_matches_blocks_of_one(data):
    # one pass of B trials must give exactly the rows of B passes of
    # one, or raise the error of the lowest-index failing trial
    n = data.draw(st.integers(2, 40), label="n")
    config = ExperimentConfig(
        n=n,
        k=data.draw(st.sampled_from(sorted({1, min(3, n - 1), n - 1})), label="k"),
        trials=1,
        active_sizes=(data.draw(st.integers(1, n), label="size"),),
        master_seed=data.draw(st.integers(0, 2**16), label="seed"),
        fresh_network_per_trial=data.draw(st.booleans(), label="fresh"),
        solver=data.draw(st.sampled_from(experiment.SOLVERS), label="solver"),
        propagation=PropagationConfig(
            stranded_policy=data.draw(st.sampled_from(StrandedPolicy), label="policy"),
            # a starved sweep budget makes trials fail in both orders with stranding
            max_iterations=data.draw(st.sampled_from([2, 100_000]), label="max_iterations"),
        ),
    )
    trials = data.draw(st.sampled_from([1, 7, 8, 9, 17]), label="trials")
    size = config.active_sizes[0]
    network = experiment._trial_network(config, None)
    singles, first_error = [], None
    for i in range(trials):
        try:
            singles.append(experiment._trial_block(config, network, (size, i, i + 1)))
        except (DelegationError, ValueError) as exc:
            first_error = exc
            break
    if first_error is None:
        batched = experiment._trial_block(config, network, (size, 0, trials))
        assert batched.tolist() == np.vstack(singles).tolist()
        return
    with pytest.raises(type(first_error)) as excinfo:
        experiment._trial_block(config, network, (size, 0, trials))
    assert str(excinfo.value) == str(first_error)
    assert excinfo.value.trial == first_error.trial == (size, len(singles), config.master_seed)


@pytest.mark.parametrize("fresh", [True, False])
def test_kernel_matches_the_public_calls(fresh):
    # the kernel draws each trial's network in two steps and solves trials
    # in passes; a trial still gets, bit for bit, what the public calls give
    # on its stream: generate_network, rng.choice, the exact solve, the report
    config = ExperimentConfig(n=40, k=2, trials=12, active_sizes=(1, 3, 10, 40), master_seed=9,
                              propagation=UNIFORM, fresh_network_per_trial=fresh)
    shared = experiment._trial_network(config, None)
    for size in config.active_sizes:
        replica = []
        for i in range(config.trials):
            rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, size, i]))
            network = generate_network(config.n, config.k, rng) if fresh else shared
            active = ActiveSet(rng.choice(config.n, size=size, replace=False))
            weights = compute_weights_exact(network, active, StrandedPolicy.UNIFORM_TO_ACTIVE)
            report = decision_report(network, active, weights)
            replica.append((report.error_traditional, report.error_weighted,
                            weights.stranded_mass > 0.0))
        assert [run_trial(config, size, i) for i in range(config.trials)] == replica
        assert triples(experiment._trial_block(config, shared, (size, 0, config.trials))) == replica


@pytest.mark.parametrize("fresh", [True, False])
def test_exact_block_limit_is_per_trial(monkeypatch, fresh):
    # room for two 30 x 30 blocks, less than a pass of 32 trials stacks: the
    # limit is on one trial's block, so a run neither fails nor changes bits
    # with the number of trials that share a pass
    monkeypatch.setattr(delegation, "EXACT_BLOCK_BYTES", 2 * 30 * 30 * 8)
    config = ExperimentConfig(n=32, k=3, trials=32, active_sizes=(2, 5), master_seed=3,
                              propagation=UNIFORM, fresh_network_per_trial=fresh)
    shared = experiment._trial_network(config, None)
    for size in config.active_sizes:
        singles = [run_trial(config, size, i) for i in range(config.trials)]
        assert triples(experiment._trial_block(config, shared, (size, 0, config.trials))) == singles
    assert run_experiment(config, workers=2).rows == run_experiment(config, workers=1).rows


def test_pass_size_keeps_rows(monkeypatch):
    # passes of one trial against the default budget's one pass per size
    # (n=30 trials cost 12 KB, so the 40 trials of a size fit one pass)
    for solver in experiment.SOLVERS:
        config = ExperimentConfig(n=30, k=3, trials=40, active_sizes=(2, 5, 30), master_seed=8,
                                  propagation=UNIFORM, solver=solver)
        default = run_experiment(config).rows
        monkeypatch.setattr(experiment, "_PASS_BYTES", 0)
        assert run_experiment(config).rows == default
        monkeypatch.undo()


def test_pass_size_by_bytes():
    # passes grow as the dense block shrinks with the active size; at
    # n=2000 one trial's dense block alone passes the budget
    assert [experiment._pass_trials(100, 300, s) for s in (2, 5, 10, 20, 50, 100)] == [
        21, 22, 24, 29, 53, 109]
    assert experiment._pass_trials(2000, 6000, 2) == 1


def test_passes_of_several_trials_fit_the_budget():
    # why the exact solve needs no slicing: a pass of several trials stacks
    # at most _PASS_BYTES of T x T blocks, far below EXACT_BLOCK_BYTES, and
    # a pass of one is one block, which the per-trial guard covers
    assert experiment._PASS_BYTES <= delegation.EXACT_BLOCK_BYTES
    for n in range(2, 201):
        for k in sorted({1, 2, 3, 10, n - 1} & set(range(1, n))):
            for size in range(1, n + 1):
                per_pass = experiment._pass_trials(n, n * k, size)
                assert per_pass == 1 or per_pass * 8 * (n - size) ** 2 <= experiment._PASS_BYTES


def test_injected_network_passes_are_costed_at_its_edges():
    # a complete 100-node network has 9,900 edges; a pass costed at a k of 3
    # would hold 21 trials and trace a peak of about 28 MiB, against 2.7 MiB
    net = generate_network(100, 99, np.random.default_rng(5))
    config = ExperimentConfig(n=100, k=3, trials=40, active_sizes=(2,), master_seed=2,
                              fresh_network_per_trial=False, propagation=UNIFORM)
    run_experiment(config, network=net)  # imports and caches outside the traced run
    tracemalloc.start()
    try:
        run_experiment(config, network=net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * experiment._PASS_BYTES


def test_block_raises_lowest_index_failing_trial(monkeypatch):
    # trial 1 runs out of sweeps and trial 3 strands trust: a pass that ran
    # the reject check of all its trials before solving would raise trial 3's
    config = ExperimentConfig(
        n=12, k=1, trials=8, active_sizes=(3,), master_seed=1, solver="iterative",
        propagation=PropagationConfig(stranded_policy=StrandedPolicy.REJECT, max_iterations=2),
    )
    with pytest.raises(StrandedTrustError):
        run_trial(config, 3, 3)
    with pytest.raises(NoConvergenceError) as excinfo:
        run_experiment(config)
    assert excinfo.value.trial == (3, 1, 1)
    # passes of one trial: the failing passes 1 and 3 race on a pool, and
    # the lowest index still wins
    monkeypatch.setattr(experiment, "_PASS_BYTES", 0)
    for workers in (1, 2):
        with pytest.raises(NoConvergenceError) as excinfo:
            run_experiment(config, workers=workers)
        assert excinfo.value.trial == (3, 1, 1)


def test_failing_pass_whose_trials_pass_alone_returns_their_rows(monkeypatch):
    # a pass may fail as a whole (here: out of memory) though each of its
    # trials runs alone; the run then gives the rows of the lone trials
    config = ExperimentConfig(trials=5, active_sizes=(2, 5))
    expected = run_experiment(config).rows
    kernel = experiment._kernel

    def small_passes_only(config, network, size, lo, hi):
        if hi - lo > 1:
            raise MemoryError("pass too large")
        return kernel(config, network, size, lo, hi)

    monkeypatch.setattr(experiment, "_kernel", small_passes_only)
    assert run_experiment(config).rows == expected


def test_absurd_trial_count_raises_before_any_pass(monkeypatch):
    # results for 10**15 trials cannot be allocated; no pass is cut or run
    def no_pass(*args):
        raise AssertionError("a pass was cut")

    monkeypatch.setattr(experiment, "_pass_trials", no_pass)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # 10**30 rows are beyond numpy's array size, which raises ValueError
    for trials in (10**15, 10**30):
        for workers in (1, 2):
            with pytest.raises(MemoryError):
                run_experiment(ExperimentConfig(trials=trials, active_sizes=(2,)), workers=workers)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 64 * 1024  # KiB


def test_import_leaves_the_process_pool_unimported():
    # concurrent.futures and multiprocessing cost about 2 MiB of RSS; only a
    # run with workers > 1 imports them.  numpy.random costs about 5.5 MiB;
    # only a command that draws imports it
    code = ("import sys; import proxyvote, proxyvote.cli; print(sorted("
            "{'concurrent.futures', 'multiprocessing', 'numpy.random'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_experiment_leaves_numpy_ma_unimported():
    # numpy.ma costs about 1 MiB of RSS; np.unique is one call that imports it
    code = (
        "import sys; import proxyvote as pv; "
        "pv.run_experiment(pv.ExperimentConfig(n=30, k=3, trials=20, active_sizes=(2, 30))); "
        "pv.run_experiment(pv.ExperimentConfig(n=30, k=1, trials=20, active_sizes=(2,), "
        "fresh_network_per_trial=False, solver='iterative')); "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_weighted_beats_traditional_at_a_large_out_degree():
    # at k = n - 1 trust spreads over every other node, and weighting wins at
    # every size (README, "Behavior as the out-degree grows"); the statistic is
    # the paired one, err_traditional - err_weighted of the same trial: over
    # master seeds 0-29 at these settings its smallest gap/se was +5.5
    config = ExperimentConfig(n=100, k=99, trials=100, master_seed=20260811, propagation=UNIFORM)
    for size in (2, 5, 10, 20, 50):
        rows = experiment._trial_block(config, None, (size, 0, config.trials))
        gain = rows[:, 0] - rows[:, 1]
        assert gain.mean() > 3 * gain.std(ddof=1) / math.sqrt(config.trials), size
