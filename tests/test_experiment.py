import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyvote import (
    DelegationError,
    ExperimentConfig,
    NoConvergenceError,
    PropagationConfig,
    StrandedPolicy,
    StrandedTrustError,
    TrustNetwork,
    analytic_traditional_error,
    run_experiment,
    run_trial,
)
from proxyvote import experiment
from conftest import four_node_network

UNIFORM = PropagationConfig(stranded_policy=StrandedPolicy.UNIFORM_TO_ACTIVE)


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

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_block_matches_blocks_of_one(data):
    # one block of B trials, cut into kernel passes of at most _BATCH, must
    # give exactly the triples of B blocks of one, or raise the error of
    # the lowest-index failing trial
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
    network = None if config.fresh_network_per_trial else experiment._shared_network(config)
    singles, first_error = [], None
    for i in range(trials):
        try:
            singles += experiment._trial_block(config, network, (size, i, i + 1))
        except (DelegationError, ValueError) as exc:
            first_error = exc
            break
    if first_error is None:
        assert experiment._trial_block(config, network, (size, 0, trials)) == singles
        return
    with pytest.raises(type(first_error)) as excinfo:
        experiment._trial_block(config, network, (size, 0, trials))
    assert str(excinfo.value) == str(first_error)
    assert excinfo.value.trial == first_error.trial == (size, len(singles), config.master_seed)


def test_block_raises_lowest_index_failing_trial():
    # trial 1 runs out of sweeps and trial 3 strands trust: a pass that ran
    # the reject check of all its trials before solving would raise trial 3's
    config = ExperimentConfig(
        n=12, k=1, trials=8, active_sizes=(3,), master_seed=212, solver="iterative",
        propagation=PropagationConfig(stranded_policy=StrandedPolicy.REJECT, max_iterations=2),
    )
    with pytest.raises(StrandedTrustError):
        run_trial(config, 3, 3)
    with pytest.raises(NoConvergenceError) as excinfo:
        run_experiment(config)
    assert excinfo.value.trial == (3, 1, 212)


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
