"""Quickstart: estimate a labeled-edge count on a synthetic OSN.

Run with::

    python examples/quickstart.py

The script

1. generates a small synthetic social network with binary "gender"
   labels (the Facebook-like stand-in from the dataset registry),
2. estimates the number of female-male friendships with two of the
   paper's algorithms using only 5% of |V| API calls,
3. compares both estimates against the exact ground truth (which the
   estimators never see — they only use the restricted neighbor-list
   API),
4. repeats one estimation on both walk engines: the dict graph runs the
   auditable reference engine through the restricted API, and its
   frozen numpy view (``csr_view(graph)``) runs a one-walker fleet with
   the same charged-call accounting — the type of the graph picks the
   engine, and
5. runs a whole NRMSE table cell (many repetitions of one estimation)
   on both engines: ``run_trials`` repeats it on the reference engine,
   and ``run_trials_prefix`` at one budget turns every repetition into
   one walker of a vectorized fleet sharing the frozen CSR arrays, with
   per-walker API-call ledgers — what ``execution="fleet"`` runs per
   cell, and the fastest way to reproduce the paper's tables.
"""

import time

from repro import count_target_edges, estimate_target_edge_count, load_dataset
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import run_trials, run_trials_prefix
from repro.graph.csr import csr_view


def main() -> None:
    # A Facebook-like graph at 25% of the default reproduction scale
    # (about 1,000 users) so the script finishes in a couple of seconds.
    dataset = load_dataset("facebook", seed=7, scale=0.25)
    graph = dataset.graph
    female, male = 1, 2

    truth = count_target_edges(graph, female, male)
    print(f"graph: {graph.num_nodes} users, {graph.num_edges} friendships")
    print(f"exact number of female-male friendships (hidden from the estimators): {truth}")
    print()

    for algorithm in ("NeighborSample-HH", "NeighborExploration-HH"):
        result = estimate_target_edge_count(
            graph,
            female,
            male,
            algorithm=algorithm,
            budget_fraction=0.05,
            seed=42,
        )
        error = result.relative_error(truth)
        print(f"{algorithm:>24}: estimate = {result.estimate:9.1f}   "
              f"(k = {result.sample_size} samples, {result.api_calls} API calls, "
              f"relative error = {error:.3f})")

    # The same estimation on both engines.  The dict graph runs the
    # reference engine; its CSR view runs a one-walker fleet with the
    # same charged-API-call accounting and distributionally equivalent
    # estimates.  One walker gains nothing from numpy, which pays per
    # step for the whole fleet: the speed comes from fleets of many
    # walkers, which is how the experiment harness uses the CSR arrays
    # (next block).
    print()
    trials = 10
    for name, substrate in (("dict", graph), ("csr_view", csr_view(graph))):
        started = time.perf_counter()
        estimates = [
            estimate_target_edge_count(
                substrate,
                female,
                male,
                algorithm="NeighborSample-HH",
                sample_size=5000,
                burn_in=200,
                seed=42 + trial,
            ).estimate
            for trial in range(trials)
        ]
        elapsed = (time.perf_counter() - started) * 1000
        mean = sum(estimates) / trials
        print(f"{name:<8}: mean of {trials} estimates = {mean:9.1f}   "
              f"(relative error = {abs(mean - truth) / truth:.3f}, "
              f"{elapsed / trials:6.1f} ms/trial)")

    # Finally, a whole NRMSE table cell — 200 independent repetitions of
    # one estimation, the paper's setting — run both ways.  Fleet mode
    # turns the cell into one vectorized walker fleet (one walker per
    # repetition), which is how `compare_algorithms` / the CLI's
    # `--execution fleet` reproduce Tables 4-17 in seconds.
    print()
    suite = build_algorithm_suite(graph, include_baselines=False)
    algorithm = "NeighborExploration-HH"
    args = (graph, female, male, suite[algorithm], algorithm)
    sample_size = max(1, graph.num_nodes // 20)  # 5% of |V|
    for execution in ("sequential", "fleet"):
        started = time.perf_counter()
        if execution == "fleet":
            (outcome,) = run_trials_prefix(*args, [sample_size], 200, 200, seed=42)
        else:
            outcome = run_trials(*args, sample_size, 200, 200, seed=42)
        elapsed = (time.perf_counter() - started) * 1000
        print(f"execution={execution:<10}: cell of {outcome.repetitions} repetitions, "
              f"NRMSE = {outcome.nrmse:.3f}, mean estimate = {outcome.mean_estimate:8.1f} "
              f"({elapsed:7.1f} ms)")


if __name__ == "__main__":
    main()
