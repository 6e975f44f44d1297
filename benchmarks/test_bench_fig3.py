"""Figure 3 reproduction: Pareto fronts on the real data set (data set 1).

Five seeded NSGA-II populations (min-energy / min-min / max-utility /
max-U/E / random) on 250 tasks over 15 minutes, snapshotted at scaled
versions of the paper's 100 / 1e3 / 1e4 / 1e5 iteration checkpoints.

The benchmark times one NSGA-II generation at figure-3 scale; the
session-level figure run supplies the reproduced data, which is checked
against the paper's qualitative claims and written to
``benchmarks/output/figure3.txt``.
"""

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.sim.evaluator import ScheduleEvaluator

from conftest import BENCH_SEED, FIG3_POP, write_output
from shape_checks import (
    assert_efficient_region_with_diminishing_returns,
    assert_fronts_improve_over_checkpoints,
    assert_min_energy_population_owns_low_energy_end,
    assert_min_min_beats_random_on_utility_early,
)


def test_figure3_generation_cost(benchmark, ds1):
    """One generation (crossover + mutation + batch evaluation +
    environmental selection) at figure-3 scale."""
    evaluator = ScheduleEvaluator(ds1.system, ds1.trace, check_feasibility=False)
    ga = NSGA2(evaluator, AlgorithmConfig(population_size=FIG3_POP),
               rng=BENCH_SEED)
    benchmark(ga.step)


def test_figure3_reproduction(benchmark, fig3_result):
    """The full figure: shape assertions + rendered output."""
    fig = fig3_result

    def summarize():
        return fig.render(plot=True)

    text = benchmark.pedantic(summarize, rounds=1, iterations=1)

    assert set(fig.result.histories) == {
        "min-energy",
        "min-min-completion-time",
        "max-utility",
        "max-utility-per-energy",
        "random",
    }
    assert_fronts_improve_over_checkpoints(fig)
    assert_min_energy_population_owns_low_energy_end(fig)
    assert_min_min_beats_random_on_utility_early(fig)
    assert_efficient_region_with_diminishing_returns(fig)

    # "the presence of the seed starts to become irrelevant [with more
    # iterations] because all the populations ... start converging":
    # the random population's utility deficit versus min-min shrinks
    # from the first to the last checkpoint.
    first, last = fig.checkpoints[0], fig.checkpoints[-1]

    def deficit(gen: int) -> float:
        u_mm = fig.result.front("min-min-completion-time", gen).utility_range[1]
        u_rd = fig.result.front("random", gen).utility_range[1]
        return u_mm - u_rd

    assert deficit(last) <= deficit(first)
    write_output("figure3.txt", text)
