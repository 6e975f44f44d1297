"""ε-dominance archive and the archive-reporting NSGA-II variant."""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.archive import EpsilonParetoArchive
from repro.core.dominance import nondominated_mask
from repro.core.nsga2 import NSGA2, EpsilonArchiveNSGA2
from repro.errors import OptimizationError
from repro.sim.evaluator import ScheduleEvaluator


class TestEpsilonParetoArchive:
    def test_one_representative_per_box(self):
        archive = EpsilonParetoArchive(epsilons=(1.0, 1.0))
        # Two points in the same ε-box: only one survives.
        archive.update(np.array([[0.2, 10.2], [0.4, 10.4]]))
        assert len(archive) == 1

    def test_box_dominance_prunes(self):
        archive = EpsilonParetoArchive(epsilons=(1.0, 1.0))
        # (energy, utility): box (0, 10) dominates box (5, 3).
        archive.update(np.array([[0.5, 10.5], [5.5, 3.5]]))
        assert len(archive) == 1
        np.testing.assert_allclose(archive.points, [[0.5, 10.5]])

    def test_incomparable_boxes_coexist(self):
        archive = EpsilonParetoArchive(epsilons=(1.0, 1.0))
        archive.update(np.array([[0.5, 3.5], [5.5, 10.5]]))
        assert len(archive) == 2

    def test_epsilons_validated(self):
        with pytest.raises(OptimizationError):
            EpsilonParetoArchive(epsilons=(0.0, 1.0))
        with pytest.raises(OptimizationError):
            EpsilonParetoArchive(epsilons=(1.0,))

    def test_size_stays_bounded(self):
        """The Laumanns guarantee: archive size is bounded by the
        objective ranges over ε, no matter how many points stream in."""
        rng = np.random.default_rng(0)
        archive = EpsilonParetoArchive(epsilons=(0.1, 0.1))
        for _ in range(50):
            pts = np.column_stack([rng.random(40), rng.random(40)])
            archive.update(pts)
        assert len(archive) <= (1.0 / 0.1 + 1) ** 2


class _LinearScanArchive(EpsilonParetoArchive):
    """Oracle: the archive as a plain scan — NumPy box arithmetic, and
    a new box checked against every occupied box in a Python loop."""

    def _offer(self, fmin, raw, payload):
        fmin = np.asarray(fmin, dtype=np.float64)
        eps = np.asarray(self.epsilons)
        box = (int(np.floor(fmin[0] / eps[0])),
               int(np.floor(fmin[1] / eps[1])))
        incumbent = self._boxes.get(box)
        if incumbent is not None:
            inc_fmin = incumbent[0]
            if (inc_fmin <= fmin).all():
                return
            if not (fmin <= inc_fmin).all():
                corner = np.floor(fmin / eps) * eps
                if np.linalg.norm(fmin - corner) >= np.linalg.norm(
                    inc_fmin - corner
                ):
                    return
            self._boxes[box] = (fmin, raw, payload)
            return
        for other in list(self._boxes):
            if other[0] <= box[0] and other[1] <= box[1]:
                return
            if box[0] <= other[0] and box[1] <= other[1]:
                del self._boxes[other]
        self._boxes[box] = (fmin, raw, payload)


def _offer_stream(rng, eps, n_updates, archive):
    """Batches of (energy, utility) points mixing every offer shape the
    staircase has to handle (*archive* is read to aim evicting offers)."""
    seen = np.empty((0, 2))
    for _ in range(n_updates):
        kind = rng.integers(7)
        n = int(rng.integers(1, 6))
        if kind == 0 or seen.shape[0] == 0:
            # Continuous points straddling zero on both axes.
            pts = rng.uniform(-4.0, 4.0, size=(n, 2))
        elif kind == 1:
            # Exactly on box edges (integer multiples of ε).
            pts = rng.integers(-12, 12, size=(n, 2)) * np.asarray(eps)
        elif kind == 2:
            # Duplicates of earlier offers.
            pts = seen[rng.integers(seen.shape[0], size=n)]
        elif kind == 3:
            # Same box as an earlier offer, elsewhere inside it.
            base = seen[rng.integers(seen.shape[0], size=n)]
            corner = np.floor(base / eps) * eps
            pts = corner + rng.uniform(0.0, 1.0, size=(n, 2)) * eps
        elif kind == 4 and len(archive) >= 3:
            # The energy of one archived point with the utility of
            # another further along the front: a single offer whose
            # box evicts every box between the two.
            front = archive.front()
            i = int(rng.integers(front.shape[0] - 2))
            j = int(rng.integers(i + 2, front.shape[0]))
            pts = np.array([[front[i, 0], front[j, 1]]])
        elif kind == 5:
            # Two incomparable points mirrored inside one box, so they
            # tie on distance to the box corner (exactly, for dyadic ε).
            base = seen[rng.integers(seen.shape[0])]
            fmin = np.array([base[0], -base[1]])
            corner = np.floor(fmin / eps) * eps
            a, b = rng.integers(0, 8, size=2) / 64.0
            mins = corner + np.array([[a, b], [b, a]])
            pts = np.column_stack([mins[:, 0], -mins[:, 1]])
        else:
            # A tight diagonal band: many mutually incomparable boxes.
            t = rng.uniform(-3.0, 3.0, size=n)
            pts = np.column_stack([t, t + rng.normal(0.0, 0.1, size=n)])
        seen = np.vstack([seen, pts])
        yield pts


class TestStaircaseMatchesLinearScan:
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_archive_after_every_update(self, seed):
        rng = np.random.default_rng(seed)
        eps = (0.5, 0.25) if seed % 2 else (0.3, 0.3)
        fast = EpsilonParetoArchive(eps)
        oracle = _LinearScanArchive(eps)
        multi_evictions = 0
        for step, pts in enumerate(_offer_stream(rng, eps, 300, oracle)):
            payloads = [(step, j) for j in range(pts.shape[0])]
            before = len(fast)
            assert fast.update(pts, payloads) == oracle.update(pts, payloads)
            if pts.shape[0] == 1 and len(fast) <= before - 2:
                multi_evictions += 1
            assert len(fast) == len(oracle)
            np.testing.assert_array_equal(fast.points, oracle.points)
            assert fast.payloads == oracle.payloads
            # The staircase: box indices sorted on axis 0 strictly
            # increase there and strictly decrease on axis 1.
            boxes = sorted(fast._boxes)
            xs = [b[0] for b in boxes]
            ys = [b[1] for b in boxes]
            assert all(a < b for a, b in zip(xs, xs[1:]))
            assert all(a > b for a, b in zip(ys, ys[1:]))
            assert fast._xs == xs
            assert fast._neg_ys == [-y for y in ys]
        assert multi_evictions > 0

    def test_negative_box_indices_and_edge_points(self):
        fast = EpsilonParetoArchive((1.0, 1.0))
        oracle = _LinearScanArchive((1.0, 1.0))
        # Minimization coordinates are (energy, -utility): an edge
        # point sits exactly on a box corner, below zero on both axes.
        pts = np.array([[-2.0, 3.0], [-1.0, 5.0], [0.0, 7.0],
                        [-3.0, 1.0], [-2.0, 3.0], [-5.0, 9.0]])
        for row in pts:
            fast.update(row[None, :], [tuple(row)])
            oracle.update(row[None, :], [tuple(row)])
            np.testing.assert_array_equal(fast.points, oracle.points)
            assert fast.payloads == oracle.payloads
        # The last point's box dominates every other box.
        assert len(fast) == 1
        assert fast.payloads == [(-5.0, 9.0)]

    def test_same_box_tie_keeps_incumbent(self):
        archive = EpsilonParetoArchive((1.0, 1.0))
        # Minimization points (0.25, 0.5) and (0.5, 0.25): one box,
        # incomparable, equally far from its corner.
        archive.update(np.array([[0.25, -0.5]]), ["first"])
        archive.update(np.array([[0.5, -0.25]]), ["second"])
        assert archive.payloads == ["first"]


class TestEpsilonArchiveNSGA2:
    def make_engine(self, evaluator, rng=0, pop=16, epsilon=1e-3):
        return EpsilonArchiveNSGA2(
            evaluator,
            AlgorithmConfig(population_size=pop, mutation_probability=0.5),
            rng=rng,
            epsilon=epsilon,
        )

    def test_epsilon_validated(self, small_evaluator):
        with pytest.raises(OptimizationError):
            self.make_engine(small_evaluator, epsilon=0.0)

    def test_population_trajectory_matches_plain_nsga2(self, small_system,
                                                       small_trace):
        """The archive is an observer: the generational loop draws the
        same RNG stream as plain NSGA-II, so the *populations* evolve
        bit-identically."""
        def run(cls):
            ev = ScheduleEvaluator(small_system, small_trace,
                                   check_feasibility=False)
            ga = cls(ev, AlgorithmConfig(population_size=16,
                                         mutation_probability=0.5), rng=8)
            for _ in range(5):
                ga.step()
            return ga.population

        plain = run(NSGA2)
        archived = run(EpsilonArchiveNSGA2)
        np.testing.assert_array_equal(plain.assignments,
                                      archived.assignments)
        np.testing.assert_array_equal(plain.orders, archived.orders)

    def test_snapshots_report_the_archive_front(self, small_evaluator):
        ga = self.make_engine(small_evaluator, rng=1)
        history = ga.run(5, checkpoints=[5])
        pts = history.final.front_points
        assert pts.shape[0] == len(ga.archive)
        assert nondominated_mask(pts).all()

    def test_archive_front_covers_population_front(self, small_evaluator):
        """Every population-front point is ε-dominated by (or coincides
        with) an archived point — the archive never loses the front."""
        ga = self.make_engine(small_evaluator, rng=2, epsilon=1e-6)
        for _ in range(5):
            ga.step()
        pop_front = ga.population.objectives[
            nondominated_mask(ga.population.objectives)
        ]
        archived = ga.archive.points
        eps_e, eps_u = ga.archive.epsilons
        for energy, utility in pop_front:
            covered = (
                (archived[:, 0] <= energy + eps_e)
                & (archived[:, 1] >= utility - eps_u)
            ).any()
            assert covered, (energy, utility)

    def test_checkpoint_resume_restores_archive(self, small_system,
                                                small_trace, tmp_path):
        from repro.testing.faults import FaultPlan, InjectedFault

        def engine(fault_hook=None):
            ev = ScheduleEvaluator(small_system, small_trace,
                                   check_feasibility=False,
                                   fault_hook=fault_hook)
            return EpsilonArchiveNSGA2(
                ev, AlgorithmConfig(population_size=12,
                                    mutation_probability=0.5),
                rng=6, label="eps-ckpt",
            )

        straight = engine().run(6, checkpoints=[3, 6])
        plan = FaultPlan().crash("evaluate", at_call=5)
        with pytest.raises(InjectedFault):
            engine(plan.evaluation_hook()).run(
                6, checkpoints=[3, 6], checkpoint_dir=str(tmp_path)
            )
        resumed = engine().run(6, checkpoints=[3, 6],
                               checkpoint_dir=str(tmp_path), resume=True)
        np.testing.assert_array_equal(
            straight.final.front_points, resumed.final.front_points
        )
