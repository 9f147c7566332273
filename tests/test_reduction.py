"""Standardization, PCA, k-means, model selection, and the reduction pipeline."""

import importlib.util
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    adjusted_rand_index,
    brute_force_kmeans,
    make_plain_schema,
    make_profile,
    partition_of,
    plant_clusters,
    planted_metric_vectors,
    reference_kmeans,
    reference_plus_plus_init,
    reference_relocation_polish,
)
from wcr import reduction
from wcr.cli import main
from wcr.errors import DataError
from wcr.ingest import derive_microarch_metrics
from wcr.model import MetricVector, default_schema, write_json
from wcr.reduction import (
    AssignedClustering,
    ReductionConfig,
    bic_score,
    choose_k,
    fit_pca,
    kmeans,
    kmeans_best_of,
    normalize_zscore,
    project,
    reduce_vectors,
    select_representatives,
)
from wcr.reduction import _cluster_means, _relocation_polish, _Seeding, _sq_distances


def _vectors(matrix, schema):
    return [
        MetricVector.from_values(f"w{i}", row, schema)
        for i, row in enumerate(np.asarray(matrix, dtype=float))
    ]


def threshold_picks(scores, k_min):
    """From the BIC of each k in [k_min, k_min + len(scores) - 1]: the k that
    `choose_k`'s documented bisection picks, and the smallest k that reaches
    the threshold, as a full scan finds it."""
    lo, hi = sorted((scores[0], scores[-1]))
    threshold = math.inf if hi == math.inf else lo + reduction.BIC_THRESHOLD * (hi - lo)
    score = dict(enumerate(scores, start=k_min))
    scan = min(k for k, s in score.items() if s >= threshold)
    a, b = k_min, k_min + len(scores) - 1
    if score[a] >= threshold:
        return a, scan
    while b - a > 1:
        mid = (a + b) // 2
        a, b = (a, mid) if score[mid] >= threshold else (mid, b)
    return b, scan


def benchmark_inputs():
    """`perfbench/inputs.py`, the benchmark's input generator, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reduction_bytes(result) -> str:
    out = io.StringIO()
    write_json(out, result.to_dict())
    return out.getvalue()


class TestNormalize:
    def test_simple_column(self):
        schema = make_plain_schema(["m"])
        nm = normalize_zscore(_vectors([[1], [2], [3]], schema), schema)
        assert nm.data[:, 0].tolist() == [-1.0, 0.0, 1.0]
        assert nm.cols == ("m",)
        assert nm.dropped_cols == ()

    def test_constant_column_dropped_and_reported(self):
        schema = make_plain_schema(["varies", "flat"])
        nm = normalize_zscore(_vectors([[1, 5], [2, 5], [3, 5]], schema), schema)
        assert nm.cols == ("varies",)
        assert nm.dropped_cols == ("flat",)
        assert nm.data.shape == (3, 1)

    def test_standardized_column_is_fixed_point(self):
        schema = make_plain_schema(["m"])
        column = np.array([-1.0, 0.0, 1.0])
        nm = normalize_zscore(_vectors(column[:, None], schema), schema)
        assert np.abs(nm.data[:, 0] - column).max() <= 1e-9

    def test_retained_columns_have_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        schema = make_plain_schema([f"m{i}" for i in range(6)])
        nm = normalize_zscore(_vectors(rng.normal(3, 7, (20, 6)), schema), schema)
        assert np.abs(nm.data.mean(axis=0)).max() <= 1e-9
        assert np.abs(nm.data.std(axis=0, ddof=1) - 1).max() <= 1e-9

    def test_fewer_than_two_rows_rejected(self):
        schema = make_plain_schema(["m"])
        with pytest.raises(DataError, match="at least 2"):
            normalize_zscore(_vectors([[1]], schema), schema)

    @pytest.mark.parametrize("b", [[0, 1e100, 1e200, 1e300], [1e308, 1e308, 1e308, -1e308]])
    def test_column_beyond_float_range_rejected_without_warning(self, b):
        # the squared deviations (or the sum) once overflowed to inf with a numpy
        # warning, and the error came later from the JSON writer, naming no metric
        schema = make_plain_schema(["a", "b"])
        vectors = _vectors(np.column_stack([[1, 2, 3, 4], b]), schema)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="metric 'b': mean or standard deviation "
                                                "beyond the float range"):
                normalize_zscore(vectors, schema)

    def test_csv_export(self):
        schema = make_plain_schema(["a", "b"])
        nm = normalize_zscore(_vectors([[1, 0], [2, 1], [3, 2]], schema), schema)
        out = io.StringIO()
        nm.write_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "workload,a,b"
        assert len(lines) == 4


class TestPca:
    def test_axis_aligned_variance(self):
        points = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        model = fit_pca(points, variance_target=0.85)
        assert model.retained == 1
        assert np.allclose(model.components[0], [1.0, 0.0])

    def test_diagonal_line_component(self):
        # hand eigendecomposition of [[v, v], [v, v]]: leading vector (1,1)/sqrt(2)
        t = np.array([-3.0, -1.0, 0.0, 2.0, 2.0])
        points = np.column_stack([t, t])
        model = fit_pca(points, variance_target=0.85)
        assert model.retained == 1
        assert np.allclose(model.components[0], [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_full_variance_target_retains_all_columns(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 5))
        model = fit_pca(points, variance_target=1.0)
        assert model.retained == 5

    def test_orthonormal_components(self):
        rng = np.random.default_rng(2)
        model = fit_pca(rng.normal(size=(40, 6)), variance_target=1.0)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(6)).max() <= 1e-9

    def test_projected_variance_equals_eigenvalues(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        model = fit_pca(points, variance_target=1.0)
        projected = project(points, model)
        variances = projected.var(axis=0, ddof=1)
        assert np.abs(variances - np.array(model.eigenvalues)).max() <= 1e-9

    def test_eigenvalues_non_increasing_non_negative(self):
        rng = np.random.default_rng(4)
        model = fit_pca(rng.normal(size=(25, 7)), variance_target=0.5)
        eigenvalues = np.array(model.eigenvalues)
        assert (np.diff(eigenvalues) <= 1e-12).all()
        assert (eigenvalues >= 0).all()

    def test_rank_deficient_input_allowed(self):
        t = np.arange(10.0)
        points = np.column_stack([t, 2 * t, -t])  # rank 1
        model = fit_pca(points, variance_target=0.99)
        assert model.retained == 1

    def test_bad_variance_target_rejected(self):
        with pytest.raises(DataError):
            fit_pca(np.zeros((3, 2)), variance_target=0.0)

    # a 1 x 0 matrix once returned an empty model
    @pytest.mark.parametrize("shape", [(1, 3), (1, 0)])
    def test_fewer_than_two_rows_rejected(self, shape):
        with pytest.raises(DataError, match="need at least 2 rows to fit, got 1"):
            fit_pca(np.zeros(shape), variance_target=0.85)


class TestProject:
    def test_identity_components(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(10, 3))
        model = fit_pca(np.eye(4)[:, :3] * 5, variance_target=1.0)  # any 3-col model
        model.components[:] = np.eye(3)
        assert np.array_equal(project(points, model), points)

    def test_full_reconstruction(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(20, 5))
        model = fit_pca(points, variance_target=1.0)
        reconstructed = project(points, model) @ model.components
        assert np.abs(reconstructed - points).max() <= 1e-9

    def test_zero_row_projects_to_zero(self):
        rng = np.random.default_rng(7)
        model = fit_pca(rng.normal(size=(10, 3)), variance_target=1.0)
        assert np.array_equal(project(np.zeros((1, 3)), model), np.zeros((1, 3)))

    # a 0-component model once projected a matrix of any width to no columns
    @pytest.mark.parametrize("fitted, width", [(3, 4), (0, 2)])
    def test_dimension_mismatch_rejected(self, fitted, width):
        rng = np.random.default_rng(8)
        model = fit_pca(rng.normal(size=(10, fitted)), variance_target=1.0)
        with pytest.raises(DataError, match=f"matrix has {width} columns but the model "
                                            f"expects {fitted}"):
            project(np.zeros((1, width)), model)


class TestKmeans:
    def test_well_separated_pairs(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        c = kmeans(points, 2, seed=0)
        assert partition_of(c.labels, 2) == frozenset(
            {frozenset({0, 1}), frozenset({2, 3})}
        )
        assert sorted(c.centroids.tolist()) == [[0.0, 0.5], [10.0, 10.5]]
        assert c.inertia == pytest.approx(1.0)

    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(12, 3))
        c = kmeans(points, 1, seed=0)
        assert np.allclose(c.centroids[0], points.mean(axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(30, 4))
        a = kmeans(points, 5, seed=123)
        b = kmeans(points, 5, seed=123)
        assert a.labels == b.labels
        assert a.inertia == b.inertia
        assert np.array_equal(a.centroids, b.centroids)

    def test_invalid_k_rejected(self):
        points = np.zeros((3, 2))
        with pytest.raises(DataError):
            kmeans(points, 0, seed=0)
        with pytest.raises(DataError):
            kmeans(points, 4, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed"):
            kmeans(np.zeros((3, 2)), 2, seed=-1)

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(60, 2))
        c = kmeans(points, 4, seed=7)
        history = c.inertia_history
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-9 * max(1.0, before)

    def test_inertia_matches_recompute(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(25, 3))
        c = kmeans(points, 3, seed=1)
        labels = np.array(c.labels)
        recomputed = float(((points - c.centroids[labels]) ** 2).sum())
        assert abs(c.inertia - recomputed) <= 1e-9

    def test_every_cluster_non_empty_even_with_duplicates(self):
        points = np.zeros((4, 2))
        c = kmeans(points, 3, seed=0)
        assert set(c.labels) == {0, 1, 2}
        assert c.inertia == 0.0

    @pytest.mark.parametrize("k", range(1, 6))
    def test_points_without_columns_stop_after_one_iteration(self, k):
        c = kmeans(np.zeros((5, 0)), k, seed=0)
        assert c.inertia == 0.0
        assert c.iterations == 1
        assert c.inertia_history == (0.0,)
        assert c.centroids.shape == (k, 0)
        assert sorted(set(c.labels)) == list(range(k))

    def test_small_instance_optimality(self):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            points = rng.uniform(size=(8, 2))
            best_inertia, best_labels = brute_force_kmeans(points, 3)
            c = kmeans_best_of(points, 3, seed=0, restarts=32)
            assert partition_of(c.labels, 3) == partition_of(best_labels, 3)
            assert c.inertia == best_inertia

    def test_restart_count_is_bounded(self):
        from wcr.reduction import _MAX_RESTARTS

        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        assert kmeans_best_of(points, 2, seed=0, restarts=_MAX_RESTARTS).inertia == 1.0
        with pytest.raises(DataError, match="restarts"):
            kmeans_best_of(points, 2, seed=0, restarts=_MAX_RESTARTS + 1)

    def test_no_single_point_move_lowers_inertia(self):
        rng = np.random.default_rng(15)
        instances = [
            (rng.normal(size=(40, 3)), 5),
            (rng.uniform(size=(25, 2)), 4),
            (np.repeat(rng.normal(size=(6, 2)), 3, axis=0), 4),  # duplicate points
        ]
        for points, k in instances:
            c = kmeans(points, k, seed=0)
            labels = np.array(c.labels)
            counts = np.bincount(labels, minlength=k)
            assert (counts > 0).all()
            # partitions of equal inertia can differ by rounding in the recompute
            slack = 1e-12 * float(((points - points.mean(axis=0)) ** 2).sum())
            for i in range(len(points)):
                if counts[labels[i]] < 2:
                    continue
                for b in range(k):
                    if b == labels[i]:
                        continue
                    moved = labels.copy()
                    moved[i] = b
                    centroids = np.array([points[moved == j].mean(axis=0) for j in range(k)])
                    inertia = float(((points - centroids[moved]) ** 2).sum())
                    assert inertia >= c.inertia - slack, (i, b)

    @staticmethod
    def _labelled_instances():
        """Seeded (points, k, labels) with every cluster non-empty; a third of
        them have duplicated points and a fifth are rounded to create ties."""
        # moving 2.0 to {4.0} costs exactly what it saves, so it must stay
        yield np.array([[0.0], [2.0], [4.0]]), 2, np.array([0, 0, 1])
        rng = np.random.default_rng(16)
        for t in range(60):
            n = int(rng.integers(4, 60))
            points = rng.normal(size=(n, int(rng.integers(1, 12))))
            if t % 3 == 0:
                points = np.repeat(points[: n // 2], 2, axis=0)
            if t % 5 == 0:
                points = np.round(points, 1)
            n = len(points)
            k = int(rng.integers(1, min(n, 12) + 1))
            labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            yield points, k, rng.permutation(labels)

    def test_screened_polish_matches_point_by_point_reference(self):
        moved = 0
        for points, k, labels in self._labelled_instances():
            for max_sweeps in (1, 2, 300):
                expected = reference_relocation_polish(points, labels, k, max_sweeps)
                start = _cluster_means(points, labels, k)
                distances = _sq_distances(points, start)
                got, centroids = _relocation_polish(
                    points, labels, start, distances, k, max_sweeps
                )
                assert np.array_equal(got, expected)
                assert centroids.tobytes() == _cluster_means(points, got, k).tobytes()
                moved += not np.array_equal(got, labels)
        assert moved > 100  # the instances exercise the moving path

    def test_cluster_means_match_masked_mean_bytes(self):
        # a lone -0.0 coordinate: the masked mean gives +0.0, a sum started
        # at -0.0 would keep -0.0
        signed_zero = (np.array([[-0.0, 1.0], [2.0, -0.0], [3.0, -0.0]]), 2, np.array([0, 1, 1]))
        # one column: the 1-D pairwise sum differs from a row-by-row one on
        # clusters of nine or more points
        rng = np.random.default_rng(17)
        one_column = [(rng.normal(size=(60, 1)), k, rng.integers(0, k, size=60))
                      for k in (1, 2, 3) for _ in range(4)]
        for points, k, labels in [signed_zero, *one_column, *self._labelled_instances()]:
            expected = np.array([points[labels == j].mean(axis=0) for j in range(k)])
            assert _cluster_means(points, labels, k).tobytes() == expected.tobytes()

    def test_plus_plus_draw_matches_generator_choice(self):
        # the inline draw restates what Generator.choice(n, p=...) computes;
        # a numpy release that changes choice fails here. One seeding grown k
        # by k must give at each k what a fresh draw of k centers gives.
        zeros = np.zeros((7, 3))  # every draw takes the rng.integers branch
        duplicated = np.repeat(np.random.default_rng(18).normal(size=(5, 2)), 3, axis=0)
        instances = [points for points, _, _ in self._labelled_instances()]
        for points in [zeros, duplicated, *instances]:
            for seed in range(3):
                seeding = _Seeding(points, seed)
                for k in range(1, min(len(points), 24) + 1):
                    chosen, distances = seeding.first(k)
                    reference = np.random.default_rng(seed)
                    assert chosen == reference_plus_plus_init(points, k, reference)
                    assert distances.tobytes() == _sq_distances(points, points[chosen]).tobytes()
                    distances[:] = np.nan  # the caller's array, not the seeding's
                assert seeding._rng.random() == reference.random()  # same state after the last draw

    @staticmethod
    def _reference_instances():
        """Seeded point sets for d in {0, 1, 2, 11}: plain, duplicated, rounded
        to one decimal (which makes ties and -0.0), a column of -0.0, and all
        zeros."""
        # seed 32's rounded sets hold near-ties that a distance column left
        # stale after a polish sweep would decide differently
        rng = np.random.default_rng(32)
        for t in range(25):
            d = (0, 1, 2, 11)[t % 4]
            n = int(rng.integers(2, 20))
            points = rng.normal(size=(n, d))
            variant = t % 5
            if variant == 1:
                points = np.repeat(points[: (n + 1) // 2], 2, axis=0)[:n]
            elif variant == 2:
                points = np.round(points, 1)
            elif variant == 3 and d:
                points[:, rng.integers(d)] = -0.0
            elif variant == 4:
                points = np.zeros((n, d))
            yield points

    @staticmethod
    def _assert_same_clustering(got, expected):
        assert got.centroids.tobytes() == expected.centroids.tobytes()
        assert got.centroids.shape == expected.centroids.shape
        for field in ("k", "inertia", "iterations", "seed", "labels", "inertia_history"):
            assert getattr(got, field) == getattr(expected, field), field

    def test_kmeans_best_of_and_choose_k_match_reference_bytes(self):
        restarts = 3
        polished = not_argmax = 0
        for points in self._reference_instances():
            n = len(points)
            best_per_k = []
            for k in range(1, n + 1):
                runs = [reference_kmeans(points, k, seed) for seed in range(restarts)]
                for seed, expected in enumerate(runs):
                    self._assert_same_clustering(kmeans(points, k, seed), expected)
                    polished += len(expected.inertia_history) > expected.iterations
                best = min(runs, key=lambda c: c.inertia)  # the first of equal inertias
                self._assert_same_clustering(kmeans_best_of(points, k, 0, restarts), best)
                # a one-k range: how `reduce_vectors` clusters a fixed k
                self._assert_same_clustering(choose_k(points, k, k, 0, restarts), best)
                best_per_k.append(best)
            scores = [bic_score(points, c) for c in best_per_k]
            # [1, n] ends where distinct points score +inf; k_min > 1 still draws
            # from the first center; [1, n // 2] mostly ends at a finite BIC, where
            # the threshold pick can differ from the argmax
            for k_min, k_max in ((1, n), ((n + 1) // 2, n), (1, max(1, n // 2))):
                pick, _ = threshold_picks(scores[k_min - 1:k_max], k_min)
                expected = best_per_k[pick - 1]
                self._assert_same_clustering(
                    choose_k(points, k_min, k_max, 0, restarts), expected)
                argmax = scores.index(max(scores[k_min - 1:k_max]), k_min - 1) + 1
                not_argmax += pick != argmax
            # Fortran order: the seeding's row sums must still run in C order
            pick, _ = threshold_picks(scores, 1)
            self._assert_same_clustering(
                choose_k(np.asfortranarray(points), 1, n, 0, restarts), best_per_k[pick - 1])
        assert polished > 50  # the instances exercise the polish's moves
        assert not_argmax > 0  # and the threshold rule, where it differs from the BIC argmax

    def test_cluster_emptied_after_an_update_matches_reference_bytes(self):
        # at k=20, seed 1, Lloyd's third step leaves cluster 13 empty; its
        # re-seeding moves a centroid in place, and the distance column kept
        # for it must then be recomputed
        points = np.array([
            [-0.1, 1.5, -0.9], [-1.4, 1.8, -0.1], [2.0, 0.2, -1.3], [0.6, -0.0, 0.7],
            [-0.3, 0.0, -0.2], [-1.1, 1.0, 0.2], [1.3, -0.1, 1.0], [1.1, -0.6, -0.2],
            [1.4, -1.9, 0.3], [-0.5, -0.5, 1.0], [1.1, 0.8, 1.0], [-1.4, 0.4, -1.2],
            [0.9, 0.8, 0.4], [0.9, -2.0, 0.6], [1.2, -3.7, 0.3], [0.8, 0.7, -0.6],
            [-0.6, 0.4, -0.3], [-1.9, -0.1, 0.7], [0.9, 0.0, 0.2], [-0.7, 0.6, 0.8],
            [-0.2, 0.6, -0.2], [-1.0, 0.9, 0.7], [-1.0, 0.3, -0.8], [0.5, 0.0, -2.0],
            [-0.1, -1.8, -0.9],
        ])
        self._assert_same_clustering(kmeans(points, 20, 1), reference_kmeans(points, 20, 1))


class TestChooseK:
    def test_planted_three_clusters(self):
        rng = np.random.default_rng(14)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        points = np.vstack([
            center + rng.normal(0, 1.0, size=(20, 2)) for center in centers
        ])
        assert choose_k(points, 1, 6, seed=0, restarts=8).k == 3

    def test_identical_points_pick_one(self):
        points = np.ones((10, 2))
        assert choose_k(points, 1, 4, seed=0, restarts=8).k == 1

    def test_distinct_points_pick_n(self):
        points = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        assert choose_k(points, 1, 4, seed=0, restarts=8).k == 4
        # direct evaluation: only k=4 reaches zero pooled variance
        scores = [
            bic_score(points, kmeans_best_of(points, k, seed=0, restarts=8))
            for k in range(1, 5)
        ]
        assert scores[3] == math.inf
        assert all(math.isfinite(s) for s in scores[:3])

    def test_bad_range_rejected(self):
        with pytest.raises(DataError):
            choose_k(np.zeros((3, 2)), 0, 2, seed=0, restarts=8)
        with pytest.raises(DataError):
            choose_k(np.zeros((3, 2)), 2, 5, seed=0, restarts=8)

    @staticmethod
    def _count_generators(monkeypatch) -> list[int]:
        made = [0]
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            made[0] += 1
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        return made

    def test_each_restart_draws_its_seeding_once(self, monkeypatch):
        # the row sums of a Fortran-ordered array can differ from the C-ordered
        # copy's in the last bit, so the seedings must hold that copy
        points = np.asfortranarray(np.random.default_rng(19).normal(size=(30, 12)))
        made = self._count_generators(monkeypatch)
        c_ordered = []

        class Recording(_Seeding):
            def __init__(self, points, seed):
                c_ordered.append(points.flags.c_contiguous)
                super().__init__(points, seed)

        monkeypatch.setattr(reduction, "_Seeding", Recording)
        choose_k(points, 1, 12, seed=5, restarts=4)
        assert made[0] == 4
        assert c_ordered == [True] * 4

    def test_bisection_scores_each_k_once(self, monkeypatch):
        scored = []

        def counting(points, k, *args, **kwargs):
            scored.append(k)
            return kmeans_best_of(points, k, *args, **kwargs)

        monkeypatch.setattr(reduction, "kmeans_best_of", counting)
        # the two ends, then ceil(log2(k_max - k_min)) halvings on these paths
        for clusters, k_max, path in (
            (17, 30, [1, 30, 15, 22, 18, 16, 17]),
            (10, 38, [1, 38, 19, 10, 5, 7, 8, 9]),
        ):
            points, _, _ = plant_clusters(77, clusters, 45, seed=0)
            scored.clear()
            assert choose_k(points, 1, k_max, seed=0, restarts=8).k == clusters
            assert scored == path
        scored.clear()
        assert choose_k(points, 12, 12, seed=0, restarts=8).k == 12
        assert scored == [12]

    def test_bisection_matches_full_scan(self):
        """On planted sets of 5, 10, 17 and 25 clusters and on uniform noise,
        77 x 45 through `reduce_vectors`, the bisection picks what a full scan
        of the threshold rule picks, and that is the planted k (1 for noise).
        Every set where any of them differs is reported."""
        schema, config = default_schema(), ReductionConfig()
        sets = [(f"planted {clusters} seed {seed}", plant_clusters(77, clusters, 45, seed)[0],
                 clusters) for clusters in (5, 10, 17, 25) for seed in range(4)]
        sets += [(f"noise seed {seed}", np.random.default_rng(seed).uniform(0.2, 0.8, (77, 45)), 1)
                 for seed in range(4)]
        differ = []
        for name, points, planted in sets:
            result = reduce_vectors(_vectors(points, schema), schema, config)
            projected = result.projected
            # shared draws give each k the bytes of a fresh `kmeans_best_of`, and
            # make the scan cheaper (see `test_kmeans_best_of_and_choose_k_match_reference_bytes`)
            seedings = [_Seeding(projected, config.seed + r) for r in range(config.restarts)]
            scan = [kmeans_best_of(projected, k, config.seed, config.restarts, seedings=seedings)
                    for k in range(1, len(points) // 2 + 1)]
            scores = [bic_score(projected, c) for c in scan]
            bisection, smallest = threshold_picks(scores, 1)
            argmax = scores.index(max(scores)) + 1
            got = result.clustering
            chosen = scan[got.k - 1]
            same_bytes = reduction_bytes(got) == reduction_bytes(AssignedClustering(
                **vars(chosen), assignments=dict(zip(result.normalized.ids, chosen.labels))))
            if not (got.k == bisection == smallest == argmax == planted and same_bytes):
                differ.append(f"{name}: choose_k {got.k}, bisection {bisection}, scan "
                              f"{smallest}, argmax {argmax}, planted {planted}, "
                              f"same bytes {same_bytes}")
        assert differ == []

    @pytest.mark.parametrize("seed, restarts, message", [
        (-1, 8, "seed must not be negative, got -1"),
        (0, 0, r"restarts must be in \[1, 1000\], got 0"),
        (0, 1001, r"restarts must be in \[1, 1000\], got 1001"),
    ])
    def test_bad_seed_or_restarts_rejected_before_drawing(self, monkeypatch, seed, restarts,
                                                          message):
        made = self._count_generators(monkeypatch)
        with pytest.raises(DataError, match=message):
            choose_k(np.zeros((3, 2)), 1, 2, seed=seed, restarts=restarts)
        assert made[0] == 0


class TestSelectRepresentatives:
    def test_singleton_cluster(self):
        points = np.array([[0.0, 0.0]])
        c = kmeans(points, 1, seed=0)
        assert select_representatives(c, points, ("only",)) == ["only"]

    def test_equidistant_tie_breaks_lexicographically(self):
        points = np.array([[0.0, 0.0], [0.0, 2.0]])
        c = kmeans(points, 1, seed=0)
        assert select_representatives(c, points, ("b", "a")) == ["a"]

    def test_nearest_member_hand_computed(self):
        # centroid (5/3, 2); squared distances 6.78, 20.11, 3.78 -> last point
        points = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 1.0]])
        c = kmeans(points, 1, seed=0)
        centroid = points.mean(axis=0)
        d2 = ((points - centroid) ** 2).sum(axis=1)
        assert int(np.argmin(d2)) == 2
        assert select_representatives(c, points, ("p0", "p1", "p2")) == ["p2"]

    def test_inconsistent_ids_rejected(self):
        # one id per point and per label; the clustering holds no ids to compare
        points = np.array([[0.0], [1.0]])
        c = kmeans(points, 1, seed=0)
        for ids in (("a",), ("a", "b", "c")):
            with pytest.raises(DataError):
                select_representatives(c, points, ids)
        with pytest.raises(DataError):
            select_representatives(c, points[:1], ("a",))


class TestPipeline:
    def test_planted_recovery_fixed_k(self):
        schema, vectors, _, labels = planted_metric_vectors(seed=42)
        config = ReductionConfig(k=17, seed=42)
        result = reduce_vectors(vectors, schema, config)
        found = [result.clustering.assignments[v.workload_id] for v in vectors]
        assert adjusted_rand_index(found, labels.tolist()) >= 0.95
        assert len(result.representatives) == 17
        assert len(set(result.representatives)) == 17

    def test_assignments_are_the_sorted_ids_with_their_labels(self):
        # `kmeans` knows no ids; the reduction attaches them once, to the
        # clustering it keeps, and `reduction.json` writes them
        schema, vectors, _, _ = planted_metric_vectors(seed=7)
        result = reduce_vectors(vectors[::-1], schema, ReductionConfig(k=5, seed=7))
        ids = sorted(v.workload_id for v in vectors)
        assert list(result.clustering.assignments) == ids
        assert list(result.clustering.assignments.values()) == list(result.clustering.labels)
        assert result.clustering.to_dict()["assignments"] == result.clustering.assignments
        assert not hasattr(kmeans(result.projected, 5, 7), "assignments")

    def test_identical_profiles_reduce_to_one(self):
        schema = default_schema()
        vectors = [derive_microarch_metrics(make_profile(w), schema) for w in ("a", "b")]
        result = reduce_vectors(vectors, schema, ReductionConfig(k=1))
        assert result.clustering.k == 1
        assert result.representatives == ("a",)
        assert result.normalized.data.shape == (2, 0)

    @pytest.mark.parametrize("config, k", [
        (ReductionConfig(k=2), 2),
        (ReductionConfig(k=6), 6),
        (ReductionConfig(), 1),
        (ReductionConfig(k_min=2, k_max=4), 2),
    ])
    def test_all_constant_vectors_reduce_on_no_columns(self, config, k):
        # every column is dropped, so every k has inertia 0 and the BIC ties at +inf
        schema = make_plain_schema(["x", "y"])
        result = reduce_vectors(_vectors([[1, 2]] * 6, schema), schema, config)
        assert result.pca.retained == 0
        assert result.projected.shape == (6, 0)
        assert result.clustering.k == k
        for cluster, workload in enumerate(result.representatives):
            members = [w for w, c in result.clustering.assignments.items() if c == cluster]
            assert workload == min(members)

    def test_k_equal_n_makes_everyone_representative(self):
        schema = make_plain_schema(["x", "y"])
        vectors = _vectors([[0, 0], [10, 0], [0, 10], [10, 10]], schema)
        result = reduce_vectors(vectors, schema, ReductionConfig(k=4, seed=0))
        assert sorted(result.representatives) == ["w0", "w1", "w2", "w3"]
        assert result.cluster_sizes == (1, 1, 1, 1)

    def test_representative_belongs_to_its_cluster(self):
        schema, vectors, _, _ = planted_metric_vectors(seed=7)
        result = reduce_vectors(vectors, schema, ReductionConfig(k=17, seed=7))
        for cluster, workload in enumerate(result.representatives):
            assert result.clustering.assignments[workload] == cluster

    def test_row_permutation_leaves_decisions_unchanged(self):
        # the vectors are taken in id order, so the result's bytes are the same
        schema, vectors, _, _ = planted_metric_vectors(seed=3)
        expected = reduction_bytes(reduce_vectors(vectors, schema, ReductionConfig()))
        rng = np.random.default_rng(0)
        for _ in range(5):
            permuted = [vectors[i] for i in rng.permutation(len(vectors))]
            assert reduction_bytes(reduce_vectors(permuted, schema, ReductionConfig())) == expected

    def test_column_scaling_leaves_decisions_unchanged(self):
        schema, vectors, points, _ = planted_metric_vectors(seed=5)
        config = ReductionConfig(k=17, seed=5)
        result = reduce_vectors(vectors, schema, config)

        scaled_points = points.copy()
        scaled_points[:, 7] *= 1000.0  # l1d_mpki column: no ratio bound
        scaled_vectors = [
            MetricVector.from_values(f"wl{i:02d}", scaled_points[i], schema)
            for i in range(len(scaled_points))
        ]
        scaled = reduce_vectors(scaled_vectors, schema, config)
        assert scaled.clustering.assignments == result.clustering.assignments
        assert scaled.representatives == result.representatives

    def test_deterministic_end_to_end(self):
        schema, vectors, _, _ = planted_metric_vectors(seed=11)
        config = ReductionConfig(k=17, seed=11)
        a = reduce_vectors(vectors, schema, config)
        b = reduce_vectors(vectors, schema, config)
        assert a.to_dict() == b.to_dict()

    def test_default_config_reduces_planted_set(self):
        schema, vectors, _, _ = planted_metric_vectors(seed=42)
        result = reduce_vectors(vectors, schema, ReductionConfig())
        assert result.clustering.k == 17

    def test_default_reduce_finds_every_pipeline_seeds_groups(self, tmp_path, monkeypatch):
        """The benchmark's `pipeline` counters of seeds 0-19, through `wcr ingest`
        and the default `wcr reduce` at 8 and 32 restarts, reduce to their
        planted groups."""
        inputs = benchmark_inputs()
        # the text trace is drawn after the counters, and this study does not read it
        monkeypatch.setattr(inputs, "loop_trace_lines", lambda rng: ([], 0, 0))
        restarts32 = tmp_path / "restarts32.json"
        restarts32.write_text('{"restarts": 32}')
        picked = {8: [], 32: []}
        for seed in range(20):
            work = tmp_path / str(seed)
            work.mkdir()
            inputs.make_pipeline(seed, work)
            assert main(["ingest", str(work / "counters.csv"), "--out", str(work / "in")]) == 0
            for restarts, flags in ((8, []), (32, ["--config", str(restarts32)])):
                out = work / f"reduce{restarts}"
                assert main(["reduce", *flags, str(work / "in" / "vectors.json"),
                             "--out", str(out)]) == 0
                result = json.loads((out / "reduction.json").read_text())
                picked[restarts].append(result["clustering"]["k"])
        groups = inputs.PIPELINE_GROUPS
        assert picked == {8: [groups] * 20, 32: [groups] * 20}

    def test_too_few_profiles_rejected(self):
        schema = default_schema()
        vectors = [derive_microarch_metrics(make_profile("a"), schema)]
        with pytest.raises(DataError, match="at least 2"):
            reduce_vectors(vectors, schema, ReductionConfig(k=1))
