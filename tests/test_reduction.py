"""Standardization, PCA, k-means, model selection, and the reduction pipeline."""

import io
import math
import warnings

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
    reference_plus_plus_init,
    reference_relocation_polish,
)
from wcr.errors import DataError
from wcr.ingest import derive_microarch_metrics
from wcr.model import MetricVector, default_schema
from wcr.reduction import (
    Clustering,
    ReductionConfig,
    ReductionResult,
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
from wcr.reduction import _cluster_means, _plus_plus_init, _relocation_polish


def _vectors(matrix, schema):
    return [
        MetricVector.from_values(f"w{i}", row, schema)
        for i, row in enumerate(np.asarray(matrix, dtype=float))
    ]


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

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        model = fit_pca(rng.normal(size=(10, 3)), variance_target=1.0)
        with pytest.raises(DataError, match="columns"):
            project(np.zeros((1, 4)), model)


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
                got, centroids = _relocation_polish(
                    points, labels, _cluster_means(points, labels, k), k, max_sweeps
                )
                assert np.array_equal(got, expected)
                assert centroids.tobytes() == _cluster_means(points, got, k).tobytes()
                moved += not np.array_equal(got, labels)
        assert moved > 100  # the instances exercise the moving path

    def test_cluster_means_match_masked_mean_bytes(self):
        for points, k, labels in self._labelled_instances():
            expected = np.array([points[labels == j].mean(axis=0) for j in range(k)])
            assert _cluster_means(points, labels, k).tobytes() == expected.tobytes()

    def test_plus_plus_draw_matches_generator_choice(self):
        # the inline draw restates what Generator.choice(n, p=...) computes;
        # a numpy release that changes choice fails here
        for points, k, _ in self._labelled_instances():
            for seed in range(5):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                assert _plus_plus_init(points, k, a) == reference_plus_plus_init(points, k, b)
                assert a.random() == b.random()

    def test_custom_ids(self):
        points = np.array([[0.0], [10.0]])
        c = kmeans(points, 2, seed=0, ids=("a", "b"))
        assert set(c.assignments) == {"a", "b"}

    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        points = rng.normal(size=(10, 2))
        c = kmeans(points, 2, seed=3)
        restored = Clustering.from_dict(c.to_dict())
        assert restored.to_dict() == c.to_dict()


class TestChooseK:
    def test_planted_three_clusters(self):
        rng = np.random.default_rng(14)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        points = np.vstack([
            center + rng.normal(0, 1.0, size=(20, 2)) for center in centers
        ])
        assert choose_k(points, 1, 6, seed=0).k == 3

    def test_identical_points_pick_one(self):
        points = np.ones((10, 2))
        assert choose_k(points, 1, 4, seed=0).k == 1

    def test_distinct_points_pick_n(self):
        points = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        assert choose_k(points, 1, 4, seed=0).k == 4
        # direct evaluation: only k=4 reaches zero pooled variance
        scores = [
            bic_score(points, kmeans_best_of(points, k, seed=0, restarts=8))
            for k in range(1, 5)
        ]
        assert scores[3] == math.inf
        assert all(math.isfinite(s) for s in scores[:3])

    def test_bad_range_rejected(self):
        with pytest.raises(DataError):
            choose_k(np.zeros((3, 2)), 0, 2, seed=0)
        with pytest.raises(DataError):
            choose_k(np.zeros((3, 2)), 2, 5, seed=0)


class TestSelectRepresentatives:
    def test_singleton_cluster(self):
        points = np.array([[0.0, 0.0]])
        c = kmeans(points, 1, seed=0, ids=("only",))
        assert select_representatives(c, points, ("only",)) == ["only"]

    def test_equidistant_tie_breaks_lexicographically(self):
        points = np.array([[0.0, 0.0], [0.0, 2.0]])
        c = kmeans(points, 1, seed=0, ids=("b", "a"))
        assert select_representatives(c, points, ("b", "a")) == ["a"]

    def test_nearest_member_hand_computed(self):
        # centroid (5/3, 2); squared distances 6.78, 20.11, 3.78 -> last point
        points = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 1.0]])
        c = kmeans(points, 1, seed=0, ids=("p0", "p1", "p2"))
        centroid = points.mean(axis=0)
        d2 = ((points - centroid) ** 2).sum(axis=1)
        assert int(np.argmin(d2)) == 2
        assert select_representatives(c, points, ("p0", "p1", "p2")) == ["p2"]

    def test_inconsistent_ids_rejected(self):
        points = np.array([[0.0], [1.0]])
        c = kmeans(points, 1, seed=0, ids=("a", "b"))
        with pytest.raises(DataError):
            select_representatives(c, points, ("a", "x"))


class TestPipeline:
    def test_planted_recovery_fixed_k(self):
        schema, vectors, _, labels = planted_metric_vectors(seed=42)
        config = ReductionConfig(k=17, seed=42)
        result = reduce_vectors(vectors, schema, config)
        found = [result.clustering.assignments[v.workload_id] for v in vectors]
        assert adjusted_rand_index(found, labels.tolist()) >= 0.95
        assert len(result.representatives) == 17
        assert len(set(result.representatives)) == 17

    def test_identical_profiles_reduce_to_one(self):
        schema = default_schema()
        vectors = [derive_microarch_metrics(make_profile(w), schema) for w in ("a", "b")]
        result = reduce_vectors(vectors, schema, ReductionConfig(k=1))
        assert result.clustering.k == 1
        assert result.representatives == ("a",)
        assert result.normalized.data.shape == (2, 0)

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
        schema, vectors, _, _ = planted_metric_vectors(seed=3)
        config = ReductionConfig(k=17, seed=3)
        result = reduce_vectors(vectors, schema, config)
        rng = np.random.default_rng(0)
        order = rng.permutation(len(vectors))
        permuted = reduce_vectors([vectors[i] for i in order], schema, config)

        def cluster_sets(res):
            members = {}
            for workload, cluster in res.clustering.assignments.items():
                members.setdefault(cluster, set()).add(workload)
            return frozenset(frozenset(v) for v in members.values())

        assert cluster_sets(result) == cluster_sets(permuted)
        assert set(result.representatives) == set(permuted.representatives)

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

    def test_result_roundtrip(self):
        schema = make_plain_schema(["x", "y"])
        # the second input drops every column, so its PcaModel has 0 components
        for rows, k in (([[0, 0], [1, 0], [5, 5], [6, 5]], 2), ([[1, 2], [1, 2], [1, 2]], 1)):
            result = reduce_vectors(_vectors(rows, schema), schema, ReductionConfig(k=k, seed=0))
            restored = ReductionResult.from_dict(result.to_dict())
            assert restored.to_dict() == result.to_dict()
            assert restored.pca.components.shape == result.pca.components.shape
            assert restored.projected.shape == result.projected.shape
            assert restored.normalized.data.shape == result.normalized.data.shape

    def test_default_config_reduces_planted_set(self):
        schema, vectors, _, _ = planted_metric_vectors(seed=42)
        result = reduce_vectors(vectors, schema, ReductionConfig())
        assert result.clustering.k == 17

    def test_too_few_profiles_rejected(self):
        schema = default_schema()
        vectors = [derive_microarch_metrics(make_profile("a"), schema)]
        with pytest.raises(DataError, match="at least 2"):
            reduce_vectors(vectors, schema, ReductionConfig(k=1))
