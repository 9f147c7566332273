"""Workload-set reduction: standardization, PCA, k-means, representatives.

The pipeline standardizes each metric column to zero mean and unit sample
standard deviation, projects onto the principal components that explain a
target share of variance, clusters the projected workloads with seeded
k-means++ / Lloyd iterations, and keeps the member nearest each centroid
as the cluster's representative. Everything is deterministic given the
inputs and the seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .errors import DataError
from .model import Codec, Matrix, MetricSchema, MetricVector, Vector, write_csv

log = logging.getLogger("wcr.reduction")

# treat a column as zero-variance when its spread is negligible next to its scale
_ZERO_VARIANCE_RTOL = 1e-12
# Lloyd stops after _MAX_ITER iterations, or once no centroid moves by _TOL or more;
# the relocation polish makes at most _MAX_ITER sweeps
_MAX_ITER = 300
_TOL = 1e-6
# `kmeans_best_of` refuses more restarts than this: a config's count is otherwise
# unbounded, and 2**64 restarts would never end
_MAX_RESTARTS = 1000


@dataclass(eq=False)
class NormalizedMatrix(Codec):
    """Z-scored metric matrix with the column statistics that produced it."""

    ids: tuple[str, ...]
    cols: tuple[str, ...]
    data: Matrix
    col_means: Vector
    col_stds: Vector
    dropped_cols: tuple[str, ...]

    def write_csv(self, out: TextIO) -> None:
        write_csv(out, ("workload",) + self.cols,
                  ([workload, *row] for workload, row in zip(self.ids, self.data.tolist())))


@dataclass(eq=False)
class PcaModel(Codec):
    """Principal components of the standardized matrix.

    `components` holds the retained components as rows (retained x d_in),
    while `eigenvalues` / `explained_variance_ratio` cover the full input
    dimension in non-increasing order.
    """

    components: Matrix
    eigenvalues: tuple[float, ...]
    explained_variance_ratio: tuple[float, ...]
    retained: int


@dataclass(eq=False)
class Clustering(Codec):
    """K-means outcome: assignments, centroids, and convergence diagnostics."""

    k: int
    assignments: dict[str, int]
    centroids: Matrix
    inertia: float
    iterations: int
    seed: int
    labels: tuple[int, ...]
    inertia_history: tuple[float, ...]


@dataclass(eq=False)
class ReductionResult(Codec):
    """Full audit trail of one reduction run."""

    clustering: Clustering
    representatives: tuple[str, ...]
    pca: PcaModel
    cluster_sizes: tuple[int, ...]
    normalized: NormalizedMatrix
    projected: Matrix


@dataclass(frozen=True)
class ReductionConfig:
    """Knobs for `reduce_vectors`. `k=None` selects k by BIC over [k_min, k_max].

    `k_max=None` searches up to max(k_min, n // 2) for n workloads: the
    largest k at which every cluster can hold two points. Above it,
    singleton clusters shrink the pooled variance and the BIC rises towards
    +inf at k = n, so an unbounded search would keep every workload.
    """

    variance_target: float = 0.85
    k: int | None = None
    k_min: int = 1
    k_max: int | None = None
    seed: int = 42
    restarts: int = 8


# --- standardization --------------------------------------------------------


def normalize_zscore(vectors: Sequence[MetricVector], schema: MetricSchema) -> NormalizedMatrix:
    """Standardize each metric column to mean 0 and sample std 1 (n-1 denominator).

    Columns with no variance carry no information for clustering; they are
    dropped and reported in `dropped_cols`. A column whose mean or standard
    deviation is beyond the float range is a `DataError` naming it.
    """
    if len(vectors) < 2:
        raise DataError(f"need at least 2 workloads to normalize, got {len(vectors)}")
    ids = tuple(v.workload_id for v in vectors)
    if len(set(ids)) != len(ids):
        raise DataError("workload ids must be unique")
    for v in vectors:
        if v.schema_version != schema.version:
            raise DataError(
                f"workload '{v.workload_id}': schema_version {v.schema_version!r} "
                f"does not match schema {schema.version!r}"
            )
        if len(v.values) != len(schema):
            raise DataError(
                f"workload '{v.workload_id}': vector length {len(v.values)} "
                f"does not match schema"
            )

    matrix = np.array([v.values for v in vectors], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        means = matrix.mean(axis=0)
        stds = matrix.std(axis=0, ddof=1)
    for name, mean, std in zip(schema.names, means, stds):
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise DataError(f"metric '{name}': mean or standard deviation beyond the float range")
    keep = stds > _ZERO_VARIANCE_RTOL * np.maximum(1.0, np.abs(means))
    dropped = tuple(name for name, kept in zip(schema.names, keep) if not kept)
    if dropped:
        log.warning("dropping zero-variance metrics: %s", ", ".join(dropped))
    data = (matrix[:, keep] - means[keep]) / stds[keep]
    return NormalizedMatrix(
        ids=ids,
        cols=tuple(name for name, kept in zip(schema.names, keep) if kept),
        data=data,
        col_means=means[keep],
        col_stds=stds[keep],
        dropped_cols=dropped,
    )


# --- PCA ---------------------------------------------------------------------


def fit_pca(nm: NormalizedMatrix | np.ndarray, variance_target: float = 0.85) -> PcaModel:
    """Eigendecompose the sample covariance and keep the leading components.

    Retains the smallest number of components whose cumulative explained
    variance reaches `variance_target`. Rank-deficient input is fine:
    trailing eigenvalues are clamped to zero. Each component is oriented
    so its largest-magnitude entry is positive.
    """
    if not 0.0 < variance_target <= 1.0:
        raise DataError(f"variance_target {variance_target} outside (0, 1]")
    data = nm.data if isinstance(nm, NormalizedMatrix) else np.asarray(nm, dtype=float)
    n, d = data.shape
    if d == 0:
        return PcaModel(
            components=np.zeros((0, 0)), eigenvalues=(), explained_variance_ratio=(),
            retained=0,
        )
    if n < 2:
        raise DataError(f"need at least 2 rows to fit, got {n}")

    cov = np.atleast_2d(np.cov(data, rowvar=False, ddof=1))
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    components = eigvecs[:, order].T
    for i in range(d):
        pivot = int(np.argmax(np.abs(components[i])))
        if components[i, pivot] < 0:
            components[i] = -components[i]

    total = float(eigvals.sum())
    ratios = eigvals / total if total > 0 else np.zeros(d)
    if total > 0:
        cumulative = np.cumsum(ratios)
        retained = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
        retained = min(retained, d)
    else:
        retained = d  # no variance anywhere; keep the full (arbitrary) basis
    return PcaModel(
        components=components[:retained],
        eigenvalues=tuple(float(v) for v in eigvals),
        explained_variance_ratio=tuple(float(v) for v in ratios),
        retained=retained,
    )


def project(nm: NormalizedMatrix | np.ndarray, model: PcaModel) -> np.ndarray:
    """Map rows into the retained component space."""
    data = nm.data if isinstance(nm, NormalizedMatrix) else np.asarray(nm, dtype=float)
    if model.retained == 0:
        return np.zeros((data.shape[0], 0))
    if data.shape[1] != model.components.shape[1]:
        raise DataError(
            f"matrix has {data.shape[1]} columns but the model expects "
            f"{model.components.shape[1]}"
        )
    return data @ model.components.T


# --- k-means -----------------------------------------------------------------


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    ids: Sequence[str] | None = None,
) -> Clustering:
    """Seeded k-means++ initialization, Lloyd iterations, point-move polish.

    Deterministic for a given (points, k, seed); the seed must not be
    negative. Lloyd iterations stop when the largest centroid movement drops
    below 1e-6, or after 300 of them; a final single-point relocation pass
    (Hartigan & Wong 1979, AS 136) then applies any strictly
    inertia-decreasing moves, which escapes Lloyd-stable local optima on
    small instances. An empty cluster is re-seeded with the point farthest
    from its assigned centroid (that point is moved into the empty cluster),
    so every cluster ends up non-empty.

    The polish visits the points in index order. A point x in cluster a of
    size n_a >= 2 moves to the other cluster b with the lowest
    n_b/(n_b+1)*|x - c_b|^2 (ties to the lowest index b), and only if that
    cost is strictly below n_a/(n_a-1)*|x - c_a|^2, the inertia x adds to a.
    Sweeps repeat until one makes no move, at most 300 of them. On
    return every cluster is non-empty and no single-point move lowers the
    inertia.

    `iterations` counts Lloyd iterations only. `inertia_history` holds the
    inertia after each Lloyd iteration, followed by the polished inertia
    when the polish lowered it. Centroids and inertia always come from the
    final members, so equal partitions give bit-equal inertia. Each is
    computed once: the polish starts from Lloyd's final centroids, and when
    it moves nothing they and the last Lloyd inertia are kept as they are.
    """
    # C order: the sums below then run over rows in index order whatever
    # the caller's memory layout
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2:
        raise DataError("points must be a 2-D matrix")
    n = points.shape[0]
    if k <= 0:
        raise DataError(f"k must be positive, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds the number of points ({n})")
    if seed < 0:
        raise DataError(f"seed must not be negative, got {seed}")
    if ids is None:
        ids = tuple(str(i) for i in range(n))
    else:
        ids = tuple(ids)
        if len(ids) != n:
            raise DataError(f"{len(ids)} ids for {n} points")
        if len(set(ids)) != n:
            raise DataError("ids must be unique")

    rng = np.random.default_rng(seed)
    centroids = points[_plus_plus_init(points, k, rng)].copy()

    labels = np.zeros(n, dtype=int)
    history: list[float] = []
    iterations = 0
    for _ in range(_MAX_ITER):
        iterations += 1
        distances = _sq_distances(points, centroids)
        labels = np.argmin(distances, axis=1)
        labels = _fill_empty_clusters(points, centroids, labels, k)

        new_centroids = _cluster_means(points, labels, k)
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()) \
            if centroids.size else 0.0
        centroids = new_centroids
        history.append(float(((points - centroids[labels]) ** 2).sum()))
        if movement < _TOL:
            break

    polished, centroids = _relocation_polish(points, labels, centroids, k, max_sweeps=_MAX_ITER)
    if history and np.array_equal(polished, labels):
        inertia = history[-1]  # same members, same centroids
    else:
        labels = polished
        inertia = float(((points - centroids[labels]) ** 2).sum())
        if not history or inertia < history[-1]:
            history.append(inertia)
    return Clustering(
        k=k,
        assignments={ids[i]: int(labels[i]) for i in range(n)},
        centroids=centroids,
        inertia=inertia,
        iterations=iterations,
        seed=seed,
        labels=tuple(int(v) for v in labels),
        inertia_history=tuple(history),
    )


def _cluster_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Row j is the mean of the points labelled j.

    The bytes equal `points[labels == j].mean(axis=0)`: a stable sort keeps
    each cluster's rows in index order, and `ndarray.mean` is this sum over
    axis 0 divided by the count. (`np.add.reduceat` sums in another order.)
    """
    grouped = points[np.argsort(labels, kind="stable")]
    means = np.empty((k, points.shape[1]))
    start = 0
    for j, end in enumerate(np.cumsum(np.bincount(labels, minlength=k)).tolist()):
        means[j] = np.add.reduce(grouped[start:end], axis=0) / (end - start)
        start = end
    return means


def _relocation_polish(
    points: np.ndarray, labels: np.ndarray, centroids: np.ndarray, k: int, max_sweeps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply strictly inertia-decreasing single-point moves.

    `centroids` must be the means of the clusters `labels` gives. Returns
    the new labels and the means of their clusters. See `kmeans` for the
    move criterion, visiting order and tie-break.

    Between two moves the centroids and counts do not change, so a sweep
    screens all the points not yet visited at once, with the same
    arithmetic a point-by-point test would do, and jumps to the first
    point that moves. The two centroids a move touches are updated in
    place; every later sweep starts from centroids recomputed exactly from
    the members, so rounding drift cannot build up across sweeps. A point
    never leaves a cluster of size 1.
    """
    labels = labels.copy()
    centroids = centroids.copy()
    n = points.shape[0]
    for sweep in range(max_sweeps):
        if sweep:
            centroids = _cluster_means(points, labels, k)
        counts = np.bincount(labels, minlength=k).astype(float)
        moved = False
        start = 0
        while start < n:
            d2 = ((points[start:, None, :] - centroids[None]) ** 2).sum(axis=2)
            rows = np.arange(n - start)
            own = labels[start:]
            add_cost = counts / (counts + 1.0) * d2
            add_cost[rows, own] = np.inf
            best = add_cost.argmin(axis=1)
            # n_a/(n_a-1), with the divisor kept off 0 for clusters of size 1
            leave_factor = counts / np.maximum(counts - 1.0, 1.0)
            moves = np.flatnonzero(
                (counts[own] >= 2) & (add_cost[rows, best] < leave_factor[own] * d2[rows, own])
            )
            if moves.size == 0:
                break
            i = start + int(moves[0])
            a, b, x = labels[i], int(best[moves[0]]), points[i]
            centroids[a] = (counts[a] * centroids[a] - x) / (counts[a] - 1.0)
            centroids[b] = (counts[b] * centroids[b] + x) / (counts[b] + 1.0)
            counts[a] -= 1.0
            counts[b] += 1.0
            labels[i] = b
            moved = True
            start = i + 1
        if not moved:
            return labels, centroids
    return labels, _cluster_means(points, labels, k)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    dists = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(dists.sum())
        if total > 0:
            # the draw of `rng.choice(n, p=dists / total)`, without its input checks
            cdf = (dists / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.integers(n))  # all remaining mass at existing centers
        chosen.append(idx)
        dists = np.minimum(dists, ((points - points[idx]) ** 2).sum(axis=1))
    return chosen


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    if points.shape[1] == 0:
        return np.zeros((points.shape[0], centroids.shape[0]))
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _fill_empty_clusters(
    points: np.ndarray, centroids: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k)
    for cluster in range(k):
        if counts[cluster] > 0:
            continue
        # donate the point farthest from its centroid, from a cluster that
        # can spare one; k <= n guarantees such a cluster exists
        dist_to_own = ((points - centroids[labels]) ** 2).sum(axis=1)
        eligible = counts[labels] >= 2
        if not eligible.any():
            raise DataError("cannot re-seed empty cluster")  # unreachable for k <= n
        candidates = np.where(eligible, dist_to_own, -np.inf)
        donor = int(np.argmax(candidates))
        counts[labels[donor]] -= 1
        counts[cluster] += 1
        labels[donor] = cluster
        centroids[cluster] = points[donor]
    return labels


def kmeans_best_of(
    points: np.ndarray,
    k: int,
    seed: int,
    restarts: int,
    ids: Sequence[str] | None = None,
) -> Clustering:
    """Run `restarts` seeded k-means runs and keep the lowest inertia.

    Restart seeds are seed, seed+1, ...; ties keep the earliest seed. A
    count outside [1, _MAX_RESTARTS] is a `DataError`.
    """
    if not 1 <= restarts <= _MAX_RESTARTS:
        raise DataError(f"restarts must be in [1, {_MAX_RESTARTS}], got {restarts}")
    best: Clustering | None = None
    for r in range(restarts):
        result = kmeans(points, k, seed + r, ids=ids)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


# --- model selection ---------------------------------------------------------


def bic_score(points: np.ndarray, clustering: Clustering) -> float:
    """Bayesian Information Criterion of a clustering, higher is better.

    Models the data as a hard-assignment mixture of spherical Gaussians
    with a shared variance (the pooled within-cluster mean squared
    deviation per dimension). Zero pooled variance makes the likelihood
    unbounded; that degenerate fit scores +inf.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    k = clustering.k
    if d == 0:
        return math.inf
    sigma2 = clustering.inertia / (n * d)
    if sigma2 <= 0.0:
        return math.inf
    labels = np.asarray(clustering.labels)
    counts = np.bincount(labels, minlength=k).astype(float)
    log_likelihood = float(
        (counts * np.log(counts / n)).sum()
        - 0.5 * n * d * (math.log(2.0 * math.pi * sigma2) + 1.0)
    )
    params = (k - 1) + k * d + 1
    return log_likelihood - 0.5 * params * math.log(n)


def choose_k(
    points: np.ndarray,
    k_min: int,
    k_max: int,
    seed: int,
    restarts: int = 8,
    ids: Sequence[str] | None = None,
) -> Clustering:
    """Return the clustering in [k_min, k_max] that maximizes the BIC.

    Each candidate k is scored on its best-of-`restarts` k-means result,
    and the winning result is returned as it was scored. Ties go to the
    smallest k.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k_min <= k_max <= n:
        raise DataError(f"need 1 <= k_min <= k_max <= n, got ({k_min}, {k_max}) with n={n}")
    best: Clustering | None = None
    best_score = -math.inf
    for k in range(k_min, k_max + 1):
        clustering = kmeans_best_of(points, k, seed, restarts, ids=ids)
        score = bic_score(points, clustering)
        log.debug("k=%d inertia=%.6g bic=%.6g", k, clustering.inertia, score)
        if best is None or score > best_score:
            best, best_score = clustering, score
    assert best is not None
    return best


# --- representatives ----------------------------------------------------------


def select_representatives(
    clustering: Clustering, points: np.ndarray, ids: Sequence[str]
) -> list[str]:
    """Per cluster, the member nearest the centroid; ties take the smallest id."""
    points = np.asarray(points, dtype=float)
    ids = tuple(ids)
    if len(ids) != points.shape[0] or len(ids) != len(clustering.labels):
        raise DataError("points and ids are inconsistent with the clustering")
    for i, workload in enumerate(ids):
        if clustering.assignments.get(workload) != clustering.labels[i]:
            raise DataError(f"id {workload!r} does not match the clustering's assignments")

    labels = np.asarray(clustering.labels)
    representatives: list[str] = []
    for cluster in range(clustering.k):
        member_rows = np.where(labels == cluster)[0]
        if member_rows.size == 0:
            raise DataError(f"cluster {cluster} has no members")
        d2 = ((points[member_rows] - clustering.centroids[cluster]) ** 2).sum(axis=1)
        best = d2.min()
        candidates = [ids[row] for row, dist in zip(member_rows, d2) if dist == best]
        representatives.append(min(candidates))
    return representatives


# --- pipeline -----------------------------------------------------------------


def reduce_vectors(
    vectors: Sequence[MetricVector], schema: MetricSchema, config: ReductionConfig
) -> ReductionResult:
    """Normalize, project, cluster, and pick representatives for metric vectors."""
    nm = normalize_zscore(vectors, schema)
    pca = fit_pca(nm, config.variance_target)
    projected = project(nm, pca)
    if config.k is not None:
        clustering = kmeans_best_of(
            projected, config.k, config.seed, config.restarts, ids=nm.ids
        )
    else:
        n = projected.shape[0]
        k_max = config.k_max if config.k_max is not None else max(config.k_min, n // 2)
        clustering = choose_k(
            projected, config.k_min, k_max, config.seed, config.restarts, ids=nm.ids
        )
    representatives = select_representatives(clustering, projected, nm.ids)
    sizes = tuple(int(c) for c in np.bincount(clustering.labels, minlength=clustering.k))
    return ReductionResult(
        clustering=clustering,
        representatives=tuple(representatives),
        pca=pca,
        cluster_sizes=sizes,
        normalized=nm,
        projected=projected,
    )
