"""Synthetic cross-modal task pairs with known ground truth.

Families:

* ``rotated``: target inputs are a planted orthonormal lift of the source
  generative process into a different dimensionality; labels shared.
* ``permuted_labels``: same input modality, target labels are a planted
  permutation of the source classes.
* ``gap_dial``: one knob in [0, 1] interpolates features from a planted
  rotation to fresh noise and labels from a planted permutation to
  uniform, giving monotone, oracle-checkable control of the semantic gap.

Finite instances for the bound calculus come from
:func:`random_discrete_instance`.

Class means sit on scaled orthonormal directions, so pairwise class
separation is identical for every seed and the Bayes-optimal error is the
planted label noise up to negligible Gaussian overlap.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bound import DiscreteInstance
from .transport import cost_matrix

__all__ = [
    "TaskSpec",
    "Dataset",
    "TaskBundle",
    "Discretizer",
    "generate",
    "discretize",
    "gap_dial_conditionals",
    "random_discrete_instance",
    "save_dataset",
    "load_dataset",
]

log = logging.getLogger("gapcraft")

FAMILIES = ("rotated", "permuted_labels", "gap_dial")
MEAN_SCALE = 3.0
NOISE_SCALE = 0.5
DISTRACTOR_SCALE = 1.0  # noise level of the complementary dims


@dataclass(frozen=True)
class TaskSpec:
    family: str = "rotated"
    source_dim: int = 4
    target_dim: int = 12
    n_classes: int = 3
    n_target_classes: int = 3
    n_source: int = 240
    n_proxy: int = 240
    n_target: int = 48
    n_target_test: int = 400
    gap_knob: float = 0.0
    label_noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n_classes < 2 or self.n_target_classes < 2:
            raise ValueError("classification needs at least 2 classes per task")
        if self.n_target < 1:
            raise ValueError("n_target must be at least 1")
        if not 0.0 <= self.gap_knob <= 1.0:
            raise ValueError("gap_knob must lie in [0, 1]")
        if self.family in ("permuted_labels", "gap_dial") and (
            self.n_target_classes != self.n_classes
        ):
            raise ValueError(f"{self.family} requires matching class counts")
        if self.family == "gap_dial" and self.target_dim != self.source_dim:
            raise ValueError("gap_dial keeps the input space: target_dim == source_dim")


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class TaskBundle:
    source: Dataset
    proxy: Dataset
    target: Dataset
    target_test: Dataset
    meta: dict = field(default_factory=dict)


def _class_means(spec: TaskSpec) -> np.ndarray:
    """Deterministic orthogonal class directions with distinct radii.

    Distinct radii break the symmetry of the cluster constellation, so the
    distributional matching between source and target feature clouds has a
    unique optimum instead of a permutation family of ties.
    """
    if spec.n_classes > spec.source_dim:
        raise ValueError("need source_dim >= n_classes for orthogonal class means")
    gram = np.random.default_rng(spec.seed).normal(
        size=(spec.source_dim, spec.source_dim)
    )
    q, _ = np.linalg.qr(gram)
    radii = MEAN_SCALE * (1.0 + 0.5 * np.arange(spec.n_classes))
    return radii[:, None] * q[:, : spec.n_classes].T


def _planted_map(spec: TaskSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal signal lift (target_dim x source_dim) and the
    complementary distractor basis (target_dim x (target_dim - source_dim))."""
    if spec.target_dim < spec.source_dim:
        raise ValueError("target_dim must be >= source_dim for the planted lift")
    gram = rng.normal(size=(spec.target_dim, spec.target_dim))
    q, _ = np.linalg.qr(gram)
    return q[:, : spec.source_dim], q[:, spec.source_dim :]


def _flip_labels(
    labels: np.ndarray, n_classes: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    out = labels.copy()
    flips = rng.random(labels.size) < noise
    if flips.any():
        shift = rng.integers(1, n_classes, size=int(flips.sum()))
        out[flips] = (out[flips] + shift) % n_classes
    return out


def _draw_source_like(
    spec: TaskSpec, means: np.ndarray, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    latent = rng.integers(0, spec.n_classes, size=n)
    x = means[latent] + NOISE_SCALE * rng.normal(size=(n, spec.source_dim))
    y = _flip_labels(latent, spec.n_classes, spec.label_noise, rng)
    return x, y, latent


def gap_dial_conditionals(spec: TaskSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planted per-class-atom conditionals of the gap_dial family.

    Returns (atom marginal, source conditionals, target conditionals): the
    source conditional at atom c is one-hot at c, the target conditional
    blends the permuted one-hot toward uniform with the knob.
    """
    k = spec.n_classes
    perm = _permutation(spec)
    source_cond = np.eye(k)
    onehot = np.eye(k)[perm]
    uniform = np.full((k, k), 1.0 / k)
    target_cond = (1.0 - spec.gap_knob) * onehot + spec.gap_knob * uniform
    return np.full(k, 1.0 / k), source_cond, target_cond


def _permutation(spec: TaskSpec) -> np.ndarray:
    # Only the permuted_labels family relabels; gap_dial blends away from
    # the source task itself so that knob zero reproduces it exactly.
    if spec.family != "permuted_labels":
        return np.arange(spec.n_classes)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 17]))
    while True:
        perm = rng.permutation(spec.n_classes)
        if np.any(perm != np.arange(spec.n_classes)):
            return perm


def generate(spec: TaskSpec) -> TaskBundle:
    """Draw the four datasets of a task pair plus ground-truth metadata.

    Source and proxy come from the same distribution through disjoint
    seeded streams; target and target_test likewise.  Everything is a pure
    function of the spec.
    """
    ss = np.random.SeedSequence([spec.seed, 101])
    rng_source, rng_proxy, rng_target, rng_test, rng_map = (
        np.random.default_rng(s) for s in ss.spawn(5)
    )
    means = _class_means(spec)
    xs, ys, _ = _draw_source_like(spec, means, spec.n_source, rng_source)
    xp, yp, _ = _draw_source_like(spec, means, spec.n_proxy, rng_proxy)

    # The modality families lift the source process into a larger space and
    # add distractor noise on the complementary directions; gap_dial keeps
    # the input space so knob zero reproduces the source exactly.
    if spec.family == "gap_dial":
        lift = np.eye(spec.source_dim)
        spare = np.zeros((spec.source_dim, 0))
    else:
        lift, spare = _planted_map(spec, rng_map)
    perm = _permutation(spec)

    def draw_target(n: int, rng: np.random.Generator) -> Dataset:
        latent = rng.integers(0, spec.n_classes, size=n)
        clean = means[latent] + NOISE_SCALE * rng.normal(size=(n, spec.source_dim))
        x = clean @ lift.T
        if spare.shape[1]:
            x = x + rng.normal(
                scale=DISTRACTOR_SCALE, size=(n, spare.shape[1])
            ) @ spare.T
        if spec.family == "gap_dial":
            fresh = rng.normal(
                scale=MEAN_SCALE, size=(n, lift.shape[0])
            )
            x = (1.0 - spec.gap_knob) * x + spec.gap_knob * fresh
        y = perm[latent]
        if spec.family == "gap_dial":
            scramble = rng.random(n) < spec.gap_knob
            y = np.where(
                scramble, rng.integers(0, spec.n_target_classes, size=n), y
            )
        y = _flip_labels(y, spec.n_target_classes, spec.label_noise, rng)
        return Dataset(x, y.astype(np.int64))

    bayes = _bayes_error(spec)
    meta = {
        "family": spec.family,
        "seed": spec.seed,
        "n_classes": spec.n_classes,
        "n_target_classes": spec.n_target_classes,
        "gap_knob": spec.gap_knob,
        "label_noise": spec.label_noise,
        "class_means": means.tolist(),
        "planted_map": lift.tolist(),
        "planted_permutation": perm.tolist(),
        "bayes_error": bayes,
        "trainable_error": spec.label_noise + 0.05,
    }
    return TaskBundle(
        Dataset(xs, ys.astype(np.int64)),
        Dataset(xp, yp.astype(np.int64)),
        draw_target(spec.n_target, rng_target),
        draw_target(spec.n_target_test, rng_test),
        meta,
    )


def _bayes_error(spec: TaskSpec) -> float:
    """0-1 error of the Bayes predictor on target labels.

    Class separation is 3*sqrt(2) against noise 0.5, so Gaussian overlap is
    negligible; the floor comes from planted label noise, and for gap_dial
    additionally from the uniform scramble.
    """
    k = spec.n_target_classes
    noise_err = spec.label_noise  # flip always lands off the prediction
    if spec.family != "gap_dial":
        return noise_err
    keep = (1.0 - spec.gap_knob) * (1.0 - spec.label_noise) + spec.gap_knob / k * (
        1.0 - spec.label_noise
    )
    # scrambled labels match the Bayes prediction with probability 1/k
    return 1.0 - keep


# ---------------------------------------------------------------------------
# Label discretization for regression-style tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Discretizer:
    """Quantile (equal-mass) bin edges over continuous labels."""

    edges: np.ndarray  # n_bins + 1 ascending values

    @classmethod
    def fit(cls, labels, n_bins: int = 10) -> "Discretizer":
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if labels.size == 0:
            raise ValueError("cannot fit a discretizer on no labels")
        edges = np.quantile(labels, np.linspace(0.0, 1.0, n_bins + 1))
        edges = np.unique(edges)
        if edges.size == 1:  # single distinct label value
            edges = np.array([edges[0], edges[0] + 1e-12])
        return cls(edges)

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1

    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def discretize(labels, d: Discretizer) -> np.ndarray:
    """Bin indices in [0, n_bins); half-open bins, edges belong to the right.

    Labels outside the fitted range clamp into the boundary bins; the count
    of clamped labels is logged as a warning.
    """
    labels = np.asarray(labels, dtype=np.float64).ravel()
    outside = int(((labels < d.edges[0]) | (labels > d.edges[-1])).sum())
    if outside:
        log.warning("discretize: %d labels outside the fitted range, clamped", outside)
    idx = np.searchsorted(d.edges[1:-1], labels, side="right")
    return np.clip(idx, 0, d.n_bins - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# Exact discrete instances
# ---------------------------------------------------------------------------


def _dirichlet_rows(rng, n, k, alpha) -> np.ndarray:
    return rng.dirichlet(np.full(k, alpha), size=n)


def random_discrete_instance(seed: int) -> DiscreteInstance:
    """Random finite instance: the substrate of the bound verification suite.

    1 to 5 feature atoms in 1 to 3 dimensions carry 2 to 4 source and 2 to
    4 target classes.  Marginals and conditionals are Dirichlet draws of
    varying concentration; conditionals occasionally carry exact zeros to
    exercise the degenerate paths.  Predictions stay strictly positive so
    every term is finite.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2024]))
    k = int(rng.integers(1, 6))
    kz = int(rng.integers(2, 5))
    kt = int(rng.integers(2, 5))
    d = int(rng.integers(1, 4))
    while True:
        points = rng.normal(size=(k, d))
        if k == 1:
            break
        dist = cost_matrix(points, points)
        np.fill_diagonal(dist, np.inf)
        if dist.min() > 1e-6:
            break
    alpha = float(rng.choice([0.4, 1.0, 3.0]))
    source_marginal = rng.dirichlet(np.full(k, 1.0))
    target_marginal = rng.dirichlet(np.full(k, 1.0))
    source_cond = _dirichlet_rows(rng, k, kz, alpha)
    target_cond = _dirichlet_rows(rng, k, kt, alpha)
    if rng.random() < 0.25:  # exact zeros in the conditionals
        mask = rng.random(source_cond.shape) < 0.3
        keep = source_cond.argmax(axis=1)
        mask[np.arange(k), keep] = False
        source_cond = np.where(mask, 0.0, source_cond)
        source_cond /= source_cond.sum(axis=1, keepdims=True)
    if rng.random() < 0.25:
        mask = rng.random(target_cond.shape) < 0.3
        keep = target_cond.argmax(axis=1)
        mask[np.arange(k), keep] = False
        target_cond = np.where(mask, 0.0, target_cond)
        target_cond /= target_cond.sum(axis=1, keepdims=True)
    p_source = _dirichlet_rows(rng, k, kz, 2.0)
    p_target = _dirichlet_rows(rng, k, kt, 2.0)
    return DiscreteInstance(
        points,
        source_marginal,
        target_marginal,
        source_cond,
        target_cond,
        p_source,
        p_target,
    )


# ---------------------------------------------------------------------------
# Dataset files: CSV matrix plus JSON sidecar
# ---------------------------------------------------------------------------


def save_dataset(ds: Dataset, path, meta: dict | None = None) -> None:
    """Feature columns then the label column; metadata in `<stem>.json`."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(ds.x.shape[1])] + ["label"])
        for row, label in zip(ds.x, ds.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label) if np.issubdtype(ds.y.dtype, np.integer) else repr(float(label))])
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(meta or {}, indent=2))


def load_dataset(path) -> tuple[Dataset, dict]:
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    n_features = len(header) - 1
    x = np.array([[float(v) for v in row[:n_features]] for row in rows])
    raw = [row[n_features] for row in rows]
    try:
        y = np.array([int(v) for v in raw], dtype=np.int64)
    except ValueError:
        y = np.array([float(v) for v in raw])
    sidecar = path.with_suffix(".json")
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    return Dataset(x, y), meta
