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
separation is identical for every seed and, for the two modality
families, the Bayes-optimal error is the planted label noise up to
negligible Gaussian overlap.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bound import DiscreteInstance, _atom_separation
from .probs import fold_last, softmax

__all__ = [
    "TaskSpec",
    "Dataset",
    "TaskBundle",
    "generate",
    "gap_dial_conditionals",
    "random_discrete_instance",
    "save_dataset",
    "load_dataset",
]

FAMILIES = ("rotated", "permuted_labels", "gap_dial")
MEAN_SCALE = 3.0
NOISE_SCALE = 0.5
DISTRACTOR_SCALE = 1.0  # noise level of the complementary dims
BAYES_DRAWS = 60_000  # Monte Carlo draws of the gap_dial Bayes error


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
        if not min(self.n_source, self.n_proxy, self.n_target, self.n_target_test) >= 1:
            raise ValueError("n_source, n_proxy, n_target and n_target_test must be at least 1")
        if not 0.0 <= self.gap_knob <= 1.0:
            raise ValueError("gap_knob must lie in [0, 1]")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise must lie in [0, 1]")
        if self.family in ("permuted_labels", "gap_dial") and (
            self.n_target_classes != self.n_classes
        ):
            raise ValueError(f"{self.family} requires matching class counts")
        if self.n_target_classes < self.n_classes:  # target labels are source classes
            raise ValueError("n_target_classes must be at least n_classes")
        if self.family == "gap_dial" and self.target_dim != self.source_dim:
            raise ValueError("gap_dial keeps the input space: target_dim == source_dim")


@dataclass(frozen=True)
class Dataset:
    """Input rows ``x``, one per label, and their labels ``y``, integer
    class ids."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        dtype = np.asarray(self.y).dtype
        if not np.issubdtype(dtype, np.integer):
            raise ValueError(f"labels must be integer class ids, got dtype {dtype}")
        shape = np.shape(self.x)
        if len(shape) != 2 or shape[0] != len(self.y):
            raise ValueError(
                f"inputs must be a 2-D array with one row per label, got shape "
                f"{shape} for {len(self.y)} labels"
            )

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
    blends the permuted one-hot toward uniform with the knob.  These are the
    noise-free planted conditionals: :func:`generate` also flips each label
    with probability ``label_noise``, which they leave out.
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

    For the modality families it is ``label_noise``: class separation is
    3*sqrt(2) against noise 0.5, so Gaussian overlap is negligible, and a
    flip always lands off the prediction.

    For gap_dial, with knob q and k classes, it is
    1 - E_x[max_y sum_c P(c|x) T[c, y]].  The latent class c is uniform and
    x | c ~ N((1 - q) mu_c, s^2 I), s^2 = (1 - q)^2 NOISE_SCALE^2 +
    q^2 MEAN_SCALE^2.  The label channel T keeps c with probability
    (1 - q) + q/k and moves it to each other class with probability q/k,
    then flips it to a uniformly chosen other class with probability
    ``label_noise``.  E_x is a Monte Carlo mean of the posterior's max over
    BAYES_DRAWS draws, the same number from each class, taken from a stream
    of its own: the value is a pure function of the spec, and no data
    stream moves.
    """
    if spec.family != "gap_dial":
        return spec.label_noise
    k, q = spec.n_classes, spec.gap_knob
    eye = np.eye(k)
    scramble = (1.0 - q) * eye + q / k
    flip = (1.0 - spec.label_noise) * eye + spec.label_noise / (k - 1) * (1.0 - eye)
    means = (1.0 - q) * _class_means(spec)
    var = ((1.0 - q) * NOISE_SCALE) ** 2 + (q * MEAN_SCALE) ** 2
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 29]))
    latent = np.repeat(np.arange(k), BAYES_DRAWS // k)
    x = means[latent] + np.sqrt(var) * rng.normal(size=(latent.size, spec.source_dim))
    # log N(x; mu_c, var I) up to the term in |x|^2 that every class shares
    posterior = softmax((x @ means.T - 0.5 * (means * means).sum(axis=1)) / var)
    return float(1.0 - fold_last(np.maximum, posterior @ (scramble @ flip)).mean())


# ---------------------------------------------------------------------------
# Exact discrete instances
# ---------------------------------------------------------------------------


def _dirichlet_rows(rng, n, k, alpha) -> np.ndarray:
    return rng.dirichlet(np.full(k, alpha), size=n)


def _some_exact_zeros(rng: np.random.Generator, cond: np.ndarray) -> np.ndarray:
    """``cond``, or with probability 1/4 ``cond`` with each entry but its
    row's largest set to exactly 0 with probability 0.3, rows renormalized."""
    if rng.random() >= 0.25:
        return cond
    mask = rng.random(cond.shape) < 0.3
    mask[np.arange(cond.shape[0]), cond.argmax(axis=1)] = False
    cond = np.where(mask, 0.0, cond)
    return cond / cond.sum(axis=1, keepdims=True)


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
    points = rng.normal(size=(k, d))
    while _atom_separation(points) <= 1e-6:
        points = rng.normal(size=(k, d))
    alpha = float(rng.choice([0.4, 1.0, 3.0]))
    source_marginal = rng.dirichlet(np.full(k, 1.0))
    target_marginal = rng.dirichlet(np.full(k, 1.0))
    source_cond = _dirichlet_rows(rng, k, kz, alpha)
    target_cond = _dirichlet_rows(rng, k, kt, alpha)
    source_cond = _some_exact_zeros(rng, source_cond)
    target_cond = _some_exact_zeros(rng, target_cond)
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
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(meta or {}, indent=2))


def load_dataset(path) -> tuple[Dataset, dict]:
    """Read a :func:`save_dataset` file; ValueError names a file with no
    header or no data rows, the line of a row whose field count is not the
    header's or whose feature field is not a finite number, or a label
    column that is not integer class ids."""
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:  # an empty file, or a blank first line
            raise ValueError(f"{path}: no header")
        x, labels = [], []
        for row in reader:
            at = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{at}: expected {len(header)} fields, got {len(row)}")
            try:
                x.append([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise ValueError(f"{at}: {exc}") from exc
            if not np.isfinite(x[-1]).all():
                raise ValueError(f"{at}: feature fields must be finite, got {row[:-1]}")
            labels.append(row[-1])
    if not x:
        raise ValueError(f"{path}: no data rows")
    try:
        y = np.array([int(v) for v in labels], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: labels must be integer class ids: {exc}") from exc
    sidecar = path.with_suffix(".json")
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    return Dataset(np.array(x), y), meta
