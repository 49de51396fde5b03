"""Task generation, dataset files, and exact-instance substrates."""

import re
from dataclasses import replace

import numpy as np
import pytest

from gapcraft import synthtasks
from gapcraft.distortion import fld_exact
from gapcraft.synthtasks import Dataset, TaskSpec


def test_generate_reproducible_bitwise():
    spec = TaskSpec(family="rotated", seed=5)
    a = synthtasks.generate(spec)
    b = synthtasks.generate(spec)
    assert np.array_equal(a.source.x, b.source.x)
    assert np.array_equal(a.target.y, b.target.y)
    assert a.meta == b.meta


def test_source_and_proxy_share_distribution_but_not_samples():
    bundle = synthtasks.generate(TaskSpec(family="rotated", seed=1))
    assert not np.array_equal(bundle.source.x[: len(bundle.proxy)], bundle.proxy.x)
    # same planted parameters, so the empirical means should be close
    # (mixture-mean sampling noise across 240 draws is a few tenths)
    assert np.linalg.norm(
        bundle.source.x.mean(axis=0) - bundle.proxy.x.mean(axis=0)
    ) < 1.0
    assert bundle.meta["class_means"] == synthtasks.generate(
        TaskSpec(family="rotated", seed=1)
    ).meta["class_means"]


def test_rotated_target_lives_in_lifted_space():
    spec = TaskSpec(family="rotated", source_dim=4, target_dim=6, seed=2)
    bundle = synthtasks.generate(spec)
    assert bundle.target.x.shape[1] == 6
    lift = np.array(bundle.meta["planted_map"])
    assert lift.shape == (6, 4)
    assert np.allclose(lift.T @ lift, np.eye(4), atol=1e-12)


def test_rotated_signal_recoverable_through_planted_map():
    spec = TaskSpec(family="rotated", source_dim=4, target_dim=12, seed=2)
    bundle = synthtasks.generate(spec)
    lift = np.array(bundle.meta["planted_map"])
    # projecting out the distractor subspace recovers separated classes
    back = bundle.target.x @ lift
    means = np.array(bundle.meta["class_means"])
    latent_guess = np.argmin(
        ((back[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    agree = np.mean(latent_guess == bundle.target.y)
    assert agree > 0.85  # label noise accounts for the rest


def test_permuted_labels_records_permutation():
    spec = TaskSpec(family="permuted_labels", target_dim=4, seed=3)
    bundle = synthtasks.generate(spec)
    perm = np.array(bundle.meta["planted_permutation"])
    assert sorted(perm.tolist()) == [0, 1, 2]
    assert np.any(perm != np.arange(3))
    lift = np.array(bundle.meta["planted_map"])
    assert np.allclose(lift.T @ lift, np.eye(4), atol=1e-12)


def test_gap_dial_zero_knob_reproduces_source_process():
    spec = TaskSpec(family="gap_dial", target_dim=4, gap_knob=0.0, seed=4)
    bundle = synthtasks.generate(spec)
    assert np.allclose(np.array(bundle.meta["planted_map"]), np.eye(4))
    assert bundle.meta["planted_permutation"] == [0, 1, 2]
    # same generative law as the source: compare class-conditional means on
    # the large splits (the small target split is too noisy for this check)
    for c in range(3):
        ms = bundle.source.x[bundle.source.y == c].mean(axis=0)
        mt = bundle.target_test.x[bundle.target_test.y == c].mean(axis=0)
        assert np.linalg.norm(ms - mt) < 0.6


def test_gap_dial_planted_fld_monotone_in_knob():
    values = []
    for knob in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = TaskSpec(family="gap_dial", target_dim=4, gap_knob=knob, seed=6)
        marg, w_rows, q_rows = synthtasks.gap_dial_conditionals(spec)
        e_fld = sum(
            marg[i] * fld_exact(w_rows[i], q_rows[i]).fld for i in range(len(marg))
        )
        values.append(e_fld)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert all(values[i + 1] >= values[i] - 1e-12 for i in range(4))
    assert values[-1] == pytest.approx(np.log(3.0), abs=1e-9)


def test_bayes_error_metadata():
    spec = TaskSpec(family="rotated", label_noise=0.08, seed=7)
    bundle = synthtasks.generate(spec)
    assert bundle.meta["bayes_error"] == pytest.approx(0.08)
    spec2 = TaskSpec(family="gap_dial", target_dim=4, gap_knob=1.0, seed=7)
    bundle2 = synthtasks.generate(spec2)
    # knob 1: every class has the same input law, so the posterior is uniform
    assert bundle2.meta["bayes_error"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    dial = TaskSpec(family="gap_dial", target_dim=4, seed=0)
    # knob 0: the classes barely overlap, so only the label flip errs
    assert synthtasks.generate(dial).meta["bayes_error"] == pytest.approx(0.1, abs=1e-6)
    half = synthtasks.generate(replace(dial, gap_knob=0.5)).meta["bayes_error"]
    assert half == pytest.approx(0.483, abs=0.005)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        TaskSpec(family="nope")
    with pytest.raises(ValueError):
        TaskSpec(family="rotated", n_classes=1)
    with pytest.raises(ValueError):
        TaskSpec(family="gap_dial", gap_knob=1.5, target_dim=4)
    with pytest.raises(ValueError):
        TaskSpec(family="permuted_labels", n_classes=3, n_target_classes=4)
    for noise in (-0.5, 1.5):
        with pytest.raises(ValueError, match=r"label_noise must lie in \[0, 1\]"):
            TaskSpec(label_noise=noise)
    # every split needs a row: an empty one fails every later use of the bundle
    for split in ("n_source", "n_proxy", "n_target", "n_target_test"):
        with pytest.raises(ValueError, match="must be at least 1"):
            TaskSpec(**{split: 0})
    # every family draws its target labels from the source's classes
    with pytest.raises(ValueError, match="n_target_classes must be at least n_classes"):
        TaskSpec(family="rotated", n_classes=3, n_target_classes=2)


# ---------------------------------------------------------------------------
# Discrete instances
# ---------------------------------------------------------------------------


def test_random_instance_atoms_are_more_than_1e_6_apart():
    """The sampler redraws its atoms until every pair is more than 1e-6
    apart, well clear of the instance's own 1e-9 distinctness test."""
    for seed in range(1000):
        points = synthtasks.random_discrete_instance(seed).points
        i, j = np.triu_indices(points.shape[0], k=1)
        assert np.all(np.linalg.norm(points[i] - points[j], axis=1) > 1e-6), seed


def test_random_instances_pass_validation():
    for seed in range(50):
        inst = synthtasks.random_discrete_instance(seed)
        assert inst.n_points <= 5
        assert inst.source_cond.shape[1] <= 4
        assert inst.target_cond.shape[1] <= 4


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------


def test_dataset_csv_roundtrip(tmp_path):
    bundle = synthtasks.generate(TaskSpec(family="rotated", seed=10, n_source=20))
    path = tmp_path / "source.csv"
    synthtasks.save_dataset(bundle.source, path, bundle.meta)
    loaded, meta = synthtasks.load_dataset(path)
    assert np.array_equal(loaded.x, bundle.source.x)
    assert np.array_equal(loaded.y, bundle.source.y)
    assert meta["family"] == "rotated"


def test_dataset_needs_one_input_row_per_label():
    for x in (np.zeros(2), np.zeros((2, 2)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match="one row per label"):
            Dataset(x, np.array([0]))


def test_dataset_csv_float_labels(tmp_path):
    """Labels are integer class ids: a float-label Dataset is rejected, and
    so is a CSV whose label column holds a float, naming the file."""
    with pytest.raises(ValueError, match="labels must be integer class ids"):
        Dataset(np.array([[1.0, 2.0]]), np.array([0.75]))
    path = tmp_path / "reg.csv"
    path.write_text("x0,x1,label\n1.0,2.0,0.75\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: labels must be integer class ids")):
        synthtasks.load_dataset(path)
