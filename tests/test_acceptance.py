"""Acceptance criteria, one test per criterion with a printed verdict line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each asserts its stated tolerance.
"""

import time
from dataclasses import replace

import numpy as np

from gapcraft import bound, distortion, lipschitz, models, pipeline, synthtasks, transport
from gapcraft.lipschitz import LipschitzConfig
from gapcraft.pipeline import PipelineConfig
from gapcraft.probs import entropy
from gapcraft.synthtasks import TaskSpec
from gapcraft.transport import SinkhornConfig

from oracles import (
    exact_source_conditional,
    finite_difference,
    fld_kernel,
    params_vector,
    params_with_vector,
    pointwise_losses,
    relative_gradient_error,
    tf_convex_oracle,
    transport_head,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_01_theorem_holds_universally():
    """1000 random discrete instances, zero bound violations beyond -1e-9."""
    start = time.time()
    worst = np.inf
    violations = 0
    for seed in range(1000):
        report = bound.evaluate_bound(synthtasks.random_discrete_instance(seed))
        worst = min(worst, report.gap)
        if report.gap < -1e-9:
            violations += 1
    elapsed = time.time() - start
    _verdict(
        1,
        violations == 0 and elapsed < 60.0,
        f"violations={violations}/1000, worst gap={worst:.3e}, {elapsed:.1f}s (<60s)",
    )


def test_criterion_02_proof_terms_hold():
    """A <= E[FLD+TF] and B <= FA on 500 random instances at 1e-9."""
    violations = 0
    for seed in range(500):
        t = bound.verify_proof_terms(synthtasks.random_discrete_instance(seed))
        if t.term_a_lhs > t.term_a_rhs + 1e-9 or t.term_b_lhs > t.term_b_rhs + 1e-9:
            violations += 1
    _verdict(2, violations == 0, f"violations={violations}/500")


def test_criterion_03_fld_oracle_consistency():
    """Exact distortion dominated by every feasible coupling and by H(q);
    enumeration optimum matched by a random-vertex search at 1e-9."""
    start = time.time()
    rng = np.random.default_rng(123)
    bad = 0
    for _ in range(500):
        kz, kt = rng.integers(2, 5, size=2)
        w = rng.dirichlet(np.ones(kz))
        q = rng.dirichlet(np.ones(kt))
        exact = distortion.fld_exact(w, q).fld
        ok = (
            exact <= distortion.fld_surrogate(np.outer(w, q)) + 1e-9
            and exact <= entropy(q) + 1e-9
        )
        # hardest shapes get the full search budget; smaller polytopes have
        # far fewer vertices and saturate with far fewer draws
        n_samples = 100_000 if kz * kt >= 16 else (20_000 if kz * kt >= 9 else 2_000)
        search = distortion.random_vertex_entropies(w, q, n_samples, rng)
        ok = ok and abs(float(search.min()) - entropy(w) - exact) <= 1e-9
        bad += 0 if ok else 1
    elapsed = time.time() - start
    _verdict(3, bad == 0 and elapsed < 30.0, f"violations={bad}/500, {elapsed:.1f}s (<30s)")


def test_criterion_04_tf_closed_form_vs_convex_oracle():
    """|closed form - convex solve| <= 1e-4 on 200 feasible instances."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        kz, kt = rng.integers(2, 5, size=2)
        w = rng.dirichlet(np.ones(kz))
        q = rng.dirichlet(np.ones(kt))
        p_tau = rng.dirichlet(np.ones(kt) * 2)
        plus = fld_kernel(distortion.fld_exact(w, q).coupling, q)
        closed = bound.tf_closed_form(q, p_tau)
        oracle = tf_convex_oracle(plus, w, p_tau)
        worst = max(worst, abs(closed - oracle))
    _verdict(4, worst <= 1e-4, f"worst |closed-oracle|={worst:.2e} (<=1e-4)")


def test_criterion_05_sinkhorn_vs_exact_lp():
    """eps=0.01 entropic estimate within 5% + 1e-3 of the LP; dual lower
    bounds never exceed it."""
    rng = np.random.default_rng(11)
    worst_ratio = 0.0
    lb_violations = 0
    for _ in range(100):
        n, m = rng.integers(4, 33, size=2)
        cost = transport.cost_matrix(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(m))
        res = transport.sinkhorn(cost, mu, nu, SinkhornConfig(0.01, 20000, 1e-8))
        _, w1 = transport.exact_w1(cost, mu, nu)
        worst_ratio = max(worst_ratio, abs(res.w1_estimate - w1) / (0.05 * w1 + 1e-3))
        lb = transport.dual_lower_bound(cost, mu, nu, res.potential_g)
        if lb > w1 + 1e-9:
            lb_violations += 1
    _verdict(
        5,
        worst_ratio <= 1.0 and lb_violations == 0,
        f"worst deviation at {100 * worst_ratio:.1f}% of allowance, "
        f"duality violations={lb_violations}",
    )


def _fa_config(rng):
    phi = models.init_mlp([3, 5, 4], rng)
    theta = models.init_mlp([3, 5, 4], rng)
    target = rng.normal(size=(5, 3))
    source = rng.normal(size=(6, 3))
    return phi, theta, target, source


def test_criterion_06_gradient_integrity():
    """Analytic gradients of the four training losses against central
    finite differences, 50 random configurations per loss."""
    rng = np.random.default_rng(5)
    worst = {"fa": 0.0, "fld": 0.0, "penalty": 0.0, "nll": 0.0}

    for _ in range(50):
        # alignment loss under a fixed coupling
        phi, theta, target, source = _fa_config(rng)
        omega = float(rng.uniform(0.2, 1.5))
        v = models.embed(theta, source)
        loss, grads, res = transport.fa_loss_and_grad(
            phi, target, v, omega, SinkhornConfig(0.1, 2000, 1e-7)
        )
        pi = res.coupling

        def fa_objective(vec):
            u = models.embed(params_with_vector(phi, vec), target)
            return omega * float((pi * transport.cost_matrix(u, v)).sum())

        fd = finite_difference(fa_objective, params_vector(phi))
        analytic = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])
        worst["fa"] = max(worst["fa"], relative_gradient_error(analytic, fd))

    for _ in range(50):
        # distortion surrogate with soft counts
        phi = models.init_mlp([3, 4, 3], rng)
        head = models.init_mlp([3, 3], rng)
        x = rng.normal(size=(10, 3))
        y = rng.integers(0, 3, size=10)
        _, grads = distortion.fld_loss_and_grad(phi, head, x, y, 3)

        def fld_objective(vec):
            joint = distortion.pseudo_label_stats(params_with_vector(phi, vec), head, x, y, 3)
            return distortion.fld_surrogate(joint)

        fd = finite_difference(fld_objective, params_vector(phi))
        analytic = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])
        worst["fld"] = max(worst["fld"], relative_gradient_error(analytic, fd))

    count = 0
    while count < 50:
        # recalibration objective (hinge-squared gradient-norm penalty plus
        # proxy cross-entropy) with respect to the last layer
        head = models.init_mlp([4, rng.integers(2, 5)], rng)
        u = rng.normal(size=(12, 4))
        d = np.eye(head.output_dim)[rng.integers(0, head.output_dim, size=12)]
        norms = np.linalg.norm(lipschitz.feature_gradients(head, u, d), axis=1)
        omega = float(rng.uniform(0.3, 0.9)) * float(np.median(norms))
        if np.min(np.abs(norms - omega)) < 1e-3:  # keep clear of hinge kinks
            continue
        count += 1
        cfg = LipschitzConfig(omega=omega, penalty_weight=1.0, enforcement_margin=1.0)
        last = head.layers[-1]
        _, _, (gw, gb) = lipschitz._recalibration_loss_and_grad(last.w, last.b, u, d, cfg)
        analytic = np.concatenate([gw.ravel(), gb.ravel()])

        def penalty_objective(vec, head=head, u=u, d=d, omega=omega, last=last):
            w = vec[: last.w.size].reshape(last.w.shape)
            b = vec[last.w.size :].reshape(last.b.shape)
            patched = models.MlpParams(
                head.layers[:-1] + (models.Layer(w, b, last.act),)
            )
            return (
                lipschitz.penalty_value(patched, u, d, omega)
                + pointwise_losses(patched, u, d)[0].mean()
            )

        x0 = np.concatenate([last.w.ravel(), last.b.ravel()])
        fd = finite_difference(penalty_objective, x0)
        worst["penalty"] = max(worst["penalty"], relative_gradient_error(analytic, fd))

    for _ in range(50):
        # stage-2 negative log-likelihood with respect to the kernel
        kz, kt = rng.integers(2, 4, size=2)
        u = rng.normal(size=(8, 3))
        head = models.init_mlp([3, kz], rng)
        kernel = transport_head(3, kz, kt, rng, feature_scale=0.4)
        p_s = models.predict_source(head, u)
        labels = rng.integers(0, kt, size=8)
        onehot = np.eye(kt)[labels]
        _, gw, gb = pipeline._stage2_loss_and_grad(kernel, u, p_s, labels, onehot)
        analytic = np.concatenate([gw.ravel(), gb.ravel()])

        def nll_objective(vec, kernel=kernel, u=u, p_s=p_s, labels=labels, onehot=onehot):
            w = vec[: kernel.w.size].reshape(kernel.w.shape)
            b = vec[kernel.w.size :].reshape(kernel.b.shape)
            k = models.TransportHeadParams(w, b, kernel.n_source_classes)
            return pipeline._stage2_loss_and_grad(k, u, p_s, labels, onehot)[0]

        x0 = np.concatenate([kernel.w.ravel(), kernel.b.ravel()])
        fd = finite_difference(nll_objective, x0)
        worst["nll"] = max(worst["nll"], relative_gradient_error(analytic, fd))

    ok = all(v < 1e-4 for v in worst.values())
    _verdict(6, ok, "worst relative errors: " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_07_lipschitz_recalibration():
    """After recalibration at omega=0.3, the 95th-percentile held-out
    feature-gradient norm is within 1.1x omega and proxy error degrades by
    less than 2 points."""
    spec = TaskSpec(family="rotated", seed=0, n_proxy=700)
    bundle = synthtasks.generate(spec)
    cfg = PipelineConfig(seed=0)
    theta, head, _ = pipeline.pretrain_source(bundle, cfg)
    train = synthtasks.Dataset(bundle.proxy.x[:240], bundle.proxy.y[:240])
    hold = synthtasks.Dataset(bundle.proxy.x[240:], bundle.proxy.y[240:])

    u_hold = models.embed(theta, hold.x)
    base_err = float(
        np.mean(np.argmax(models.predict_source(head, u_hold), axis=1) != hold.y)
    )
    lip = LipschitzConfig(0.3, penalty_weight=10.0, epochs=800, lr=0.1, enforcement_margin=0.8)
    # exact mode: the generator supplies the true label conditional, which
    # is what the pointwise source loss is defined against
    cond_train = exact_source_conditional(bundle.meta, train.x)
    result = lipschitz.recalibrate_head(
        head, theta, train.x, train.y, lip, conditional=cond_train
    )
    cond_hold = exact_source_conditional(bundle.meta, hold.x)
    norms = np.linalg.norm(
        lipschitz.feature_gradients(result.head, u_hold, cond_hold), axis=1
    )
    q95 = float(np.quantile(norms, 0.95))
    err = float(
        np.mean(np.argmax(models.predict_source(result.head, u_hold), axis=1) != hold.y)
    )
    ok = q95 <= 0.3 * 1.1 and err - base_err < 0.02
    _verdict(
        7,
        ok,
        f"q95 norm={q95:.3f} (<=0.33), error {base_err:.3f}->{err:.3f} "
        f"(degradation {(err - base_err) * 100:+.1f}pp < 2pp)",
    )


def test_criterion_08_gap_error_correlation():
    """Rotated family, 3 task seeds x 5 run seeds: median Pearson r >= 0.8
    between semantic gap and held-out error over stage-1 checkpoints."""
    start = time.time()
    rs = []
    for task_seed in range(3):
        bundle = synthtasks.generate(TaskSpec(family="rotated", seed=task_seed))
        for run_seed in range(5):
            result = pipeline.run_pipeline(bundle, PipelineConfig(seed=run_seed))
            r, _ = pipeline.correlate_gap_error(result.log)
            rs.append(r)
    elapsed = time.time() - start
    median_r = float(np.median(rs))
    _verdict(
        8,
        median_r >= 0.8 and elapsed < 300.0,
        f"median r={median_r:.3f} (>=0.8) over {len(rs)} runs, {elapsed:.0f}s (<300s)",
    )


def test_criterion_09_baseline_ordering():
    """recraft <= fa_only <= nft in median error on both families, and
    recraft within 1.5x the planted Bayes floor."""
    specs = {
        "rotated": TaskSpec(family="rotated"),
        "permuted_labels": TaskSpec(family="permuted_labels"),
    }
    rows = pipeline.run_baseline(specs, PipelineConfig(), seeds=range(5))
    details = []
    ok = True
    for task in specs:
        by_variant = {r["variant"]: r for r in rows if r["task"] == task}
        re_, fa, nft = (
            by_variant["recraft"]["median_error"],
            by_variant["fa_only"]["median_error"],
            by_variant["nft"]["median_error"],
        )
        bayes = by_variant["recraft"]["bayes_error"]
        ok = ok and re_ <= fa + 1e-9 and fa <= nft + 1e-9 and re_ <= 1.5 * bayes
        details.append(
            f"{task}: recraft={re_:.3f} <= fa_only={fa:.3f} <= nft={nft:.3f}, "
            f"1.5*bayes={1.5 * bayes:.3f}"
        )
    _verdict(9, ok, "; ".join(details))


def test_criterion_10_structural_reductions():
    """recraft(n1=n2=0) == nft and recraft(n2=0) == fa_only, bit for bit."""
    bundle = synthtasks.generate(TaskSpec(family="rotated", seed=2))
    cfg = PipelineConfig(n0=10, n1=4, n2=2, pretrain_epochs=80, seed=2)

    def run(**changes):  # pretrained, not recalibrated
        vcfg = replace(cfg, **changes)
        return pipeline.run_pipeline(bundle, vcfg, pipeline.pretrain_source(bundle, vcfg))

    a = run(n1=0, n2=0)
    b = run(baseline="nft")
    nft_ok = (
        a.holdout_error == b.holdout_error
        and a.log.records == b.log.records
        and np.array_equal(a.kernel.w, b.kernel.w)
        and np.array_equal(a.kernel.b, b.kernel.b)
    )
    c = run(n2=0)
    d = run(baseline="fa_only")
    fa_ok = (
        c.holdout_error == d.holdout_error
        and c.log.records == d.log.records
        and all(
            np.array_equal(x.w, y.w) and np.array_equal(x.b, y.b)
            for x, y in zip(c.phi.layers, d.phi.layers)
        )
    )
    _verdict(10, nft_ok and fa_ok, f"nft reduction={nft_ok}, fa_only reduction={fa_ok}")


def test_criterion_11_bound_report_bars():
    """Five exact tasks: nonnegative segments summing to the bound's value,
    finite relative gap."""
    ok = True
    details = []
    for seed in range(5):
        inst = synthtasks.random_discrete_instance(seed + 10_000)
        r = bound.evaluate_bound(inst)
        segments_ok = min(r.err_s, r.fa, r.e_fld, r.e_tf) >= 0.0
        sum_ok = abs((r.err_s + r.fa + r.e_fld + r.e_tf) - r.rhs) <= 1e-9
        finite_ok = np.isfinite(r.relative_gap)
        ok = ok and segments_ok and sum_ok and finite_ok
        details.append(f"task{seed}: rel_gap={r.relative_gap:.3f}")
    _verdict(11, ok, "; ".join(details))
