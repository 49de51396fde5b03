"""Property tests on degenerate inputs: exact-zero and near-zero masses,
single atoms and classes, duplicate conditional rows, 5-class sides.

Examples are derandomized and bounded, so every run checks the same cases
in a few seconds.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapcraft import bound, distortion
from gapcraft.bound import DiscreteInstance
from gapcraft.probs import entropy

from oracles import enumerate_polytope_vertices, fld_kernel, realized_plan

PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# masses before normalization: exact zeros, near-zeros down to a subnormal,
# and ordinary weights
_MASS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-300, 1e-17, 1e-12, 3.77e-7]),
    st.floats(1e-9, 1e-3),
    st.floats(1e-3, 1.0),
)


@st.composite
def distributions(draw, min_size=1, max_size=5):
    """A probability vector of min_size..max_size classes with positive total."""
    k = draw(st.integers(min_size, max_size))
    raw = np.array(draw(st.lists(_MASS, min_size=k, max_size=k)))
    if not raw.sum() > 0.0:
        raw[draw(st.integers(0, k - 1))] = 1.0
    return raw / raw.sum()


@st.composite
def conditionals(draw, atoms: int, classes: int, positive: bool = False):
    """Per-atom conditionals, floored at 1e-3 when ``positive`` (as the
    predictions are); sometimes every row repeats the first."""
    rows = []
    for _ in range(atoms):
        row = draw(distributions(classes, classes))
        if positive:
            row = np.maximum(row, 1e-3)
            row /= row.sum()
        rows.append(row)
    if draw(st.booleans()):
        rows = [rows[0]] * atoms
    return np.array(rows)


@st.composite
def instances(draw):
    k = draw(st.integers(1, 5))
    kz, kt = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    points = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(k, 2))
    return DiscreteInstance(
        points,
        draw(distributions(k, k)),
        draw(distributions(k, k)),
        draw(conditionals(k, kz)),
        draw(conditionals(k, kt)),
        draw(conditionals(k, kz, positive=True)),
        draw(conditionals(k, kt, positive=True)),
    )


@settings(PROPERTY, max_examples=150)
@given(distributions(), distributions())
def test_fld_kernel_marginals_and_range(w, q):
    res = distortion.fld_exact(w, q)
    assert np.abs(fld_kernel(res.coupling, q).sum(axis=1) - 1.0).max() <= 1e-10
    assert np.abs(res.coupling.sum(axis=1) - w).max() <= 1e-11
    assert np.abs(res.coupling.sum(axis=0) - q).max() <= 1e-11
    assert 0.0 <= res.fld <= entropy(q) + 1e-12


@settings(PROPERTY, max_examples=150)
@given(distributions(), distributions())
def test_fld_coupling_is_exactly_zero_off_the_support(w, q):
    """Zero on every dead row and column, so the FLD kernel puts no mass on
    a class q never emits: the condition under which the fitting term's
    closed form is its program's minimum."""
    pi = distortion.fld_exact(w, q).coupling
    assert pi.shape == (w.size, q.size)
    assert (pi[w == 0.0] == 0.0).all()
    assert (pi[:, q == 0.0] == 0.0).all()


@settings(PROPERTY, max_examples=150)
@given(distributions(max_size=3), distributions(max_size=3))
def test_fld_is_the_minimum_over_enumerated_vertices(w, q):
    vertices = enumerate_polytope_vertices(w, q)
    best = min(entropy(v) for v in vertices) - entropy(w)
    assert abs(distortion.fld_exact(w, q).fld - max(0.0, best)) <= 1e-12


@settings(PROPERTY, max_examples=40)
@given(instances())
def test_bound_and_proof_terms_hold(inst):
    assert bound.evaluate_bound(inst).gap >= -1e-9
    terms = bound.verify_proof_terms(inst)
    assert terms.term_a_lhs <= terms.term_a_rhs + 1e-9
    assert terms.term_b_lhs <= terms.term_b_rhs + 1e-9


@settings(PROPERTY, max_examples=150)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_tf_realized_plan_is_finite_and_reproduces_prediction(kz, kt, data):
    """The fitting term's plan stays finite when a target class carries a
    subnormal mass, and its mixture under w reproduces p on every column
    completed with p (the class is never visited, or p_j / q_j overflows)
    and on every column whose kernel mixture reproduces q_j."""
    w = data.draw(distributions(kz, kz))
    q = data.draw(distributions(kt, kt))
    p = data.draw(distributions(kt, kt))
    kernel = fld_kernel(distortion.fld_exact(w, q).coupling, q)
    plan = realized_plan(kernel, q, p)
    assert np.isfinite(plan).all()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        completed = ~np.isfinite(p / q)
    faithful = np.abs(w @ kernel - q) <= 1e-9 * q
    assert np.abs(w @ plan - p)[completed | faithful].max(initial=0.0) <= 1e-9
