"""The permutation engine against the refit-per-permutation oracle.

``loop_oracle.loop_permutation_test`` refits the model under every
permutation, re-imputing masked entries first; the engine in
``fftasca.glm`` reads permuted F-ratios off the permuted cell means with
one scorer set up once per test (dense data through a factor of the
N x N kernel ``Re(X X^H)``) and refits only near-ties.  Their tables must
be equal exactly: same nominal rows, same p-values, same permutation
count.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fftasca import design, glm, synth
from fftasca.design import DesignSpec, Factor, encode
from fftasca.errors import EmptyCellWarning, ZeroResidual
from fftasca.glm import pcmr_permutation_test, permutation_test
from fftasca.linalg import numerical_rank
from fftasca.synth import SynthConfig, jitter_experiment
from loop_oracle import loop_permutation_test

KINDS = ("one_way", "two_factor", "interaction", "rank_deficient", "exhaustive")


@st.composite
def factor_labels(draw, n_levels, max_per_level):
    counts = draw(st.lists(st.integers(1, max_per_level),
                           min_size=n_levels, max_size=n_levels))
    labels = [lev for lev, c in enumerate(counts) for _ in range(c)]
    return draw(st.permutations(labels))


@st.composite
def cases(draw, kind):
    """(design spec, data, permutation count, seed) for one kind of design."""
    if kind == "exhaustive":
        a = draw(factor_labels(draw(st.integers(2, 3)), 2))
        n = len(a)
        factors = [Factor.from_labels("a", a)]
        if n >= 4 and draw(st.booleans()):
            b = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                     .filter(lambda v: len(set(v)) == 2))
            factors.append(Factor.from_labels("b", b))
        spec = DesignSpec(factors=tuple(factors))
    else:
        a = draw(factor_labels(draw(st.integers(2, 4)), 4))
        n = len(a)
        factors = [Factor.from_labels("a", a)]
        interactions = ()
        if kind == "rank_deficient":
            relabel = draw(st.permutations(sorted(set(a))))
            factors.append(Factor.from_labels("b", [relabel[v] for v in a]))
            interactions = ((0, 1),) if draw(st.booleans()) else ()
        elif kind in ("two_factor", "interaction"):
            b = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                     .filter(lambda v: len(set(v)) == 2))
            factors.append(Factor.from_labels("b", b))
            interactions = ((0, 1),) if kind == "interaction" else ()
        spec = DesignSpec(factors=tuple(factors), interactions=interactions)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 6))
    x = rng.normal(size=(n, m))
    if draw(st.booleans()):
        x = x + 1j * rng.normal(size=(n, m))
    x = x + draw(st.sampled_from([0.0, 4.0, 1e3]))
    if draw(st.booleans()):
        x[1] = x[0]  # duplicate rows make exact ties between permutations
    if kind == "exhaustive":
        n_perm = math.factorial(n) - 1
    else:
        n_perm = draw(st.integers(1, 60))
    return spec, x, n_perm, draw(st.integers(0, 1000))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_kernel_engine_equals_refit_oracle(kind, data):
    spec, x, n_perm, seed = data.draw(cases(kind))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dm = encode(spec)
        if numerical_rank(dm.matrix) >= dm.n_samples:
            return  # saturated: no residual to test against
        try:
            expected = loop_permutation_test(x, dm, n_permutations=n_perm, seed=seed)
        except ZeroResidual:
            with pytest.raises(ZeroResidual):
                permutation_test(x, dm, n_permutations=n_perm, seed=seed)
            return
        got = permutation_test(x, dm, n_permutations=n_perm, seed=seed)
    assert got == expected
    if kind == "exhaustive":
        assert got.n_permutations == math.factorial(dm.n_samples) - 1


def _random_mask(data, x):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(size=x.shape) < data.draw(st.floats(0.05, 0.6))
    mask.flat[data.draw(st.integers(0, mask.size - 1))] = True
    return mask


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_masked_scorer_equals_refit_oracle(kind, data):
    spec, x, n_perm, seed = data.draw(cases(kind))
    mask = _random_mask(data, x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dm = encode(spec)
        if numerical_rank(dm.matrix) >= dm.n_samples:
            return  # saturated: no residual to test against
        if data.draw(st.booleans()):  # a cell with nothing observed in a column
            rows = dm.cell_ids == data.draw(st.integers(0, int(dm.cell_ids.max())))
            mask[rows, data.draw(st.integers(0, x.shape[1] - 1))] = True
        try:
            expected = loop_permutation_test(x, dm, n_permutations=n_perm, seed=seed,
                                             mask=mask)
        except ZeroResidual:
            with pytest.raises(ZeroResidual):
                pcmr_permutation_test(x, mask, dm, n_permutations=n_perm, seed=seed)
            return
        got = pcmr_permutation_test(x, mask, dm, n_permutations=n_perm, seed=seed)
    assert got == expected


def test_pcmr_loop_equals_refit_oracle():
    rng = np.random.default_rng(3)
    a = Factor.from_labels("a", [0] * 6 + [1] * 6)
    b = Factor.from_labels("b", [0, 1, 2] * 4)
    dm = encode(DesignSpec(factors=(a, b), interactions=((0, 1),)))
    x = rng.uniform(1.0, 2.0, size=(12, 5))
    mask = rng.random(size=x.shape) < 0.15
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCellWarning)
        got = pcmr_permutation_test(x, mask, dm, n_permutations=99, seed=4)
        expected = loop_permutation_test(x, dm, n_permutations=99, seed=4, mask=mask)
    assert got == expected


@pytest.mark.parametrize("seed", [13, 15])
def test_drift_near_ties_decided_like_the_refit(seed, monkeypatch):
    # Here a true tie's refit F sits 1.3e-12 to 1.8e-12 from the nominal F,
    # so the count depends on the refit's rounding; the kernel alone
    # decides those ties the other way.  The literal (time, freq) z are the
    # benchmark's pins, so a refit change copied into the oracle still fails.
    pinned = {13: (2.172065188377434, 2.3282186283807236),
              15: (2.3282186283807236, 2.577553463733344)}[seed]
    got = jitter_experiment(SynthConfig(), [0], 1, n_permutations=200, seed=seed)
    monkeypatch.setattr(synth, "permutation_test", loop_permutation_test)
    expected = jitter_experiment(SynthConfig(), [0], 1, n_permutations=200, seed=seed)
    assert (got[0].z_time, got[0].z_freq) == pinned
    assert (expected[0].z_time, expected[0].z_freq) == pinned


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
def test_exact_fit_permutations_equal_refit_oracle(masked):
    # The rows come in three equal pairs, so the 48 permutations that put
    # each pair in one cell fit exactly: the refit's residual is 0 and its F
    # inf, while the scored residual rounds to a few 1e-16 of the total below 0.
    dm = encode(DesignSpec(factors=(Factor.from_labels("g", [0, 0, 1, 1, 2, 2]),)))
    a, b, c = [1.0, 3.0], [2.0, 5.0], [4.0, 1.0]
    x = np.array([a, b, c, a, b, c])
    mask = np.zeros(x.shape, dtype=bool)
    if masked:
        mask[0, 0] = mask[3, 1] = True  # the pair of a still observes both variables
    paired = [0, 3, 1, 4, 2, 5]
    with pytest.raises(ZeroResidual, match="rounds to zero"):
        pcmr_permutation_test(x[paired], mask[paired], dm, n_permutations=9)
    got = pcmr_permutation_test(x, mask, dm, n_permutations=719)
    expected = loop_permutation_test(x, dm, n_permutations=719,
                                     mask=mask if masked else None)
    assert got == expected
    assert got.row("g").p_value < 1.0


@pytest.mark.parametrize("kind", ("one_way", "interaction", "exhaustive"))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_chunk_boundaries_leave_the_tables_unchanged(kind, data):
    # chunks of 7 rows split sampled streams and enumerations mid-way
    spec, x, n_perm, seed = data.draw(cases(kind))
    mask = _random_mask(data, x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dm = encode(spec)
        if numerical_rank(dm.matrix) >= dm.n_samples:
            return  # saturated: no residual to test against

        def tables():
            return [permutation_test(x, dm, n_permutations=n_perm, seed=seed),
                    pcmr_permutation_test(x, mask, dm, n_permutations=n_perm, seed=seed),
                    loop_permutation_test(x, dm, n_permutations=n_perm, seed=seed),
                    loop_permutation_test(x, dm, n_permutations=n_perm, seed=seed, mask=mask)]

        try:
            default = tables()
        except ZeroResidual:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(design, "_SEED_CHUNK", 7)
            small = tables()
    assert small == default
    assert default[0] == default[2] and default[1] == default[3]


@pytest.mark.parametrize("masked, seed", [(False, 1), (True, 2)], ids=["dense", "masked"])
def test_engine_memory_does_not_grow_with_the_permutation_count(masked, seed, monkeypatch):
    # 20,000 permutations of 10 rows in chunks of 256: the engine's peak was
    # 9.98 MiB (dense) and 2.79 MiB (masked) with the whole stream held,
    # and is 0.41 MiB for both streamed
    monkeypatch.setattr(design, "_SEED_CHUNK", 256)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 50))
    mask = rng.random(size=x.shape) < 0.2 if masked else None
    dm = encode(DesignSpec(factors=(Factor.from_labels("g", [0] * 5 + [1] * 5),)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if masked:
            pcmr_permutation_test(x, mask, dm, n_permutations=20_000, seed=seed)
        else:
            permutation_test(x, dm, n_permutations=20_000, seed=seed)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("scale", [1e150, 1e-150])
@pytest.mark.parametrize("seed", range(3))
def test_dense_tables_far_from_unit_scale_equal_refit_oracle(scale, seed):
    # the kernel's entries reach about 1e302 and 1e-298, its factor 1e151 and 1e-149
    rng = np.random.default_rng(seed)
    dm = encode(DesignSpec(factors=(Factor.from_labels("g", [0, 1] * 4),)))
    x = rng.normal(size=(8, 40)) + 1j * rng.normal(size=(8, 40))
    x[::2] += 0.5
    x *= scale
    got = permutation_test(x, dm, n_permutations=199, seed=seed)
    assert got == loop_permutation_test(x, dm, n_permutations=199, seed=seed)


@pytest.mark.parametrize("seed", range(3))
def test_strided_complex_view_equals_refit_oracle(seed):
    # every other column of a complex table, which no float64 view can interleave
    rng = np.random.default_rng(seed)
    dm = encode(DesignSpec(factors=(Factor.from_labels("g", [0, 1] * 5),)))
    x = (rng.normal(size=(10, 80)) + 1j * rng.normal(size=(10, 80)))[:, ::2]
    x[::2] += 0.3
    assert not x.flags.c_contiguous
    got = permutation_test(x, dm, n_permutations=199, seed=seed)
    assert got == loop_permutation_test(x, dm, n_permutations=199, seed=seed)


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
def test_scorer_is_set_up_once_per_test(masked, monkeypatch):
    # 60 permutations in chunks of 7 are 9 chunks, scored by one scorer
    monkeypatch.setattr(design, "_SEED_CHUNK", 7)
    calls, chunks = [], []
    cell_scorer = glm._cell_scorer

    def spy(*args):
        calls.append(args)
        score = cell_scorer(*args)
        return lambda perms: chunks.append(len(perms)) or score(perms)

    monkeypatch.setattr(glm, "_cell_scorer", spy)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 6))
    dm = encode(DesignSpec(factors=(Factor.from_labels("g", [0] * 5 + [1] * 5),)))
    if masked:
        pcmr_permutation_test(x, rng.random(size=x.shape) < 0.2, dm, n_permutations=60, seed=3)
    else:
        permutation_test(x, dm, n_permutations=60, seed=3)
    assert len(calls) == 1
    assert chunks == [7] * 8 + [4]


def _hats_through_n_by_n(dm):
    """``Ind^T (A^T A) Ind`` of every term's ``A = D_t pinv(D)_t``, then of the
    fitted part's ``A = D pinv(D)``, for the N x C cell indicator ``Ind``."""
    d, spans, proj = dm.matrix, dm.column_spans, dm.pinv.real
    ind = np.zeros((dm.n_samples, int(dm.cell_ids.max()) + 1))
    ind[np.arange(dm.n_samples), dm.cell_ids] = 1.0
    blocks = [d[:, spans[t]] @ proj[spans[t]] for t in dm.terms] + [d @ proj]
    return np.stack([ind.T @ (a.T @ a) @ ind for a in blocks])


def _assert_cell_hats_equal_the_n_by_n_formula(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dm = encode(spec)
    got, expected = glm._cell_hats(dm), _hats_through_n_by_n(dm)
    n_cells = int(dm.cell_ids.max()) + 1
    assert got.shape == expected.shape == (len(dm.terms) + 1, n_cells, n_cells)
    err = np.abs(got - expected).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(expected).max(axis=(1, 2)))


@pytest.mark.parametrize("labels, interactions", [
    (([0] * 6 + [1] * 6, [0, 1, 2] * 4), ((0, 1),)),
    (([0] * 6 + [1] * 6, [0, 1, 2] * 4), ()),
    (([0, 0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 0, 1, 0, 1, 1, 0, 1, 1]), ()),
    (([0, 0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 0, 1, 0, 1, 1, 0, 1, 1]), ((0, 1),)),
    (([0, 0, 1, 1, 0, 1, 2], [1, 1, 2, 2, 1, 2, 0]), ((0, 1),)),
], ids=["balanced interaction", "balanced", "unbalanced", "unbalanced interaction",
        "rank deficient"])
def test_cell_hats_equal_the_n_by_n_formula(labels, interactions):
    factors = tuple(Factor.from_labels(name, v) for name, v in zip("ab", labels))
    _assert_cell_hats_equal_the_n_by_n_formula(DesignSpec(factors=factors,
                                                          interactions=interactions))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_cell_hats_equal_the_n_by_n_formula_on_random_designs(kind, data):
    _assert_cell_hats_equal_the_n_by_n_formula(data.draw(cases(kind))[0])
