import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrstat import corrdist, rngutil, synthgen
from corrstat.errors import InvalidParameter, NotPositiveDefinite
from corrstat.synthgen import GeneratorSpec, TrueCorrelation

from conftest import gaussian_panel, make_panel


def spec_for(truth, family=synthgen.FAMILY_GAUSSIAN, n_steps=500, seed=42, nu=None):
    return GeneratorSpec(family, truth.n_series, n_steps, seed, truth, nu=nu)


def test_true_correlation_validation():
    with pytest.raises(InvalidParameter):
        TrueCorrelation(np.ones((2, 3)))
    asym = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(InvalidParameter):
        TrueCorrelation(asym)
    scaled = np.array([[2.0, 0.2], [0.2, 2.0]])
    with pytest.raises(InvalidParameter):
        TrueCorrelation(scaled)
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        TrueCorrelation(singular)


@pytest.mark.parametrize("gap, symmetric", [(1e-9, True), (1e-7, False)])
def test_true_correlation_symmetry_bound_scales_with_the_entries(gap, symmetric):
    # 1e-12 max(1, max |entry|) is 1e-8 here; past the symmetry gate the
    # 1e4 off-diagonal leaves the matrix indefinite
    entries = np.array([[1.0, 1e4], [1e4 + gap, 1.0]])
    assert synthgen.asymmetric(entries) is not symmetric
    with pytest.raises(NotPositiveDefinite if symmetric else InvalidParameter) as info:
        TrueCorrelation(entries)
    assert ("symmetric" in str(info.value)) is not symmetric


@pytest.mark.parametrize("build", [
    lambda: synthgen.identity_correlation(0),
    lambda: synthgen.identity_correlation(-1),
    lambda: synthgen.one_factor_correlation(0, 1),
    lambda: synthgen.one_factor_correlation(-2, 1),
    lambda: TrueCorrelation(np.zeros((0, 0))),
], ids=["identity:0", "identity:-1", "onefactor:0", "onefactor:-2", "entries:0x0"])
def test_empty_or_negative_size_correlation_is_invalid(build):
    with pytest.raises(InvalidParameter):
        build()


def test_negative_substream_index_is_invalid():
    with pytest.raises(InvalidParameter, match="substream index"):
        rngutil.rng_for(1, "x", -1)
    truth = synthgen.identity_correlation(2)
    for spec in (spec_for(truth),
                 spec_for(truth, family=synthgen.FAMILY_STUDENT_T, nu=4.0)):
        with pytest.raises(InvalidParameter, match="substream index"):
            synthgen.sample_panel(spec, replica=-2)


def test_true_correlation_immutable():
    truth = synthgen.identity_correlation(3)
    with pytest.raises(ValueError):
        truth.entries[0, 1] = 0.5


def test_generator_spec_validation():
    truth = synthgen.identity_correlation(3)
    with pytest.raises(InvalidParameter):
        GeneratorSpec("cauchy", 3, 100, 0, truth)
    with pytest.raises(InvalidParameter):
        GeneratorSpec(synthgen.FAMILY_STUDENT_T, 3, 100, 0, truth)
    with pytest.raises(InvalidParameter):
        GeneratorSpec(synthgen.FAMILY_STUDENT_T, 3, 100, 0, truth, nu=2.0)
    for nu in (float("inf"), float("nan")):
        with pytest.raises(InvalidParameter):
            GeneratorSpec(synthgen.FAMILY_STUDENT_T, 3, 100, 0, truth, nu=nu)
    for nu in (5.0, float("nan")):  # a nu the Gaussian family would never use
        with pytest.raises(InvalidParameter, match="nu must be None unless family is "
                                                   "'student-t', got"):
            GeneratorSpec(synthgen.FAMILY_GAUSSIAN, 3, 100, 0, truth, nu=nu)
    with pytest.raises(InvalidParameter):
        GeneratorSpec(synthgen.FAMILY_GAUSSIAN, 3, 0, 0, truth)
    with pytest.raises(InvalidParameter):
        GeneratorSpec(synthgen.FAMILY_GAUSSIAN, 4, 100, 0, truth)


def test_student_t_sampling_nu_floor():
    # nu in (2, 3) is a legal variance target but the generator refuses it
    truth = synthgen.identity_correlation(2)
    with pytest.raises(InvalidParameter):
        spec_for(truth, family=synthgen.FAMILY_STUDENT_T, nu=2.5)
    spec = spec_for(truth, family=synthgen.FAMILY_STUDENT_T, nu=synthgen.MIN_NU)
    assert synthgen.sample_student_t_panel(spec).n_series == 2


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        a = rng.normal(size=(n, n + 3))
        c = a @ a.T + n * np.eye(n)
        lower = synthgen.cholesky(c)
        assert np.abs(lower - np.linalg.cholesky(c)).max() < 1e-12
        assert np.abs(lower @ lower.T - c).max() < 1e-10
        assert np.abs(np.triu(lower, 1)).max() == 0.0


def test_cholesky_failure_names_the_fault():
    bad = np.eye(3)
    bad[0, 1] = bad[1, 0] = 2.0
    with pytest.raises(NotPositiveDefinite, match="^matrix is not positive definite$"):
        synthgen.cholesky(bad)

    tail = synthgen.one_factor_correlation(5, seed=1).entries.copy()
    tail[4, 4] = -1.0
    with pytest.raises(NotPositiveDefinite, match="^matrix is not positive definite$"):
        synthgen.cholesky(tail)

    with pytest.raises(NotPositiveDefinite, match="^matrix is not symmetric$"):
        synthgen.cholesky(np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_gaussian_panel_deterministic():
    truth = synthgen.equicorr_correlation(4, 0.3)
    spec = spec_for(truth, seed=7)
    first = synthgen.sample_gaussian_panel(spec)
    again = synthgen.sample_gaussian_panel(spec, replica=0)
    assert np.array_equal(first.returns, again.returns)
    other_replica = synthgen.sample_gaussian_panel(spec, replica=1)
    assert not np.array_equal(first.returns, other_replica.returns)
    other_seed = synthgen.sample_gaussian_panel(spec_for(truth, seed=8))
    assert not np.array_equal(first.returns, other_seed.returns)


def test_gaussian_panel_hits_target_correlation():
    truth = synthgen.equicorr_correlation(3, 0.5)
    spec = spec_for(truth, n_steps=200000, seed=1)
    panel = synthgen.sample_gaussian_panel(spec)
    estimate = corrdist.corr_matrix(panel).entries
    assert np.abs(estimate - truth.entries).max() < 0.01


def test_student_t_panel_common_scale():
    # one chi-square scale per time step couples magnitudes across
    # series even under an identity correlation target
    truth = synthgen.identity_correlation(2)
    spec = spec_for(truth, family=synthgen.FAMILY_STUDENT_T,
                    n_steps=20000, seed=5, nu=3.0)
    panel = synthgen.sample_student_t_panel(spec)
    x, y = panel.returns
    mag_corr = np.corrcoef(np.abs(x), np.abs(y))[0, 1]
    assert mag_corr > 0.1
    kurt = float(np.mean(x ** 4) / np.mean(x ** 2) ** 2)
    assert kurt > 5.0  # far beyond the Gaussian 3
    assert 1.5 < float(np.var(x)) < 6.0  # nu/(nu-2) = 3 up to heavy tails


def test_sample_panel_dispatch():
    truth = synthgen.identity_correlation(2)
    g = synthgen.sample_panel(spec_for(truth, n_steps=50))
    t = synthgen.sample_panel(spec_for(truth, family=synthgen.FAMILY_STUDENT_T,
                                       n_steps=50, nu=3.0))
    assert g.returns.shape == t.returns.shape == (2, 50)


def test_estimate_as_truth_clean():
    truth = synthgen.equicorr_correlation(4, 0.4)
    panel = synthgen.sample_gaussian_panel(spec_for(truth, n_steps=2000, seed=2))
    promoted = synthgen.sample_estimate_as_truth(panel)
    assert promoted.repaired is False
    assert np.array_equal(promoted.entries,
                          corrdist.corr_matrix(panel).entries)


def test_estimate_as_truth_runs_one_eigenvalue_gate(monkeypatch):
    panel = gaussian_panel(4, 500, seed=2)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    assert synthgen.sample_estimate_as_truth(panel).repaired is False
    assert len(calls) == 1


def test_estimate_as_truth_repairs_rank_deficiency():
    rng = np.random.default_rng(4)
    panel = make_panel(rng.normal(size=(20, 12)))  # N > T: singular estimate
    promoted = synthgen.sample_estimate_as_truth(panel)
    assert promoted.repaired is True
    entries = promoted.entries
    assert np.abs(np.diag(entries) - 1.0).max() < 1e-12
    assert np.abs(entries - entries.T).max() == 0.0
    assert float(np.linalg.eigvalsh(entries)[0]) > 0.0
    synthgen.cholesky(promoted.entries)  # usable as a generator target


def test_equicorr_domain():
    synthgen.equicorr_correlation(5, -0.24)  # just inside -1/(N-1)
    with pytest.raises(InvalidParameter):
        synthgen.equicorr_correlation(5, -0.25)
    with pytest.raises(InvalidParameter):
        synthgen.equicorr_correlation(5, 1.0)
    with pytest.raises(InvalidParameter):
        synthgen.equicorr_correlation(1, 0.0)


def test_one_factor_structure():
    truth = synthgen.one_factor_correlation(6, seed=9)
    entries = truth.entries
    off = entries[~np.eye(6, dtype=bool)]
    assert off.min() > 0.3 ** 2 - 1e-12
    assert off.max() < 0.9 ** 2 + 1e-12
    again = synthgen.one_factor_correlation(6, seed=9)
    assert np.array_equal(entries, again.entries)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
def test_panel_reproducible(seed, replica):
    truth = synthgen.equicorr_correlation(3, 0.2)
    spec = spec_for(truth, n_steps=20, seed=seed)
    a = synthgen.sample_panel(spec, replica)
    b = synthgen.sample_panel(spec, replica)
    assert np.array_equal(a.returns, b.returns)
    assert a.returns.shape == (3, 20)


@given(st.integers(0, 2 ** 32 - 1))
def test_replicas_distinct(seed):
    truth = synthgen.identity_correlation(2)
    spec = spec_for(truth, n_steps=30, seed=seed)
    a = synthgen.sample_panel(spec, replica=0)
    b = synthgen.sample_panel(spec, replica=1)
    assert not np.array_equal(a.returns, b.returns)
