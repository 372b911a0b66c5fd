import numpy as np
import pytest

from regcca import glasso
from regcca.datamodel import center_and_covariance, make_folds, split_fold
from regcca.experiments import BOOTSTRAP_PANEL_DEFAULTS, _bootstrap_truth
from regcca.glasso import GlassoConvergenceError, GlassoError, glasso_fit, kkt_residual
from regcca.synth import canonical_pair_covariance, mvn_sample


def random_correlation(rng, d, extra=20):
    a = rng.standard_normal((d, d + extra))
    c = a @ a.T / (d + extra)
    s = np.sqrt(np.diag(c))
    return c / np.outer(s, s)


def glasso_objective(c, omega, lam):
    sign, logdet = np.linalg.slogdet(omega)
    assert sign > 0
    off = omega - np.diag(np.diagonal(omega))
    return logdet - np.sum(c * omega) - lam * np.sum(np.abs(off))


def proximal_gradient_oracle(c, lam, steps=200_000, tol=1e-8):
    """Slow first-order oracle: proximal gradient ascent on the penalised
    log-likelihood with backtracking, run to a tight objective plateau.

    Deliberately shares nothing with the ADMM path except the objective.
    """
    d = c.shape[0]
    omega = np.diag(1.0 / np.diag(c))
    step = 0.1
    prev = glasso_objective(c, omega, lam)
    for _ in range(steps):
        grad = np.linalg.inv(omega) - c
        while True:
            cand = omega + step * grad
            off = cand - np.diag(np.diagonal(cand))
            off = np.sign(off) * np.maximum(np.abs(off) - step * lam, 0.0)
            cand = off + np.diag(np.diagonal(cand))
            cand = 0.5 * (cand + cand.T)
            if np.linalg.eigvalsh(cand)[0] > 0:
                val = glasso_objective(c, cand, lam)
                if val >= prev - 1e-14:
                    break
            step *= 0.5
            if step < 1e-14:
                return omega
        omega = cand
        step *= 1.05
        if abs(val - prev) < tol * max(1.0, abs(val)):
            return omega
        prev = val
    return omega


def reference_admm(c, lam, tol=1e-7, max_iter=5000, rho=1.0):
    """Plain scaled ADMM with residual balancing and the same KKT stop rule:
    the solver glasso_fit accelerates.  Returns (omega, iterations)."""
    c = 0.5 * (c + c.T)
    x = np.diag(1.0 / np.maximum(np.diagonal(c), 1e-12))
    z = x.copy()
    u = np.zeros_like(c)
    for it in range(1, max_iter + 1):
        w, q = np.linalg.eigh(rho * (z - u) - c)
        xi = (w + np.sqrt(w**2 + 4.0 * rho)) / (2.0 * rho)
        x = (q * xi) @ q.T
        x = 0.5 * (x + x.T)
        z_old = z
        a = x + u
        z = np.sign(a) * np.maximum(np.abs(a) - lam / rho, 0.0)
        np.fill_diagonal(z, np.diagonal(a))
        u = u + x - z
        primal = float(np.linalg.norm(x - z))
        dual = float(np.linalg.norm(rho * (z - z_old)))
        if it % 10 == 0 or (primal < tol * 10 and dual < tol * 10):
            try:
                kkt = kkt_residual(c, 0.5 * (z + z.T), lam)
            except GlassoError:
                kkt = np.inf
            if kkt <= tol:
                return 0.5 * (z + z.T), it
        if primal > 10.0 * dual:
            rho *= 2.0
            u /= 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u *= 2.0
    raise GlassoConvergenceError("reference ADMM did not certify", {"iterations": it})


def canonical_pair_sample_covariance(n, seed):
    """The joint sample covariance gcca_fit passes to glasso in the
    criterion-3 experiment (p=q=30) at sample size n."""
    cov, _ = canonical_pair_covariance(30, 30, [0.9], 5, within_view="suo_sp", seed=7)
    data, _ = center_and_covariance(mvn_sample(cov, n, seed=seed))
    _, sample = center_and_covariance(data)
    return sample.joint()


# Both solvers stop at a KKT residual <= tol, which places each within about
# ||omega||^2 * tol of the optimum; at tol=1e-9 two certified solutions agree
# to well inside 1e-6 (at the default 1e-7, solutions of either solver on
# d=30 correlations at lam=0.01 can sit 2e-6 from the optimum).
AGREEMENT_TOL = 1e-9


def assert_matches_reference(c, lam):
    ref, _ = reference_admm(c, lam, tol=AGREEMENT_TOL)
    est = glasso_fit(c, lam, tol=AGREEMENT_TOL)
    np.testing.assert_array_equal(est.omega != 0.0, ref != 0.0)
    np.testing.assert_allclose(est.omega, ref, rtol=0.0, atol=1e-6)


class TestAcceleration:
    @pytest.mark.parametrize("d", [10, 30])
    def test_matches_reference_on_random_correlations(self, d):
        c = random_correlation(np.random.default_rng(d), d)
        for lam in (0.01, 0.05, 0.1, 0.3):
            assert_matches_reference(c, lam)

    @pytest.mark.parametrize("n", [40, 100, 400])
    def test_matches_reference_on_canonical_pair(self, n):
        # n=40 < p+q=60: the sample covariance is singular
        c = canonical_pair_sample_covariance(n, seed=n)
        for lam in (0.05, 0.1, 0.2, 0.4):
            assert_matches_reference(c, lam)

    def test_at_most_half_the_reference_eigendecompositions(self):
        # criterion 3, sample seed 0, at its four gcca penalties and the
        # default tolerance gcca_fit uses
        ref_total = total = rejected = 0
        for n in (100, 400):
            c = canonical_pair_sample_covariance(n, seed=n)
            for lam in (0.05, 0.1, 0.2, 0.4):
                ref, ref_iterations = reference_admm(c, lam)
                est = glasso_fit(c, lam)
                np.testing.assert_array_equal(est.omega != 0.0, ref != 0.0)
                diag = est.diagnostics
                assert diag["kkt_residual"] <= 1e-7
                assert (diag["extrapolations_accepted"] + diag["extrapolations_rejected"]
                        < diag["iterations"])
                ref_total += ref_iterations
                total += diag["iterations"]
                rejected += diag["extrapolations_rejected"]
        assert total <= ref_total / 2
        assert rejected > 0  # the safeguard path ran

    def test_the_newton_polish_halves_the_eigendecompositions(self):
        # the inputs above: 808 eigendecompositions by the ADMM alone
        total = 0
        for n in (100, 400):
            c = canonical_pair_sample_covariance(n, seed=n)
            for lam in (0.05, 0.1, 0.2, 0.4):
                est = glasso_fit(c, lam)
                diag = est.diagnostics
                assert diag["polished"]
                assert diag["newton_steps"] > 0 and diag["cg_products"] > 0
                assert kkt_residual(c, est.omega, lam) == diag["kkt_residual"] <= 1e-7
                total += diag["iterations"]
        assert total <= 485


def panel_fold_covariance():
    """The joint covariance gcca_fit passes to glasso on the first training
    fold of criterion-4 sample seed 0 (p=60, q=30)."""
    cfg = BOOTSTRAP_PANEL_DEFAULTS
    data, _ = center_and_covariance(mvn_sample(_bootstrap_truth(cfg), cfg["n"], seed=500))
    train, _ = split_fold(data, make_folds(data.n, cfg["V"], seed=0), 0)
    _, sample = center_and_covariance(train)
    return sample.joint()


def off_diagonal_entry(omega, nonzero):
    """(i, j), i < j, of the median-magnitude nonzero off-diagonal entry of
    omega, or of the first zero one."""
    i, j = np.nonzero(np.triu(omega != 0.0 if nonzero else omega == 0.0, k=1))
    if not nonzero:
        return i[0], j[0]
    k = np.argsort(np.abs(omega[i, j]))[len(i) // 2]
    return i[k], j[k]


def corrupt(omega, how):
    """omega with a wrong support or sign pattern, still positive definite."""
    bad = omega.copy()
    i, j = off_diagonal_entry(omega, nonzero=how != "add")
    if how == "drop":
        bad[i, j] = 0.0
    elif how == "flip":
        bad[i, j] = -bad[i, j]
    else:
        bad[i, j] = 1e-3 * np.sqrt(omega[i, i] * omega[j, j])
    bad[j, i] = bad[i, j]
    return bad


def wrong_pattern_problem(source):
    """(c, lam) of a wrong-pattern polish case.  n=40 < p+q=60: a singular
    sample covariance; and one d=90 fold."""
    if source == "panel_fold":
        return panel_fold_covariance(), 0.05
    return canonical_pair_sample_covariance(40, seed=40), 0.1


class TestNewtonPolish:
    @pytest.mark.parametrize("how", ["drop", "add", "flip"])
    @pytest.mark.parametrize("source", ["canonical_pair_n40", "panel_fold"])
    def test_a_wrong_pattern_is_rejected_and_the_admm_certifies(self, monkeypatch, source,
                                                                 how):
        # the first polish starts from a wrong support or sign pattern and
        # may take one active-set round, too few to mend it: it is
        # rejected, the ADMM continues, and a later polish certifies
        c, lam = wrong_pattern_problem(source)
        polish = glasso._newton_polish
        results = []

        def first_on_a_wrong_pattern(c, omega, w, lam, tol):
            if results:
                results.append(polish(c, omega, w, lam, tol))
                return results[-1]
            omega = corrupt(omega, how)
            with monkeypatch.context() as m:
                m.setattr(glasso, "POLISH_ROUNDS", 1)
                results.append(polish(c, omega, np.linalg.inv(omega), lam, tol))
            return results[-1]

        monkeypatch.setattr(glasso, "_newton_polish", first_on_a_wrong_pattern)
        est = glasso_fit(c, lam)
        diag = est.diagnostics
        assert results[0][0] is None
        assert len(results) > 1 and results[-1][0] is not None
        assert diag["polished"] and diag["converged"]
        assert diag["newton_steps"] == sum(steps for _, steps, _, _ in results)
        assert diag["polish_rounds"] == sum(rounds for *_, rounds in results)
        assert kkt_residual(c, est.omega, lam) == diag["kkt_residual"] <= 1e-7
        # the fit without the wrong start has the same support
        monkeypatch.setattr(glasso, "_newton_polish", polish)
        np.testing.assert_array_equal(est.omega != 0.0, glasso_fit(c, lam).omega != 0.0)

    @pytest.mark.parametrize("how", ["drop", "add", "flip"])
    @pytest.mark.parametrize("source", ["canonical_pair_n40", "panel_fold"])
    def test_the_rounds_mend_a_wrong_pattern(self, monkeypatch, source, how):
        # with its full rounds the first polish from a wrong pattern drops
        # the entry whose sign flips or adds the missing one, and certifies
        # the support of the fit without the wrong start
        c, lam = wrong_pattern_problem(source)
        polish = glasso._newton_polish
        results = []

        def first_on_a_wrong_pattern(c, omega, w, lam, tol):
            if not results:
                omega = corrupt(omega, how)
                w = np.linalg.inv(omega)
            results.append(polish(c, omega, w, lam, tol))
            return results[-1]

        monkeypatch.setattr(glasso, "_newton_polish", first_on_a_wrong_pattern)
        est = glasso_fit(c, lam)
        diag = est.diagnostics
        assert len(results) == 1 and results[0][0] is not None
        assert diag["polished"] and diag["converged"]
        assert diag["newton_steps"] == results[0][1]
        assert diag["polish_rounds"] == results[0][3] > 1
        assert kkt_residual(c, est.omega, lam) == diag["kkt_residual"] <= 1e-7
        monkeypatch.setattr(glasso, "_newton_polish", polish)
        np.testing.assert_array_equal(est.omega != 0.0, glasso_fit(c, lam).omega != 0.0)


    def test_a_step_out_of_the_cone_is_halved(self, monkeypatch):
        # the first Newton step, scaled a thousandfold, leaves the
        # positive-definite cone: it is halved until the iterate is back
        # inside, and the fit still certifies
        c, lam = canonical_pair_sample_covariance(100, seed=0), 0.1
        newton_cg, pd_inverse = glasso._newton_cg, glasso._pd_inverse
        calls = []

        def first_step_scaled(*args):
            delta, steps = newton_cg(*args)
            calls.append("step")
            return (1000.0 * delta if calls.count("step") == 1 else delta), steps

        def outside_the_cone(omega):
            inv = pd_inverse(omega)
            calls.append(inv is None)
            return inv

        monkeypatch.setattr(glasso, "_newton_cg", first_step_scaled)
        monkeypatch.setattr(glasso, "_pd_inverse", outside_the_cone)
        diag = glasso_fit(c, lam).diagnostics
        # the candidates of the first step: at t = 1, 1/2 and 1/4 outside
        # the cone, at t = 1/8 inside
        first = calls.index("step") + 1
        assert calls[first:first + 4] == [True, True, True, False]
        assert diag["polished"] and diag["converged"]
        assert diag["kkt_residual"] <= 1e-7


class TestGlassoFit:
    def test_vanishing_penalty_recovers_inverse(self, rng):
        c = random_correlation(rng, 8)
        est = glasso_fit(c, 1e-10)
        np.testing.assert_allclose(est.omega, np.linalg.inv(c), atol=1e-5)

    def test_large_penalty_gives_diagonal(self, rng):
        c = random_correlation(rng, 7)
        lam = float(np.max(np.abs(c - np.diag(np.diag(c))))) * 1.05
        est = glasso_fit(c, lam, tol=1e-10)
        off = est.omega - np.diag(np.diagonal(est.omega))
        assert np.max(np.abs(off)) == 0.0
        np.testing.assert_allclose(np.diagonal(est.omega), 1.0 / np.diagonal(c), atol=1e-8)

    def test_diagonal_candidate_satisfies_kkt_analytically(self, rng):
        # at lam >= max offdiag |C_ij| the matrix diag(1/C_ii) is stationary
        c = random_correlation(rng, 6)
        lam = float(np.max(np.abs(c - np.diag(np.diag(c))))) + 1e-3
        assert kkt_residual(c, np.diag(1.0 / np.diagonal(c)), lam) <= 1e-8

    def test_objective_matches_first_order_oracle(self, rng):
        c = random_correlation(rng, 8)
        lam = 0.1
        est = glasso_fit(c, lam, tol=1e-9)
        ours = glasso_objective(c, est.omega, lam)
        oracle = glasso_objective(c, proximal_gradient_oracle(c, lam), lam)
        assert ours >= oracle - 1e-6
        assert abs(ours - oracle) <= 1e-6

    def test_sigma_inverts_omega(self, rng):
        c = random_correlation(rng, 6)
        est = glasso_fit(c, 0.05)
        np.testing.assert_allclose(est.sigma @ est.omega, np.eye(6), atol=1e-7)

    @pytest.mark.parametrize("source, polished", [("canonical_pair", True),
                                                  ("diagonal", False)])
    def test_sigma_is_the_certified_inverse(self, source, polished):
        # a polished exit, and an ADMM-certified one at a penalty that
        # leaves omega diagonal
        if source == "canonical_pair":
            c, lam = canonical_pair_sample_covariance(100, seed=100), 0.1
        else:
            c, lam = random_correlation(np.random.default_rng(0), 8), 1.0
        est = glasso_fit(c, lam)
        assert est.diagnostics["polished"] is polished
        w = glasso._pd_inverse(est.omega)
        np.testing.assert_array_equal(est.sigma, 0.5 * (w + w.T))

    def test_positive_definite_output_across_penalties(self, rng):
        c = random_correlation(rng, 6)
        for lam in (1e-4, 1e-2, 0.2, 1.0):
            est = glasso_fit(c, lam)
            assert np.linalg.eigvalsh(est.omega)[0] > 0

    def test_sparsity_monotone_in_penalty(self, rng):
        c = random_correlation(rng, 9)
        grid = np.logspace(-3, 0, 10)
        nnz = []
        for lam in grid:
            est = glasso_fit(c, lam)
            off = est.omega - np.diag(np.diagonal(est.omega))
            nnz.append(int(np.sum(off != 0)))
        assert all(a >= b for a, b in zip(nnz, nnz[1:]))

    def test_permutation_equivariance(self, rng):
        c = random_correlation(rng, 7)
        lam = 0.08
        base = glasso_fit(c, lam, tol=1e-9).omega
        for _ in range(3):
            perm = rng.permutation(7)
            pc = c[np.ix_(perm, perm)]
            permuted = glasso_fit(pc, lam, tol=1e-9).omega
            np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-7)

    def test_convergence_failure_carries_diagnostics(self, rng):
        c = random_correlation(rng, 8)
        with pytest.raises(GlassoConvergenceError) as err:
            glasso_fit(c, 0.05, tol=1e-12, max_iter=3)
        diag = err.value.diagnostics
        assert diag["iterations"] == 3
        for key in ("kkt_residual", "extrapolations_accepted", "extrapolations_rejected",
                    "newton_steps", "cg_products", "polished"):
            assert key in diag
        assert not diag["polished"]

    def test_invalid_inputs_rejected(self, rng):
        c = random_correlation(rng, 4)
        with pytest.raises(GlassoError):
            glasso_fit(c, 0.0)
        with pytest.raises(GlassoError):
            glasso_fit(rng.standard_normal((4, 4)), 0.1)


class TestKktResidual:
    def test_unpenalised_solution_is_stationary(self, rng):
        c = random_correlation(rng, 6)
        assert kkt_residual(c, np.linalg.inv(c), 1e-10) <= 1e-8

    def test_perturbation_detected(self, rng):
        c = random_correlation(rng, 6)
        est = glasso_fit(c, 0.1)
        bad = est.omega.copy()
        bad[0, 1] += 0.1
        bad[1, 0] += 0.1
        assert kkt_residual(c, bad, 0.1) > 0.05

    def test_singular_omega_rejected(self, rng):
        c = random_correlation(rng, 4)
        with pytest.raises(GlassoError):
            kkt_residual(c, np.zeros((4, 4)), 0.1)
