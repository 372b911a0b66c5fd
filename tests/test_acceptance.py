"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines and timings.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from conftest import random_joint_covariance, random_orthonormal
from regcca.biplot import verify_biplot_bounds
from regcca.cca_core import cca_from_covariance, sample_cca
from regcca.cli import main
from regcca.compare import overlap_matrix, register
from regcca.datamodel import CovarianceModel, PairedDataset, center_and_covariance
from regcca.estimators import scca_fit
from regcca.experiments import (
    run_bootstrap_panel_bench,
    run_canonical_pair_bench,
    summarise_bootstrap_panel,
    summarise_canonical_pair,
)
from regcca.glasso import glasso_fit, kkt_residual
from regcca.linalg import canonical_angles, pair_sin2, sym_matrix_power
from regcca.metrics import aggregate, gauss_mutual_info, mutual_information
from regcca.synth import canonical_pair_covariance, mvn_sample


def _report(name, elapsed, budget):
    print(f"PASS {name} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed < budget


def _random_correlation(rng, d):
    a = rng.standard_normal((d, d + 15))
    c = a @ a.T / (d + 15)
    s = np.sqrt(np.diag(c))
    return c / np.outer(s, s)


def test_criterion_1_glasso_correctness():
    t0 = time.time()
    rng = np.random.default_rng(100)
    for trial in range(20):
        c = _random_correlation(rng, 10)
        for lam in (0.01, 0.1, 0.3):
            est = glasso_fit(c, lam)
            assert kkt_residual(c, est.omega, lam) <= 1e-6
        # vanishing-penalty limit
        small = glasso_fit(c, 1e-10)
        assert np.max(np.abs(small.omega - np.linalg.inv(c))) <= 1e-5
        # fully-thresholded limit
        lam_big = float(np.max(np.abs(c - np.diag(np.diag(c))))) * 1.05
        big = glasso_fit(c, lam_big, tol=1e-10)
        off = big.omega - np.diag(np.diagonal(big.omega))
        assert np.max(np.abs(off)) == 0.0
        assert np.max(np.abs(np.diagonal(big.omega) - 1.0 / np.diagonal(c))) <= 1e-8
    _report("criterion 1: glasso correctness (20 matrices x 3 penalties)", time.time() - t0, 30)


def test_criterion_2_cca_exactness():
    t0 = time.time()
    configs = []
    for seed, (p, q) in enumerate([(10, 8), (20, 15), (30, 30), (40, 25)]):
        for k in (1, 2, 3):
            configs.append(dict(p=p, q=q, rhos=[0.9, 0.7, 0.5][:k],
                                support_size=2, seed=seed * 10 + k,
                                within_view="suo_sp" if seed % 2 else "identity"))
    assert len(configs) == 12
    for cfg in configs:
        cov, truth = canonical_pair_covariance(**cfg)
        k = len(cfg["rhos"])
        est = cca_from_covariance(cov, k)
        np.testing.assert_allclose(est.rho, cfg["rhos"], atol=1e-8)
        half = sym_matrix_power(cov.sxx, 0.5)
        for j in range(k):
            a = half @ truth.u_dirs[:, j]
            b = half @ est.u_dirs[:, j]
            sin2 = 1 - (a @ b) ** 2 / (a @ a) / (b @ b)
            assert sin2 <= 1e-8
    _report("criterion 2: canonical-pair round-trip (12 configurations)", time.time() - t0, 10)


@pytest.mark.slow
def test_criterion_3_single_pair_experiment():
    t0 = time.time()
    records = run_canonical_pair_bench()
    summary = summarise_canonical_pair(records, ["scca", "gcca", "spls"], [100, 400])
    for kind in ("scca", "gcca"):
        assert summary[(kind, 400)]["median_rho_oracle"] >= 0.8
        assert summary[(kind, 400)]["median_rho_oracle"] > summary[(kind, 100)]["median_rho_oracle"]
    # sparse PLS does not converge to the CCA solution
    assert summary[("spls", 400)]["median_vt_u1"] > summary[("gcca", 400)]["median_vt_u1"]
    _report("criterion 3: scaled single-pair benchmark (10 seeds)", time.time() - t0, 300)


@pytest.mark.slow
def test_criterion_4_bootstrap_panel():
    t0 = time.time()
    kinds = ["rcca", "spls", "scca", "gcca"]
    records = run_bootstrap_panel_bench()
    summary = summarise_bootstrap_panel(records, kinds)
    for kind in kinds:
        assert summary[kind]["median_cv_oracle_gap_r2s1"] <= 0.15, kind
    for kind in ("gcca", "scca", "rcca"):
        assert summary[kind]["median_vt_U3"] <= summary[kind]["median_wt_U3"], kind
    cca_best = min(summary[k]["median_best_R2s3_cv"] for k in ("rcca", "scca", "gcca"))
    assert summary["spls"]["median_best_R2s3_cv"] <= cca_best + 0.05
    _report("criterion 4: bootstrap panel (10 seeds, 4 estimators)", time.time() - t0, 900)


def test_criterion_5_aggregation_validity():
    t0 = time.time()
    cov, truth = canonical_pair_covariance(2, 2, [0.8, 0.5], 1,
                                           within_view="identity", seed=55)
    rx = sym_matrix_power(cov.sxx, -0.5)
    ry = sym_matrix_power(cov.syy, -0.5)
    t = rx @ cov.sxy @ ry
    angles = np.deg2rad(np.arange(0, 360))
    c, s = np.cos(angles), np.sin(angles)
    rots = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
    m = np.einsum("aji,jk,bkl->abil", rots, t, rots)
    diag = np.stack([m[..., 0, 0], m[..., 1, 1]], axis=-1)
    for kind in ("l1_sum", "sq_sum", "mutual_info"):
        target = aggregate(kind, truth.rho)
        if kind == "l1_sum":
            vals = np.sum(np.abs(diag), axis=-1)
        elif kind == "sq_sum":
            vals = np.sum(diag**2, axis=-1)
        else:
            r = np.clip(np.abs(diag), 0, 1 - 1e-9)
            vals = -0.5 * np.sum(np.log1p(-(r**2)), axis=-1)
        best = float(np.max(vals))
        assert abs(best - target) <= 1e-3, kind
    _report("criterion 5: aggregation validity by rotation-grid search", time.time() - t0, 60)


def test_criterion_6_randomised_property_families():
    t0 = time.time()
    rng = np.random.default_rng(600)
    n_trials = 100

    # interlacing under projection
    for _ in range(n_trials):
        cov = random_joint_covariance(rng, 5, 4)
        full = cca_from_covariance(cov, 2).rho
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((4, 2))
        proj = CovarianceModel(sxx=u.T @ cov.sxx @ u, sxy=u.T @ cov.sxy @ v,
                               syy=v.T @ cov.syy @ v)
        sub = cca_from_covariance(proj, 2).rho
        assert np.all(sub <= full + 1e-9)

    # angle identities
    for _ in range(n_trials):
        z = random_orthonormal(rng, 9, 3)
        w = random_orthonormal(rng, 9, 3)
        cos2 = float(np.sum(canonical_angles(z, w) ** 2))
        [sin2], _ = pair_sin2(np.stack([z, w]), [0], [1])
        assert abs(cos2 + sin2 - 3) <= 1e-10
        pz, pw = z @ z.T, w @ w.T
        assert abs(sin2 - np.linalg.norm(pz @ (np.eye(9) - pw)) ** 2) <= 1e-9

    # registration hierarchy
    for _ in range(n_trials):
        z0 = rng.standard_normal((10, 3))
        z1 = rng.standard_normal((10, 3))
        z0 /= np.linalg.norm(z0, axis=0)
        z1 /= np.linalg.norm(z1, axis=0)
        res = {m: float(np.linalg.norm(z1 @ register(z0, z1, m) - z0) ** 2)
               for m in ("signs", "signed_permutation", "orthogonal", "linear")}
        assert res["linear"] <= res["orthogonal"] + 1e-10
        assert res["orthogonal"] <= res["signed_permutation"] + 1e-10
        assert res["signed_permutation"] <= res["signs"] + 1e-10

    # overlap total equals cos^2 similarity
    for _ in range(n_trials):
        z = random_orthonormal(rng, 11, 3)
        w = random_orthonormal(rng, 11, 3)
        total = float(np.sum(overlap_matrix(z, w, squared=True).matrix))
        assert abs(total - np.sum(canonical_angles(z, w) ** 2)) <= 1e-9

    # mutual information: correlation form vs determinant form
    for _ in range(n_trials):
        cov = random_joint_covariance(rng, 3, 3)
        rho = cca_from_covariance(cov, 3).rho
        assert abs(mutual_information(rho) - gauss_mutual_info(cov)) <= 1e-8

    # biplot approximation bounds
    for _ in range(n_trials):
        p, q = rng.integers(3, 7), rng.integers(3, 7)
        k = int(rng.integers(1, min(p, q, 3) + 1))
        cov = random_joint_covariance(rng, int(p), int(q))
        est = cca_from_covariance(cov, k)
        out = verify_biplot_bounds(cov, est, k)
        assert out["within_x"] <= 1e-8
        assert out["within_y"] <= 1e-8
        assert out["between"] <= 1e-8

    # support exclusion from cross-view precision zeros
    for _ in range(n_trials):
        p, q = 6, 4
        d = p + q
        excluded = sorted(rng.choice(p, size=2, replace=False).tolist())
        raw = rng.standard_normal((d, d)) * 0.3
        raw = 0.5 * (raw + raw.T)
        np.fill_diagonal(raw, 0.0)
        for a in excluded:
            raw[a, p:] = raw[p:, a] = 0.0
        omega = raw + np.diag(1.1 * np.sum(np.abs(raw), axis=1) + 0.5)
        sigma = np.linalg.inv(omega)
        cov = CovarianceModel(sxx=sigma[:p, :p], sxy=sigma[:p, p:], syy=sigma[p:, p:])
        est = cca_from_covariance(cov, q)
        for k in range(est.k):
            if est.rho[k] > 1e-6:
                assert np.max(np.abs(est.u_dirs[excluded, k])) <= 1e-8

    _report("criterion 6: seven property families x 100 randomised trials",
            time.time() - t0, 120)


def test_criterion_7_scca_solver():
    t0 = time.time()
    # unpenalised full-rank case reproduces classical CCA's first pair
    cov, _ = canonical_pair_covariance(6, 5, [0.8, 0.5], 2, seed=70)
    data = mvn_sample(cov, 120, seed=71)
    data, sample_cov = center_and_covariance(data)
    est = scca_fit(data, 0.0, 1)
    classic = sample_cca(data, 1)
    za = data.x @ est.u_dirs[:, 0]
    zb = data.x @ classic.u_dirs[:, 0]
    sin2 = 1 - (za @ zb) ** 2 / (za @ za) / (zb @ zb)
    assert sin2 <= 1e-4

    # two-dimensional objective against the polar-grid brute force
    rng = np.random.default_rng(72)
    x = rng.standard_normal((50, 2))
    y = 0.6 * x + 0.8 * rng.standard_normal((50, 2))
    data2, cov2 = center_and_covariance(PairedDataset(x=x, y=y))
    tau = 0.05
    est2 = scca_fit(data2, tau, 1, tol=1e-8)
    u, v = est2.u_dirs[:, 0], est2.v_dirs[:, 0]
    ours = float(-u @ cov2.sxy @ v + tau * (np.sum(np.abs(u)) + np.sum(np.abs(v))))
    angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    ru = 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", dirs, cov2.sxx, dirs))
    rv = 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", dirs, cov2.syy, dirs))
    g = dirs @ cov2.sxy @ dirs.T
    l1u = np.sum(np.abs(dirs), axis=1) * ru
    l1v = np.sum(np.abs(dirs), axis=1) * rv
    brute = min(0.0, float(np.min(-g * np.outer(ru, rv)
                                  + tau * (l1u[:, None] + l1v[None, :]))))
    assert ours <= brute + 1e-3

    # dual recycling plus early stopping cuts total inner iterations
    data3 = mvn_sample(cov, 150, seed=73)
    data3, _ = center_and_covariance(data3)
    fast = scca_fit(data3, 0.02, 1, n_steps_admm=5, recycle_duals=True)
    slow = scca_fit(data3, 0.02, 1, n_steps_admm=1000, recycle_duals=False)
    fi = fast.provenance.info["total_inner_iterations"]
    si = slow.provenance.info["total_inner_iterations"]
    assert fi <= 0.5 * si
    _report("criterion 7: scca solver (exactness, brute force, speedup guard)",
            time.time() - t0, 180)


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.time()
    from regcca.datamodel import save_two_view_csv

    cov, _ = canonical_pair_covariance(6, 5, [0.8, 0.5], 2, seed=80)
    data = mvn_sample(cov, 80, seed=81)
    save_two_view_csv(data, tmp_path / "x.csv", tmp_path / "y.csv")

    def run_twice(command, config, tag):
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(config))
        hashes = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{tag}_{attempt}"
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            digest = hashlib.sha256()
            for path in sorted(q for q in out.rglob("*") if q.is_file()):
                digest.update(str(path.relative_to(out)).encode())
                digest.update(path.read_bytes())
            hashes.append(digest.hexdigest())
        assert hashes[0] == hashes[1], f"{command} outputs differ between reruns"

    base_data = {"x_csv": str(tmp_path / "x.csv"), "y_csv": str(tmp_path / "y.csv")}
    run_twice("fit", {
        "data": base_data,
        "estimators": [{"kind": "rcca", "penalty": 0.3, "K": 2},
                       {"kind": "scca", "penalty": 0.02, "K": 1}],
        "seed": 5,
    }, "fit")
    run_twice("sweep", {
        "data": base_data,
        "estimators": [{"kind": "rcca", "K": 2}, {"kind": "gcca", "K": 2}],
        "grid": {"values": [0.05, 0.2]},
        "folds": {"V": 3, "seed": 2},
        "metrics": {"k_list": [1, 2]},
        "seed": 5,
    }, "sweep")
    _report("criterion 8: CLI rerun byte-identity (fit and sweep)", time.time() - t0, 120)
