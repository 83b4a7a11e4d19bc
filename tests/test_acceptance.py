"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured numbers (run with `pytest -s -v` to see them).

The hierarchy / robustness criteria share one module-scoped fixture that
trains det/norm/gmm over three seeds on the default bimodal synthetic
dataset, under full coverage and under 10% sensor coverage.
"""

import hashlib
import math
import time

import numpy as np
import oracles
import pytest
from click.testing import CliRunner
from scipy.stats import norm

from mixcast import cli, data, gmm, metrics, model, training
from mixcast import intervals as iv
from mixcast.gmm import MixtureBatch
from mixcast.metrics import ScoringConfig

LEVELS = metrics.DEFAULT_LEVELS

# Identical training budget for every variant (criteria 6 and 8); the
# 50-epoch TrainConfig defaults stay as they are, this is the compact
# desk-scale budget.
EPOCHS, LR, BATCH = 18, 2e-3, 32
T_H = T_F = 10
SEEDS = (0, 1, 2)
# The (train, val, test) split a manifest gets by default.
SPLIT = data.DatasetManifest.split_fractions


def ok(criterion, detail):
    print(f"\nACCEPTANCE criterion {criterion}: PASS ({detail})")


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def train_and_score(dataset, variant, k, seed, coverage=None):
    """One training run + raw-unit test-split evaluation; returns
    (crps, batch digests)."""
    worked = dataset
    if coverage is not None:
        worked, _ = data.degrade_coverage(dataset, coverage, seed=seed + 1000)
    splits = data.prepare_splits(worked, T_H, T_F, fractions=SPLIT)
    head = None if variant == "det" else model.HeadConfig(components=k)
    mcfg = model.ModelConfig(
        variant=variant,
        backbone=model.BackboneConfig(input_steps=T_H, channels=splits.train.channels),
        horizon=T_F,
        head=head,
    )
    tcfg = training.TrainConfig(epochs=EPOCHS, batch_size=BATCH, lr=LR, seed=seed)
    result = training.fit(splits, mcfg, tcfg)
    assert not result.diverged
    test = splits.test
    preds = model.predict(result.params, mcfg, test.inputs)
    nrm = splits.normalizer
    raw = nrm.inverse(preds) if variant == "det" else preds.scale_shift(nrm.std, nrm.mean)
    rep = metrics.evaluate(
        [(test.targets_raw, raw)], ScoringConfig(interval_range=(0.0, worked.max_value))
    )
    return rep.crps_mean, result.batch_digests


@pytest.fixture(scope="module")
def hierarchy_runs():
    """CRPS for every (variant, seed, quality setting) plus wall time."""
    started = time.time()
    crps, digests = {}, {}
    for seed in SEEDS:
        dataset = data.generate(data.SyntheticSpec(seed=seed))
        for variant, k in (("det", 0), ("norm", 1), ("gmm", 5)):
            crps[(variant, seed, "ideal")], digests[(variant, seed, "ideal")] = (
                train_and_score(dataset, variant, k, seed)
            )
        for variant, k in (("det", 0), ("gmm", 5)):
            crps[(variant, seed, "cov10")], _ = train_and_score(
                dataset, variant, k, seed, coverage=0.1
            )
    return {"crps": crps, "digests": digests, "elapsed": time.time() - started}


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        started = time.time()
        rng = np.random.default_rng(42)
        h = 1e-5
        worst_core = 0.0
        for _ in range(100):
            k = int(rng.integers(1, 6))
            logits = rng.normal(0, 1, k)
            mu = rng.uniform(-3, 3, k)
            logvar = rng.uniform(-1.5, 1.5, k)
            y = float(rng.uniform(-4, 4))

            def nll_of(lg, mn, lv):
                return oracles.nll_components_last(lg, mn, lv, y)[0]

            grads = oracles.nll_components_last(logits, mu, logvar, y)[1]
            vecs = (logits, mu, logvar)
            for which in range(3):
                for i in range(k):
                    up = [v.copy() for v in vecs]
                    dn = [v.copy() for v in vecs]
                    up[which][i] += h
                    dn[which][i] -= h
                    fd = (nll_of(*up) - nll_of(*dn)) / (2 * h)
                    worst_core = max(worst_core, rel_err(fd, grads[which][i]))
        assert worst_core < 1e-4

        # End-to-end reverse mode on a 2-node, T=3, K=2 instance.
        worst_e2e = 0.0
        for variant, k in (("gmm", 2), ("norm", 1), ("det", 0)):
            head = None if variant == "det" else model.HeadConfig(components=k)
            mcfg = model.ModelConfig(
                variant=variant,
                backbone=model.BackboneConfig(input_steps=4, hidden=6, features=6),
                horizon=3,
                head=head,
            )
            params = model.init_params(mcfg, rng)
            for name in params.names():
                params[name][...] = rng.normal(0, 0.3, params[name].shape)
            batch = model.ForecastBatch(
                inputs=rng.normal(0, 1, (3, 2, 4)), targets=rng.normal(0, 1, (3, 2, 3))
            )
            grads = model.backward(batch, params, mcfg)[1]
            h2 = 1e-4
            for _ in range(12):
                name = params.names()[rng.integers(len(params.names()))]
                idx = np.unravel_index(int(rng.integers(params[name].size)), params[name].shape)
                p_up, p_dn = params.copy(), params.copy()
                p_up[name][idx] += h2
                p_dn[name][idx] -= h2
                fd = (
                    model.blocked_loss([batch], p_up, mcfg)[0]
                    - model.blocked_loss([batch], p_dn, mcfg)[0]
                ) / (2 * h2)
                worst_e2e = max(worst_e2e, rel_err(fd, grads[name][idx]))
        assert worst_e2e < 1e-3
        elapsed = time.time() - started
        assert elapsed < 10.0
        ok(1, f"core rel err {worst_core:.2e}, end-to-end {worst_e2e:.2e}, {elapsed:.1f}s")


class TestCriterion2CRPS:
    def test_crps_oracle_equivalence(self):
        started = time.time()
        rng = np.random.default_rng(8)
        mu = rng.uniform(-5, 5, 200)
        sigma = rng.uniform(0.2, 3.0, 200)
        y = mu + sigma * rng.uniform(-3, 3, 200)
        got = metrics.crps_mixture_batch(
            MixtureBatch(np.ones((200, 1)), mu[:, None], (sigma**2)[:, None]), y
        )
        z = (y - mu) / sigma
        closed = sigma * (z * (2 * norm.cdf(z) - 1) + 2 * norm.pdf(z) - 1 / math.sqrt(math.pi))
        worst = float(np.max(np.abs(got - closed) / closed))
        assert worst < 1e-12

        # Floor-variance spike: CRPS collapses to the absolute error, up to
        # sd / sqrt(pi) at the floor sd (2dx of a 2001-point grid on [-4, 4]
        # was the bound of the grid CRPS).
        xhat, y = rng.uniform(-2, 2, (50, 2)).T
        spikes = MixtureBatch(np.ones((50, 1)), xhat[:, None], np.zeros((50, 1)))
        dirac_err = np.abs(metrics.crps_mixture_batch(spikes, y) - np.abs(y - xhat))
        bound = math.sqrt(gmm.VAR_FLOOR / math.pi) + 1e-12
        assert np.all(dirac_err <= bound)
        worst_dirac = float(dirac_err.max())
        elapsed = time.time() - started
        assert elapsed < 5.0
        ok(2, f"gaussian rel err {worst:.2e}, dirac err {worst_dirac:.2e} <= {bound:.2e}, "
              f"{elapsed:.1f}s")


class TestCriterion3Intervals:
    def test_interval_derivation_fidelity(self):
        started = time.time()
        x, dens = oracles.mixture_grid(MixtureBatch([1.0], [0.0], [1.0]), -6.0, 6.0, 2001)
        dx = x[1] - x[0]
        s = iv.derive_intervals(dens[None], x, [0.95])[0][0]
        assert s.count == 1
        lo, hi = s.intervals[0]
        assert abs(lo - (-1.959964)) <= dx
        assert abs(hi - 1.959964) <= dx

        bimodal = MixtureBatch([0.5, 0.5], [-3.0, 3.0], [0.25, 0.25])
        xb, db = oracles.mixture_grid(bimodal, -6.0, 6.0, 2001)
        for sb in iv.derive_intervals(db[None], xb, LEVELS)[0]:
            assert sb.count == 2

        rng = np.random.default_rng(3)
        for _ in range(5):
            k = int(rng.integers(1, 5))
            w = rng.random(k) + 0.2
            w /= w.sum()
            mm = MixtureBatch(w, rng.uniform(-3, 3, k), rng.uniform(0.2, 1.5, k))
            xg, dg = oracles.mixture_grid(mm, -12, 12, 1001)
            assert oracles.is_mass_complete(dg, xg[1] - xg[0])
            max_cell = float(dg.max() / dg.sum())
            for c in LEVELS:
                mass = oracles.selection_mass(dg, c)
                assert c <= mass <= c + max_cell + 1e-12
        elapsed = time.time() - started
        assert elapsed < 5.0
        ok(3, f"0.95 interval [{lo:.4f}, {hi:.4f}], bimodal 2 sub-intervals, {elapsed:.1f}s")


class TestCriterion4Init:
    def test_weakly_informative_init(self):
        cfg = model.ModelConfig(
            variant="gmm",
            backbone=model.BackboneConfig(input_steps=T_H),
            horizon=T_F,
            head=model.HeadConfig(components=5),
        )
        params = model.init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(5):
            inputs = rng.normal(0, 10, (3, 4, T_H))
            mb = model.predict(params, cfg, inputs)
            assert np.all(mb.weights == 1.0 / 5)
            np.testing.assert_array_equal(
                mb.means, np.broadcast_to(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), mb.means.shape)
            )
            assert np.all(mb.variances == 1.0)
        ok(4, "pi=1/5, mu=[-2,-1,0,1,2], var=1 exactly, arbitrary inputs")


class TestCriterion5Calibration:
    """Targets drawn from their own mixtures: coverage must track every
    level within 0.01 at the 2001-point grid and at the coarser,
    harder 500-point grid."""

    @staticmethod
    def check(points):
        rng = np.random.default_rng(2024)
        n = 100_000
        k = 3
        w = rng.random((n, k)) + 0.2
        w /= w.sum(-1, keepdims=True)
        mb = MixtureBatch(w, rng.uniform(-2, 2, (n, k)), rng.uniform(0.25, 2.0, (n, k)))
        targets = oracles.sample_one_each(mb, rng)
        rep = metrics.evaluate(
            [(targets.reshape(n // 10, 1, 10), mb.reshape(n // 10, 1, 10))],
            ScoringConfig(interval_range=(-8.0, 8.0), interval_points=points),
        )
        worst = max(abs(cov - lvl) for lvl, cov in rep.calibration_curve)
        assert worst < 0.01
        assert rep.calib_error < 0.01
        ok(5, f"{points} points: worst |coverage-level| {worst:.4f}, "
              f"mean calib error {rep.calib_error:.4f}")

    def test_self_consistency_calibration(self):
        self.check(2001)

    def test_self_consistency_calibration_500_points(self):
        self.check(500)


class TestCriterion6Hierarchy:
    def test_crps_hierarchy_and_improvement(self, hierarchy_runs):
        crps = hierarchy_runs["crps"]
        det = np.array([crps[("det", s, "ideal")] for s in SEEDS])
        nrm = np.array([crps[("norm", s, "ideal")] for s in SEEDS])
        gm = np.array([crps[("gmm", s, "ideal")] for s in SEEDS])

        def gap_over_se(a, b):
            d = a - b
            return d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))

        t_det_norm = gap_over_se(det, nrm)
        t_norm_gmm = gap_over_se(nrm, gm)
        assert np.all(gm < nrm) and np.all(nrm < det)
        assert t_det_norm > 3.0
        assert t_norm_gmm > 3.0
        improvement = 100.0 * (det.mean() - gm.mean()) / det.mean()
        assert improvement > 15.0
        assert hierarchy_runs["elapsed"] < 900.0
        ok(
            6,
            f"crps det {det.mean():.3f} > norm {nrm.mean():.3f} > gmm {gm.mean():.3f}; "
            f"gaps {t_det_norm:.0f} and {t_norm_gmm:.0f} SE; improvement {improvement:.1f}%; "
            f"{hierarchy_runs['elapsed']:.0f}s for all runs",
        )


class TestCriterion7TwoPoint:
    def test_two_point_scenario(self):
        ys = np.array([-2.0, 2.0] * 500)
        k1 = np.ones((ys.size, 1))
        dirac0 = MixtureBatch(k1, np.zeros((ys.size, 1)), np.zeros((ys.size, 1)))
        scores0 = metrics.crps_mixture_batch(dirac0, ys)
        assert scores0.mean() == pytest.approx(2.0, rel=0.02)

        two = MixtureBatch(
            np.tile([0.5, 0.5], (ys.size, 1)),
            np.tile([-2.0, 2.0], (ys.size, 1)),
            np.zeros((ys.size, 2)),
        )
        scores2 = metrics.crps_mixture_batch(two, ys)
        assert np.all(np.abs(scores2 - 1.0) < 0.02)  # per trial
        assert scores2.mean() == pytest.approx(1.0, rel=0.02)
        ok(
            7,
            f"dirac-at-0 mean crps {scores0.mean():.4f} ~ 2.0; "
            f"ideal mixture {scores2.mean():.4f} ~ 1.0 per trial",
        )


class TestCriterion8CoverageRobustness:
    def test_degradation_ordering(self, hierarchy_runs):
        crps = hierarchy_runs["crps"]
        deg = {}
        for variant in ("det", "gmm"):
            ideal = np.array([crps[(variant, s, "ideal")] for s in SEEDS])
            masked = np.array([crps[(variant, s, "cov10")] for s in SEEDS])
            deg[variant] = (masked - ideal) / ideal
        assert deg["gmm"].mean() < deg["det"].mean()
        ok(
            8,
            f"10% coverage degrades gmm {100 * deg['gmm'].mean():.1f}% "
            f"(per seed {np.round(100 * deg['gmm'], 1)}) vs det "
            f"{100 * deg['det'].mean():.1f}% (per seed {np.round(100 * deg['det'], 1)})",
        )


class TestCriterion9Determinism:
    def test_batch_parity_across_variants(self, hierarchy_runs):
        digests = hierarchy_runs["digests"]
        for seed in SEEDS:
            d = digests[("det", seed, "ideal")]
            assert digests[("norm", seed, "ideal")] == d
            assert digests[("gmm", seed, "ideal")] == d

    def test_byte_identical_reports(self, tmp_path):
        def one_round(sub):
            out = tmp_path / sub
            out.mkdir()
            runner = CliRunner()
            base = ["--out", str(out)]
            r = runner.invoke(
                cli.main,
                ["generate", "--nodes", "6", "--sessions", "8", "--session-steps", "24",
                 "--seed", "5", "--name", "d"] + base,
                catch_exceptions=False,
            )
            assert r.exit_code == 0
            r = runner.invoke(
                cli.main,
                ["train", "--data", str(out / "d"), "--variant", "gmm", "--epochs", "2",
                 "--batch-size", "16", "--lr", "0.002", "--seed", "3",
                 "--input-steps", "6", "--horizon", "6", "--name", "m"] + base,
                catch_exceptions=False,
            )
            assert r.exit_code == 0
            r = runner.invoke(
                cli.main,
                ["evaluate", "--checkpoint", str(out / "m.ckpt.npz"),
                 "--data", str(out / "d"), "--name", "e"] + base,
                catch_exceptions=False,
            )
            assert r.exit_code == 0
            return hashlib.sha256((out / "e.report.txt").read_bytes()).hexdigest()

        h1 = one_round("run1")
        h2 = one_round("run2")
        assert h1 == h2
        ok(9, f"variant batch digests equal; repeated report hash {h1[:12]}")
