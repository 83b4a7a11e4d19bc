"""Tests for synthetic generation, degradation, windowing and CSV I/O."""

import hashlib
import math

import numpy as np
import oracles
import pytest

from mixcast import data
from mixcast.data import DataError, DatasetManifest, SyntheticSpec
from mixcast.training import Normalizer


def small_spec(**kw):
    base = dict(nodes=6, sessions=8, session_steps=30, seed=3)
    base.update(kw)
    return SyntheticSpec(**base)


def digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestGenerate:
    def test_seed_determinism(self):
        spec = small_spec()
        a = data.generate(spec)
        b = data.generate(spec)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.start_times == b.start_times

    def test_zero_switching_stays_free_flow(self):
        spec = small_spec(switch_in=0.0, noise_sigma=0.2)
        d = data.generate(spec)
        free_lo = spec.free_speed - spec.speed_jitter - 5 * spec.noise_sigma
        assert np.all(d.values > free_lo)

    def test_symmetric_switching_histogram_has_two_modes(self):
        # Flat demand 0.5 makes entering/leaving congestion symmetric, so
        # the long-run distribution mixes both regimes evenly.
        spec = small_spec(
            nodes=1,
            sessions=40,
            session_steps=250,
            switch_in=0.5,
            switch_out=0.5,
            demand_base=0.5,
            demand_peak=0.5,
            speed_jitter=0.0,
            noise_sigma=0.3,
            seed=11,
        )
        d = data.generate(spec)
        samples = d.values[:, :, 0].ravel()
        hist, edges = np.histogram(samples, bins=40, range=(0, 14))
        centers = 0.5 * (edges[:-1] + edges[1:])
        floor = 0.1 * hist.max()
        interior = (hist[1:-1] >= hist[:-2]) & (hist[1:-1] > hist[2:]) & (hist[1:-1] > floor)
        modes = centers[1:-1][interior]
        assert modes.size == 2
        assert abs(modes[0] - spec.congested_speed) < 0.5
        assert abs(modes[1] - spec.free_speed) < 0.5

    def test_values_within_range(self):
        d = data.generate(small_spec(noise_sigma=3.0))
        assert d.values.min() >= 0.0
        assert d.values.max() <= d.max_value

    def test_prone_nodes_bimodal_by_dip(self):
        spec = SyntheticSpec(nodes=20, sessions=30, seed=5)
        d = data.generate(spec)
        prone = data.congestion_prone_steps(spec)
        thr = oracles.unimodal_dip_threshold(160, np.random.default_rng(0), sims=49)
        flagged = [
            oracles.dip_statistic(d.values[:, prone, i].ravel()) > thr
            for i in range(spec.nodes)
        ]
        assert np.mean(flagged) >= 0.8

    def test_dip_statistic_known_values(self):
        # 50/50 two-point data attains the maximum possible dip of 1/4.
        x = np.array([0.0] * 60 + [1.0] * 60)
        assert oracles.dip_statistic(x) == pytest.approx(0.25, abs=1e-12)
        rng = np.random.default_rng(1)
        uni = oracles.dip_statistic(rng.random(160))
        assert uni < 0.05
        bi = oracles.dip_statistic(np.concatenate([rng.normal(0, 0.1, 80), rng.normal(3, 0.1, 80)]))
        assert bi > 4 * uni


class TestDegradeCoverage:
    def test_full_fraction_is_identity_mask(self):
        d = data.generate(small_spec())
        d2, mask = data.degrade_coverage(d, 1.0, seed=0)
        assert mask.all()
        np.testing.assert_array_equal(d2.values, d.values)

    def test_ten_percent_of_1570(self):
        d = data.SeriesDataset(
            values=np.zeros((1, 2, 1570)),
            step_minutes=3.0,
            max_value=14.0,
            node_ids=tuple(f"n{i}" for i in range(1570)),
            start_times=("2024-01-01T06:00:00",),
        )
        _, mask = data.degrade_coverage(d, 0.1, seed=4)
        assert mask.sum() == 157

    def test_seeded_masks(self):
        d = data.generate(small_spec())
        _, m1 = data.degrade_coverage(d, 0.5, seed=1)
        _, m1b = data.degrade_coverage(d, 0.5, seed=1)
        _, m2 = data.degrade_coverage(d, 0.5, seed=2)
        np.testing.assert_array_equal(m1, m1b)
        assert not np.array_equal(m1, m2)

    def test_zero_selection_rejected(self):
        d = data.generate(small_spec())
        with pytest.raises(DataError):
            data.degrade_coverage(d, 0.01, seed=0)
        with pytest.raises(DataError):
            data.degrade_coverage(d, 0.0, seed=0)

    def test_targets_identical_across_coverage(self):
        d = data.generate(small_spec())
        degraded, _ = data.degrade_coverage(d, 0.5, seed=7)
        full = data.prepare_splits(d, t_h=5, t_f=5)
        masked = data.prepare_splits(degraded, t_h=5, t_f=5)
        assert digest(full.test.targets_raw) == digest(masked.test.targets_raw)

    def test_masked_inputs_zeroed_with_flag_channel(self):
        d = data.generate(small_spec())
        degraded, mask = data.degrade_coverage(d, 0.5, seed=7)
        splits = data.prepare_splits(degraded, t_h=5, t_f=5)
        w = splits.train
        assert w.channels == 2
        assert w.inputs.shape[2] == 10
        vals, flags = w.inputs[:, :, :5], w.inputs[:, :, 5:]
        np.testing.assert_array_equal(flags[:, mask, :], 1.0)
        np.testing.assert_array_equal(flags[:, ~mask, :], 0.0)
        np.testing.assert_array_equal(vals[:, ~mask, :], 0.0)
        assert np.any(vals[:, mask, :] != 0.0)


class TestDegradeResolution:
    def test_identity(self):
        d = data.generate(small_spec())
        assert data.degrade_resolution(d, 1) is d

    def test_constant_series_unchanged(self):
        d = data.SeriesDataset(
            values=np.full((2, 12, 3), 7.0),
            step_minutes=3.0,
            max_value=14.0,
            node_ids=("a", "b", "c"),
            start_times=("2024-01-01T06:00:00", "2024-01-02T06:00:00"),
        )
        coarse = data.degrade_resolution(d, 3)
        np.testing.assert_allclose(coarse.values, 7.0)
        assert coarse.session_steps == 4
        assert coarse.step_minutes == 9.0

    def test_five_second_to_three_minute(self):
        d = data.SeriesDataset(
            values=np.random.default_rng(0).uniform(0, 14, (1, 72, 2)),
            step_minutes=5.0 / 60.0,
            max_value=14.0,
            node_ids=("a", "b"),
            start_times=("2024-01-01T06:00:00",),
        )
        coarse = data.degrade_resolution(d, 36)
        assert coarse.step_minutes == pytest.approx(3.0)
        assert coarse.session_steps == 2
        np.testing.assert_allclose(coarse.values[0, 0], d.values[0, :36].mean(axis=0))

    def test_non_divisible_factor_rejected(self):
        d = data.generate(small_spec(session_steps=30))
        with pytest.raises(DataError):
            data.degrade_resolution(d, 7)


class TestWindowing:
    def test_window_count(self):
        d = data.generate(small_spec(sessions=1, session_steps=30))
        nrm = Normalizer.fit(d.values)
        w = data.window(d, t_h=10, t_f=10, normalizer=nrm)
        assert w.count == 11

    def test_train_split_normalized(self):
        d = data.generate(small_spec())
        splits = d.split_sessions()
        nrm = Normalizer.fit(d.values[splits["train"]])
        z = nrm.transform(d.values[splits["train"]])
        assert abs(z.mean()) < 1e-6
        assert z.std() == pytest.approx(1.0, abs=1e-6)

    def test_round_trip_through_normalizer(self):
        d = data.generate(small_spec())
        splits = data.prepare_splits(d, t_h=5, t_f=5)
        w = splits.test
        np.testing.assert_allclose(
            splits.normalizer.inverse(w.targets), w.targets_raw, atol=1e-9
        )

    def test_windows_never_cross_sessions(self):
        d = data.generate(small_spec(sessions=4, session_steps=25))
        nrm = Normalizer.fit(d.values)
        w = data.window(d, t_h=10, t_f=10, normalizer=nrm)
        per_session = 25 - 20 + 1
        assert w.count == 4 * per_session
        # Each window's raw targets must be recoverable from its session.
        for i in range(w.count):
            s = int(w.session_ids[i])
            o = (i % per_session) + 10
            np.testing.assert_array_equal(w.targets_raw[i], d.values[s, o : o + 10].T)

    def test_short_sessions_skipped_with_warning(self):
        d = data.generate(small_spec(sessions=3, session_steps=15))
        nrm = Normalizer.fit(d.values)
        with pytest.warns(UserWarning, match="skipped"):
            with pytest.raises(DataError):
                data.window(d, t_h=10, t_f=10, normalizer=nrm)

    def test_normalizer_ignores_val_and_test(self):
        d = data.generate(small_spec())
        splits = d.split_sessions()
        tampered_values = d.values.copy()
        tampered_values[splits["test"]] = np.clip(
            tampered_values[splits["test"]] * 0.5 + 1.0, 0, d.max_value
        )
        from dataclasses import replace

        tampered = replace(d, values=tampered_values)
        a = data.prepare_splits(d, t_h=5, t_f=5).normalizer
        b = data.prepare_splits(tampered, t_h=5, t_f=5).normalizer
        assert (a.mean, a.std) == (b.mean, b.std)


class TestCSVRoundTrip:
    def test_export_ingest_bit_identical(self, tmp_path):
        d = data.generate(small_spec())
        path = tmp_path / "series.csv"
        data.export_csv(d, path)
        manifest = DatasetManifest.for_dataset(d)
        back = data.ingest_csv(path, manifest)
        np.testing.assert_array_equal(back.values, d.values)
        assert back.node_ids == d.node_ids
        assert back.start_times == d.start_times

    def test_manifest_round_trip(self, tmp_path):
        d = data.generate(small_spec())
        m = DatasetManifest.for_dataset(d)
        path = tmp_path / "series.manifest.json"
        data.write_manifest(m, path)
        assert data.read_manifest(path) == m

    def test_small_wellformed_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "timestamp,a,b,c\n"
            "2024-01-01T06:00:00,1.0,2.0,3.0\n"
            "2024-01-01T06:03:00,1.5,2.5,3.5\n"
            "2024-01-01T06:06:00,2.0,3.0,4.0\n"
            "2024-01-01T06:09:00,2.5,3.5,4.5\n"
            "2024-01-01T06:12:00,3.0,4.0,5.0\n"
        )
        m = DatasetManifest(
            node_ids=("a", "b", "c"),
            sessions=1,
            session_steps=5,
            step_minutes=3.0,
            max_value=14.0,
        )
        d = data.ingest_csv(path, m)
        assert d.values.shape == (1, 5, 3)
        assert d.values[0, 0, 0] == 1.0

    def test_negative_value_rejected_with_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp,a,b\n"
            "2024-01-01T06:00:00,1.0,2.0\n"
            "2024-01-01T06:03:00,-3.0,2.0\n"
        )
        m = DatasetManifest(
            node_ids=("a", "b"), sessions=1, session_steps=2, step_minutes=3.0, max_value=14.0
        )
        with pytest.raises(DataError, match="row 3.*node a"):
            data.ingest_csv(path, m)

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(
            "timestamp,a\n2024-01-01T06:00:00,1.0\n2024-01-01T06:03:00,oops\n"
        )
        m = DatasetManifest(
            node_ids=("a",), sessions=1, session_steps=2, step_minutes=3.0, max_value=14.0
        )
        with pytest.raises(DataError, match=":3"):
            data.ingest_csv(path, m)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text(
            "timestamp,a\n2024-01-01T06:03:00,1.0\n2024-01-01T06:00:00,1.0\n"
        )
        m = DatasetManifest(
            node_ids=("a",), sessions=1, session_steps=2, step_minutes=3.0, max_value=14.0
        )
        with pytest.raises(DataError, match="monotone"):
            data.ingest_csv(path, m)

    def test_missing_cells_masked(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "timestamp,a,b\n"
            "2024-01-01T06:00:00,1.0,\n"
            "2024-01-01T06:03:00,,2.0\n"
        )
        m = DatasetManifest(
            node_ids=("a", "b"), sessions=1, session_steps=2, step_minutes=3.0, max_value=14.0
        )
        d = data.ingest_csv(path, m)
        assert d.missing is not None
        assert d.missing[0, 0, 1] and d.missing[0, 1, 0]
        assert not np.any(np.isnan(d.values))

    def test_blank_cells_masked_and_bad_cell_named(self, tmp_path):
        # Blank cells are masked wherever they sit in a row, a padded number
        # parses, and a bad cell is named by row and node.
        m = DatasetManifest(
            node_ids=("a", "b", "c"), sessions=1, session_steps=3, step_minutes=3.0,
            max_value=14.0,
        )
        path = tmp_path / "mixed.csv"
        path.write_text(
            "timestamp,a,b,c\n"
            "2024-01-01T06:00:00,1.25,,3.5\n"
            "2024-01-01T06:03:00,1e1, 2.5 ,0\n"
            "2024-01-01T06:06:00,,,7\n"
        )
        d = data.ingest_csv(path, m)
        np.testing.assert_array_equal(d.values[0], [[1.25, 0.0, 3.5], [10.0, 2.5, 0.0],
                                                    [0.0, 0.0, 7.0]])
        np.testing.assert_array_equal(d.missing[0], [[False, True, False],
                                                     [False, False, False],
                                                     [True, True, False]])
        path.write_text(path.read_text().replace(",,,7", ",,x,7"))
        with pytest.raises(DataError) as err:
            data.ingest_csv(path, m)
        assert str(err.value) == f"{path}:4: node b: bad cell 'x'"

    def test_infinite_manifest_max_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("timestamp,a\n2024-01-01T06:00:00,1.0\n2024-01-01T06:03:00,2.0\n")
        man_path = tmp_path / "inf.manifest.json"
        data.write_manifest(DatasetManifest(
            node_ids=("a",), sessions=1, session_steps=2, step_minutes=3.0, max_value=14.0
        ), man_path)
        man_path.write_text(man_path.read_text().replace("14.0", "Infinity"))
        m = data.read_manifest(man_path)
        assert m.max_value == math.inf
        with pytest.raises(DataError, match="max_value=inf must be finite and positive"):
            data.ingest_csv(path, m)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,a\n2024-01-01T06:00:00,1.0\n")
        m = DatasetManifest(
            node_ids=("a",), sessions=1, session_steps=5, step_minutes=3.0, max_value=14.0
        )
        with pytest.raises(DataError, match="rows"):
            data.ingest_csv(path, m)
