"""Tests for generation, degradation, the normalizer, windowing and CSV I/O."""

import hashlib
import math

import numpy as np
import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mixcast import data
from mixcast.data import DataError, DatasetManifest, Normalizer, SyntheticSpec

# The (train, val, test) split a manifest gets by default.
SPLIT = DatasetManifest.split_fractions


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
        prone = oracles.congestion_prone_steps(spec)
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
        full = data.prepare_splits(d, t_h=5, t_f=5, fractions=SPLIT)
        masked = data.prepare_splits(degraded, t_h=5, t_f=5, fractions=SPLIT)
        assert digest(full.test.targets_raw) == digest(masked.test.targets_raw)

    def test_masked_inputs_zeroed_with_flag_channel(self):
        d = data.generate(small_spec())
        degraded, mask = data.degrade_coverage(d, 0.5, seed=7)
        splits = data.prepare_splits(degraded, t_h=5, t_f=5, fractions=SPLIT)
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


class TestNormalizer:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(7.0, 2.5, 1000)
        nrm = Normalizer.fit(values)
        z = nrm.transform(values)
        assert abs(z.mean()) < 1e-9
        assert z.std() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(nrm.inverse(z), values, atol=1e-9)

    def test_constant_data_rejected(self):
        with pytest.raises(ValueError):
            Normalizer.fit(np.full(10, 3.0))


class TestWindowing:
    def test_window_count(self):
        d = data.generate(small_spec(sessions=1, session_steps=30))
        nrm = Normalizer.fit(d.values)
        w = data.window(d, t_h=10, t_f=10, normalizer=nrm)
        assert w.count == 11

    def test_train_split_normalized(self):
        d = data.generate(small_spec())
        splits = d.split_sessions(SPLIT)
        nrm = Normalizer.fit(d.values[splits["train"]])
        z = nrm.transform(d.values[splits["train"]])
        assert abs(z.mean()) < 1e-6
        assert z.std() == pytest.approx(1.0, abs=1e-6)

    def test_round_trip_through_normalizer(self):
        d = data.generate(small_spec())
        splits = data.prepare_splits(d, t_h=5, t_f=5, fractions=SPLIT)
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
        # Window i's raw targets come from session i // per_session.
        for i in range(w.count):
            s, o = divmod(i, per_session)
            np.testing.assert_array_equal(w.targets_raw[i], d.values[s, o + 10 : o + 20].T)

    def test_short_sessions_rejected_naming_both_lengths(self):
        d = data.generate(small_spec(sessions=3, session_steps=15))
        nrm = Normalizer.fit(d.values)
        with pytest.raises(DataError, match=r"^sessions have 15 steps, fewer than "
                                            r"input_steps \+ horizon = 20$"):
            data.window(d, t_h=10, t_f=10, normalizer=nrm)

    @given(sessions=st.integers(1, 4), steps=st.integers(2, 16), nodes=st.integers(1, 4),
           t_h=st.integers(1, 6), t_f=st.integers(1, 6), masked=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_gathers_match_stacked_copies(self, sessions, steps, nodes, t_h, t_f, masked, seed):
        rng = np.random.default_rng(seed)
        d = data.SeriesDataset(
            values=rng.uniform(0, 14, (sessions, steps, nodes)), step_minutes=3.0,
            max_value=14.0, node_ids=tuple(f"n{i}" for i in range(nodes)),
            start_times=("2024-01-01T06:00:00",) * sessions,
            coverage=rng.random(nodes) < 0.5 if masked else None,
        )
        nrm = Normalizer(mean=float(rng.uniform(0, 14)), std=float(rng.uniform(0.5, 5)))
        subset = np.arange(int(rng.integers(0, sessions)), sessions)
        if steps < t_h + t_f:
            for windowing in (data.window, oracles.stacked_windows):
                with pytest.raises(DataError):
                    windowing(d, t_h, t_f, nrm, sessions=subset)
            return
        w = data.window(d, t_h, t_f, nrm, sessions=subset)
        ref = oracles.stacked_windows(d, t_h, t_f, nrm, sessions=subset)

        def same_bytes(a, b):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        assert w.count == len(ref.session_ids)
        assert w.channels == (2 if masked else 1)
        for name in ("inputs", "targets", "targets_raw"):
            same_bytes(getattr(w, name), getattr(ref, name))
        # Any subset, in any order, and gathered in float32 as training
        # gathers it; the raw targets stay float64.
        idx = rng.permutation(w.count)[: int(rng.integers(1, w.count + 1))]
        w32 = w.astype(np.float32)
        for got, want in zip(w32.gather(idx), (ref.inputs, ref.targets)):
            same_bytes(got, want[idx].astype(np.float32))
        same_bytes(w32.gather_raw(idx), ref.targets_raw[idx])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gathers_equal_windows_of_the_normalized_split(self, dtype, masked):
        # The reference normalizes the whole split with Normalizer.transform,
        # casts it, and only then cuts the windows; gather z-scores each
        # window's copied steps instead. Every bit must agree, and the raw
        # series must come through untouched.
        d = data.generate(small_spec())
        if masked:
            d, _ = data.degrade_coverage(d, 0.5, seed=1)
        splits = data.prepare_splits(d, t_h=5, t_f=4, fractions=SPLIT)
        w = splits.train.astype(dtype)
        raw = w.raw.copy()
        steps = sliding_window_view(splits.normalizer.transform(w.raw).astype(dtype), 9, axis=1)
        for idx in (slice(None), np.random.default_rng(0).permutation(w.count)[:25]):
            picked = steps[np.divmod(np.arange(w.count)[idx], steps.shape[1])]
            inputs = np.ascontiguousarray(picked[..., :5])
            if masked:
                inputs[:, ~d.coverage] = 0.0
                flags = np.broadcast_to(d.coverage[:, None].astype(dtype), inputs.shape)
                inputs = np.concatenate([inputs, flags], axis=2)
            for got, want in zip(w.gather(idx), (inputs, picked[..., 5:])):
                assert got.dtype == dtype and got.flags.c_contiguous
                assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()
            assert w.raw.tobytes() == raw.tobytes()

    def test_normalizer_ignores_val_and_test(self):
        d = data.generate(small_spec())
        splits = d.split_sessions(SPLIT)
        tampered_values = d.values.copy()
        tampered_values[splits["test"]] = np.clip(
            tampered_values[splits["test"]] * 0.5 + 1.0, 0, d.max_value
        )
        from dataclasses import replace

        tampered = replace(d, values=tampered_values)
        a = data.prepare_splits(d, t_h=5, t_f=5, fractions=SPLIT).normalizer
        b = data.prepare_splits(tampered, t_h=5, t_f=5, fractions=SPLIT).normalizer
        assert (a.mean, a.std) == (b.mean, b.std)


class TestDatasetManifest:
    FIELDS = dict(node_ids=["a", "b"], sessions=2, session_steps=3, step_minutes=3.0,
                  max_value=14.0)

    def test_lists_become_tuples_and_split_defaults(self):
        m = DatasetManifest(**self.FIELDS, split_fractions=[0.5, 0.25, 0.25])
        assert m.node_ids == ("a", "b") and m.split_fractions == (0.5, 0.25, 0.25)
        assert DatasetManifest(**self.FIELDS).split_fractions == (0.7, 0.1, 0.2)

    @pytest.mark.parametrize("change, message", [
        ({"node_ids": "ab"}, "node_ids must be a non-empty list, got 'ab'"),
        ({"node_ids": []}, "node_ids must be a non-empty list, got []"),
        ({"sessions": 0}, "sessions must be an integer >= 1, got 0"),
        ({"sessions": 10.0}, "sessions must be an integer >= 1, got 10.0"),
        ({"session_steps": True}, "session_steps must be an integer >= 1, got True"),
        ({"step_minutes": math.nan}, "step_minutes=nan must be finite and positive"),
        ({"max_value": "x"}, "max_value='x' must be finite and positive"),
        ({"split_fractions": (0.5, 0.5)}, "three numbers >= 0 that sum to 1, got (0.5, 0.5)"),
        ({"split_fractions": (1.2, -0.1, -0.1)}, "got (1.2, -0.1, -0.1)"),
        ({"split_fractions": (0.7, 0.1, "x")}, "got (0.7, 0.1, 'x')"),
        ({"split_fractions": (0.7, 0.1, 0.3)}, "sum to 1, got (0.7, 0.1, 0.3)"),
        ({"node_ids": ["a", "b", "a"]}, "node_ids must be distinct, got 'a' more than once"),
        ({"node_ids": ["a", "b", "b", "a"]}, "got 'a', 'b' more than once"),
        ({"seed": "x"}, "seed must be an integer >= 0, got 'x'"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 3.0}, "seed must be an integer >= 0, got 3.0"),
        ({"seed": False}, "seed must be an integer >= 0, got False"),
    ], ids=["ids-text", "no-ids", "no-sessions", "float-sessions", "bool-steps", "nan-step", "text-max",
            "two-fractions", "negative-fraction", "text-fraction", "sum-not-one", "repeated-id",
            "two-repeated-ids", "seed-text", "seed-negative", "seed-float", "seed-bool"])
    def test_bad_field_named(self, change, message):
        with pytest.raises(ValueError) as err:
            DatasetManifest(**(self.FIELDS | change))
        assert message in str(err.value)

    def test_repeated_node_id_is_a_data_error(self):
        with pytest.raises(DataError, match="'a' more than once"):
            DatasetManifest(**(self.FIELDS | {"node_ids": ["a", "a"]}))

    @pytest.mark.parametrize("seed", [None, 0, 7, np.int64(7)])
    def test_seed_none_or_integer_accepted(self, seed):
        assert DatasetManifest(**self.FIELDS, seed=seed).seed == seed

    def test_from_fields_names_unknown_and_missing_keys(self):
        values = {k: v for k, v in self.FIELDS.items() if k != "sessions"} | {"nodes": 2}
        with pytest.raises(ValueError) as err:
            data.from_fields(DatasetManifest, values)
        assert str(err.value) == ("unknown DatasetManifest key(s) ['nodes']; "
                                  "missing DatasetManifest key(s) ['sessions']")


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
        # write, read, write: the same bytes.
        again = tmp_path / "again.manifest.json"
        data.write_manifest(data.read_manifest(path), again)
        assert again.read_bytes() == path.read_bytes()

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
        man_path = tmp_path / "inf.manifest.json"
        data.write_manifest(DatasetManifest(
            node_ids=("a",), sessions=1, session_steps=2, step_minutes=3.0, max_value=14.0
        ), man_path)
        man_path.write_text(man_path.read_text().replace("14.0", "Infinity"))
        with pytest.raises(DataError) as err:
            data.read_manifest(man_path)
        assert str(err.value) == f"{man_path}: max_value=inf must be finite and positive"
        # A dataset built in process is checked too.
        with pytest.raises(DataError, match="max_value=inf must be finite and positive"):
            data.SeriesDataset(values=np.ones((1, 2, 1)), step_minutes=3.0, max_value=math.inf,
                               node_ids=("a",), start_times=("2024-01-01T06:00:00",))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("trailing", [True, False], ids=["trailing", "no-trailing"])
    def test_line_endings_parse_alike(self, tmp_path, newline, trailing):
        # ingest reads one line at a time; any line ending, with or without
        # one after the last row, gives the arrays of the exported file.
        d = data.generate(small_spec())
        path = tmp_path / "series.csv"
        data.export_csv(d, path)
        text = path.read_text().replace("\n", newline)
        path.write_bytes((text if trailing else text[: -len(newline)]).encode())
        back = data.ingest_csv(path, DatasetManifest.for_dataset(d))
        assert back.values.tobytes() == d.values.tobytes()
        assert back.start_times == d.start_times and back.missing is None

    def test_row_count_checked_before_any_row_is_parsed(self, tmp_path):
        # Too many or too few rows are named before a bad cell in an earlier
        # row; with the count right the bad cell is named. A line break
        # that str.splitlines knows (here a form feed) splits a row, as
        # when the whole text was split at once.
        m = DatasetManifest(node_ids=("a", "b"), sessions=1, session_steps=3, step_minutes=3.0,
                            max_value=14.0)
        rows = ["2024-01-01T06:00:00,1.0,", "2024-01-01T06:03:00,x,2.0",
                "2024-01-01T06:06:00,3.0,4.0", "2024-01-01T06:09:00,3.0,4.0"]
        path = tmp_path / "rows.csv"
        for body, want in (
            (rows, f"{path}: 4 data rows, manifest expects 3"),
            (rows[:2], f"{path}: 2 data rows, manifest expects 3"),
            (rows[:3], f"{path}:3: node a: bad cell 'x'"),
            ([rows[0], rows[1].replace(",x,", ",\x0c,"), rows[2]],
             f"{path}: 4 data rows, manifest expects 3"),
            ([], f"{path}: 0 data rows, manifest expects 3"),
        ):
            path.write_text("\n".join(["timestamp,a,b", *body]) + "\n")
            with pytest.raises(DataError) as err:
                data.ingest_csv(path, m)
            assert str(err.value) == want
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            data.ingest_csv(path, m)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,a\n2024-01-01T06:00:00,1.0\n")
        m = DatasetManifest(
            node_ids=("a",), sessions=1, session_steps=5, step_minutes=3.0, max_value=14.0
        )
        with pytest.raises(DataError, match="rows"):
            data.ingest_csv(path, m)
