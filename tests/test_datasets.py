"""Synthetic data generation, corruption bookkeeping, CSV round-trips.

The achievable-accuracy check uses a Monte Carlo estimate of the Bayes
error computed from the known class-conditional Gaussians, independent of
any model code.
"""

import json

import numpy as np
import pytest

from lbi import datasets
from lbi.datasets import CsvSchema, SynthSpec
from lbi.errors import ConfigError, ParseError


def small_spec(**overrides):
    base = dict(dim=3, classes=2, n_pretrain=40, n_train=20, n_val=10,
                n_test=30, shift=0.5, noise_sigma=1.0, corrupt_frac=0.25,
                corrupt_kind="label_flip", seed=7)
    base.update(overrides)
    return SynthSpec(**base)


class TestGenerate:
    def test_determinism_and_split_sizes(self):
        spec = small_spec()
        b1 = datasets.generate(spec)
        b2 = datasets.generate(spec)
        assert b1 == b2
        assert len(b1.pretrain) == 40
        assert len(b1.train) == 20
        assert len(b1.val) == 10
        assert len(b1.test) == 30
        b1.validate()

    def test_different_seed_different_data(self):
        b1 = datasets.generate(small_spec(seed=1))
        b2 = datasets.generate(small_spec(seed=2))
        assert b1 != b2

    def test_domain_tags_and_corruption_confined_to_pretrain(self):
        bundle = datasets.generate(small_spec())
        assert all(ex.domain == "source" for ex in bundle.pretrain)
        for split in (bundle.train, bundle.val, bundle.test):
            assert all(ex.domain == "target" for ex in split)
            assert not any(ex.corrupted for ex in split)

    def test_corrupt_count_rounds(self):
        for frac, n in ((0.25, 40), (0.3, 41), (0.0, 40)):
            bundle = datasets.generate(small_spec(corrupt_frac=frac,
                                                  n_pretrain=n))
            flagged = sum(ex.corrupted for ex in bundle.pretrain)
            assert flagged == int(round(frac * n))

    def test_no_shift_no_corruption_means_match(self):
        """shift=0 and corrupt_frac=0 leave source and target with the
        same class-conditional distribution up to sampling noise."""
        spec = small_spec(shift=0.0, corrupt_frac=0.0, n_pretrain=4000,
                          n_test=4000, seed=7)
        bundle = datasets.generate(spec)

        def class_means(split):
            X = np.stack([ex.features for ex in split])
            y = np.array([ex.label for ex in split])
            return np.stack([X[y == c].mean(axis=0) for c in range(2)])

        mu_src = class_means(bundle.pretrain)
        mu_tgt = class_means(bundle.test)
        # sampling error ~ sigma/sqrt(2000) ~ 0.022; allow 5 sigma
        assert np.abs(mu_src - mu_tgt).max() < 0.12

    def test_all_flipped_when_frac_one(self):
        spec = small_spec(corrupt_frac=1.0, n_pretrain=50)
        bundle = datasets.generate(spec)
        clean = datasets.generate(small_spec(corrupt_frac=0.0, n_pretrain=50))
        assert all(ex.corrupted for ex in bundle.pretrain)
        for noisy, orig in zip(bundle.pretrain, clean.pretrain):
            assert noisy.label != orig.label
            np.testing.assert_array_equal(noisy.features, orig.features)

    def test_label_flip_keeps_features_and_changes_picked_labels_only(self):
        spec = small_spec()
        noisy = datasets.generate(spec)
        clean = datasets.generate(small_spec(corrupt_frac=0.0))
        for n_ex, c_ex in zip(noisy.pretrain, clean.pretrain):
            np.testing.assert_array_equal(n_ex.features, c_ex.features)
            if n_ex.corrupted:
                assert n_ex.label != c_ex.label
            else:
                assert n_ex.label == c_ex.label

    def test_feature_shift_keeps_labels_and_moves_features(self):
        spec = small_spec(corrupt_kind="feature_shift")
        noisy = datasets.generate(spec)
        clean = datasets.generate(small_spec(corrupt_frac=0.0))
        moved = 0
        for n_ex, c_ex in zip(noisy.pretrain, clean.pretrain):
            assert n_ex.label == c_ex.label
            if n_ex.corrupted:
                moved += 1
                delta = n_ex.features - c_ex.features
                assert np.linalg.norm(delta) > 1.0
            else:
                np.testing.assert_array_equal(n_ex.features, c_ex.features)
        assert moved == 10

    def test_mean_shift_between_domains(self):
        spec = small_spec(shift=2.0, corrupt_frac=0.0, n_pretrain=2000,
                          n_test=2000)
        bundle = datasets.generate(spec)
        src = np.stack([ex.features for ex in bundle.pretrain]).mean(axis=0)
        tgt = np.stack([ex.features for ex in bundle.test]).mean(axis=0)
        np.testing.assert_allclose(np.linalg.norm(tgt - src), 2.0, atol=0.15)

    def test_labels_balanced(self):
        bundle = datasets.generate(small_spec(corrupt_frac=0.0))
        labels = [ex.label for ex in bundle.pretrain]
        assert labels.count(0) == 20 and labels.count(1) == 20

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(corrupt_frac=1.5).validate()
        with pytest.raises(ConfigError):
            small_spec(classes=1).validate()
        with pytest.raises(ConfigError):
            small_spec(corrupt_kind="typo").validate()
        with pytest.raises(ConfigError):
            small_spec(noise_sigma=0.0).validate()
        with pytest.raises(ConfigError):
            small_spec(n_train=0).validate()


class TestBayesBound:
    def test_model_accuracy_below_mc_bayes_rate(self):
        """A linear model trained on clean target data cannot beat the
        optimal rule for the generating mixture.  The optimal rate is
        estimated by Monte Carlo with the true Gaussian densities."""
        from lbi import engine, experiments
        from lbi import model as model_mod

        spec = SynthSpec(dim=2, classes=2, n_pretrain=50, n_train=400,
                         n_val=100, n_test=4000, shift=1.5, noise_sigma=1.0,
                         corrupt_frac=0.0, corrupt_kind="label_flip", seed=7)
        bundle = datasets.generate(spec)

        means = spec.target_means()
        rng = np.random.default_rng(999)
        n_mc = 1_000_000
        labels = rng.integers(0, 2, size=n_mc)
        X = means[labels] + spec.noise_sigma * rng.standard_normal((n_mc, 2))
        # optimal rule for equal-covariance Gaussians: nearest mean
        d0 = ((X - means[0]) ** 2).sum(axis=1)
        d1 = ((X - means[1]) ** 2).sum(axis=1)
        bayes_acc = float(((d1 < d0) == labels).mean())
        assert 0.5 < bayes_acc < 1.0

        cfg = engine.LbiConfig(lam=0.0, gamma=0.0, iterations=400,
                               lr_finetune_encoder=0.01, seed=0)
        state, _ = engine.run(bundle, cfg)
        Xt, yt = model_mod.examples_to_arrays(bundle.test)
        acc = experiments.accuracy(state.finetune_model, Xt, yt)
        # three-sigma slack for the finite test split
        slack = 3 * np.sqrt(bayes_acc * (1 - bayes_acc) / spec.n_test)
        assert acc <= bayes_acc + slack
        assert acc > 0.5  # sanity: the model does learn


class TestSplitRatio:
    def make_pool(self, n, dim=3, domain="target"):
        rng = np.random.default_rng(0)
        return [datasets.Example(rng.normal(size=dim), i % 2, domain)
                for i in range(n)]

    def test_six_two_two(self):
        pool = self.make_pool(4, domain="source") + self.make_pool(10)
        bundle = datasets.split_ratio(pool, (0.6, 0.2, 0.2), seed=3)
        assert len(bundle.pretrain) == 4
        assert (len(bundle.train), len(bundle.val), len(bundle.test)) == (6, 2, 2)
        bundle.validate()

    def test_partition_is_exact(self):
        """Every target example lands in exactly one split."""
        target = self.make_pool(23)
        bundle = datasets.split_ratio(target, (0.5, 0.3, 0.2), seed=1)
        got = bundle.train + bundle.val + bundle.test
        assert len(got) == 23

        def key(ex):
            return (ex.features.tobytes(), ex.label)

        assert sorted(map(key, got)) == sorted(map(key, target))

    def test_rounding_preserves_total(self):
        for n in (7, 11, 13, 29):
            target = self.make_pool(n)
            bundle = datasets.split_ratio(target, (0.34, 0.33, 0.33), seed=2)
            assert len(bundle.train) + len(bundle.val) + len(bundle.test) == n

    def test_deterministic(self):
        target = self.make_pool(12)
        b1 = datasets.split_ratio(target, (0.5, 0.25, 0.25), seed=9)
        b2 = datasets.split_ratio(target, (0.5, 0.25, 0.25), seed=9)
        assert b1 == b2

    def test_empty_split_rejected(self):
        target = self.make_pool(10)
        with pytest.raises(ConfigError):
            datasets.split_ratio(target, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ConfigError):
            datasets.split_ratio(target, (0.5, 0.5, 0.2), seed=0)

    def test_empty_pretrain_allowed(self):
        target = self.make_pool(10)
        bundle = datasets.split_ratio(target, (0.6, 0.2, 0.2), seed=0)
        assert bundle.pretrain == []


class TestCsvRoundTrip:
    def test_generate_save_load_identity(self, tmp_path):
        import json

        spec = small_spec(n_pretrain=20, n_train=20, n_val=10, n_test=10)
        bundle = datasets.generate(spec)
        path = tmp_path / "data.csv"
        datasets.save_csv(bundle, path, spec=spec)
        loaded = datasets.load_csv(path)
        assert loaded == bundle
        with open(datasets.sidecar_path(path)) as fh:
            manifest = json.load(fh)
        assert SynthSpec.from_dict(manifest["spec"]) == spec

    def test_corruption_flags_survive_round_trip(self, tmp_path):
        bundle = datasets.generate(small_spec())
        path = tmp_path / "data.csv"
        datasets.save_csv(bundle, path)
        loaded = datasets.load_csv(path)
        flags = [ex.corrupted for ex in loaded.pretrain]
        assert flags == [ex.corrupted for ex in bundle.pretrain]
        assert any(flags)

    def test_minimal_four_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "split,label,f_0,f_1\n"
            "pretrain,0,0.5,-1.0\n"
            "train,1,0.0,2.0\n"
            "val,0,1.0,1.0\n"
            "test,1,-3.0,0.25\n"
        )
        bundle = datasets.load_csv(path)
        for split in bundle.splits().values():
            assert len(split) == 1
        assert bundle.pretrain[0].domain == "source"
        assert bundle.train[0].domain == "target"
        np.testing.assert_array_equal(bundle.test[0].features, [-3.0, 0.25])

    def test_schema_fixes_class_count(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "split,label,f_0\n"
            "pretrain,0,0.0\n"
            "train,0,1.0\n"
            "val,0,1.0\n"
            "test,0,1.0\n"
        )
        bundle = datasets.load_csv(path, schema=CsvSchema(dim=1, classes=3))
        assert bundle.classes == 3
        assert bundle.validate() is None

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "split,label,f_0,f_1\n"
            "pretrain,0,0.5,-1.0\n"
            "train,1,0.25\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            datasets.load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,label,x0\npretrain,0,1.0\n")
        with pytest.raises(ParseError):
            datasets.load_csv(path)

    def test_unknown_split_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,label,f_0\nholdout,0,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            datasets.load_csv(path)

    def test_non_numeric_feature_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,label,f_0\npretrain,0,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            datasets.load_csv(path)

    def test_label_out_of_range_with_schema(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,label,f_0\npretrain,5,1.0\n")
        with pytest.raises(ParseError):
            datasets.load_csv(path, schema=CsvSchema(dim=1, classes=2))

    def test_full_precision_floats(self, tmp_path):
        """Feature values survive the text round trip bit for bit."""
        bundle = datasets.generate(small_spec(n_pretrain=4, n_train=4,
                                              n_val=4, n_test=4))
        path = tmp_path / "data.csv"
        datasets.save_csv(bundle, path)
        loaded = datasets.load_csv(path)
        for a, b in zip(loaded.pretrain, bundle.pretrain):
            assert a.features.tobytes() == b.features.tobytes()


class TestCsvSidecar:
    """A sidecar must describe the CSV next to it: its corruption indices
    count rows, so a dropped row would shift every later flag."""

    @staticmethod
    def save(tmp_path, bundle):
        path = tmp_path / "data.csv"
        datasets.save_csv(bundle, path)
        return path

    @staticmethod
    def edit_sidecar(path, **changes):
        side = datasets.sidecar_path(path)
        with open(side) as fh:
            manifest = json.load(fh)
        manifest.update(changes)
        with open(side, "w") as fh:
            json.dump(manifest, fh)

    def test_matching_round_trip_keeps_absent_class(self, tmp_path):
        bundle = datasets.generate(small_spec())
        bundle.classes = 3  # no example carries label 2
        path = self.save(tmp_path, bundle)
        loaded = datasets.load_csv(path)
        assert loaded == bundle
        assert loaded.classes == 3

    def test_dropped_row_rejected(self, tmp_path):
        bundle = datasets.generate(small_spec())
        path = self.save(tmp_path, bundle)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[3].startswith("pretrain,")
        path.write_text("".join(lines[:3] + lines[4:]))
        with pytest.raises(ParseError, match="39"):
            datasets.load_csv(path)

    def test_dim_mismatch_rejected(self, tmp_path):
        path = self.save(tmp_path, datasets.generate(small_spec()))
        self.edit_sidecar(path, dim=4)
        with pytest.raises(ParseError, match="features"):
            datasets.load_csv(path)

    def test_class_count_mismatch_rejected(self, tmp_path):
        path = self.save(tmp_path, datasets.generate(small_spec(classes=3)))
        self.edit_sidecar(path, classes=2)
        with pytest.raises(ParseError, match="label outside 0..1"):
            datasets.load_csv(path)
        self.edit_sidecar(path, classes=3)
        with pytest.raises(ParseError, match="classes"):
            datasets.load_csv(path, schema=CsvSchema(classes=4))


class TestSpecDict:
    def test_round_trip(self):
        spec = small_spec(source_means=[[0.0, 0, 0], [1.0, 1, 1]])
        again = SynthSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_key_rejected(self):
        d = small_spec().to_dict()
        d["bogus"] = 1
        with pytest.raises(ConfigError):
            SynthSpec.from_dict(d)

    def test_with_seed(self):
        spec = small_spec(seed=1)
        assert datasets.with_seed(spec, 42).seed == 42
        assert spec.seed == 1
