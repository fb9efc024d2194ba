"""Synthetic data generation, corruption bookkeeping, CSV round-trips.

The achievable-accuracy check uses a Monte Carlo estimate of the Bayes
error computed from the known class-conditional Gaussians, independent of
any model code.
"""

import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lbi import datasets
from lbi.datasets import CsvSchema, DatasetBundle, Split, SynthSpec
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
        assert b1.pretrain.n == 40
        assert b1.train.n == 20
        assert b1.val.n == 10
        assert b1.test.n == 30
        b1.validate()

    def test_different_seed_different_data(self):
        b1 = datasets.generate(small_spec(seed=1))
        b2 = datasets.generate(small_spec(seed=2))
        assert b1 != b2

    def test_domain_tags_and_corruption_confined_to_pretrain(self):
        """The domain of a row is its split's, and the corruption flags
        cover exactly the pretrain rows."""
        spec = small_spec()
        bundle = datasets.generate(spec)
        assert bundle.corrupted.dtype == bool
        assert bundle.corrupted.shape == (bundle.pretrain.n,)
        assert bundle.corrupted.any()
        # Source rows sit at the source means, target rows at the shifted ones.
        clean = datasets.generate(small_spec(corrupt_frac=0.0, n_pretrain=4000,
                                             n_test=4000))
        for split, means in ((clean.pretrain, spec.resolved_source_means()),
                             (clean.test, spec.target_means())):
            got = np.stack([split.X[split.y == c].mean(axis=0)
                            for c in range(2)])
            assert np.abs(got - means).max() < 0.12

    def test_corrupt_count_rounds(self):
        for frac, n in ((0.25, 40), (0.3, 41), (0.0, 40)):
            bundle = datasets.generate(small_spec(corrupt_frac=frac,
                                                  n_pretrain=n))
            assert bundle.corrupted.sum() == int(round(frac * n))

    def test_no_shift_no_corruption_means_match(self):
        """shift=0 and corrupt_frac=0 leave source and target with the
        same class-conditional distribution up to sampling noise."""
        spec = small_spec(shift=0.0, corrupt_frac=0.0, n_pretrain=4000,
                          n_test=4000, seed=7)
        bundle = datasets.generate(spec)

        def class_means(split):
            return np.stack([split.X[split.y == c].mean(axis=0)
                             for c in range(2)])

        mu_src = class_means(bundle.pretrain)
        mu_tgt = class_means(bundle.test)
        # sampling error ~ sigma/sqrt(2000) ~ 0.022; allow 5 sigma
        assert np.abs(mu_src - mu_tgt).max() < 0.12

    def test_all_flipped_when_frac_one(self):
        spec = small_spec(corrupt_frac=1.0, n_pretrain=50)
        bundle = datasets.generate(spec)
        clean = datasets.generate(small_spec(corrupt_frac=0.0, n_pretrain=50))
        assert bundle.corrupted.all()
        assert (bundle.pretrain.y != clean.pretrain.y).all()
        np.testing.assert_array_equal(bundle.pretrain.X, clean.pretrain.X)

    def test_label_flip_keeps_features_and_changes_picked_labels_only(self):
        spec = small_spec()
        noisy = datasets.generate(spec)
        clean = datasets.generate(small_spec(corrupt_frac=0.0))
        flags = noisy.corrupted
        np.testing.assert_array_equal(noisy.pretrain.X, clean.pretrain.X)
        assert (noisy.pretrain.y[flags] != clean.pretrain.y[flags]).all()
        assert (noisy.pretrain.y[~flags] == clean.pretrain.y[~flags]).all()

    def test_feature_shift_keeps_labels_and_moves_features(self):
        spec = small_spec(corrupt_kind="feature_shift")
        noisy = datasets.generate(spec)
        clean = datasets.generate(small_spec(corrupt_frac=0.0))
        flags = noisy.corrupted
        np.testing.assert_array_equal(noisy.pretrain.y, clean.pretrain.y)
        delta = noisy.pretrain.X[flags] - clean.pretrain.X[flags]
        assert (np.linalg.norm(delta, axis=1) > 1.0).all()
        np.testing.assert_array_equal(noisy.pretrain.X[~flags],
                                      clean.pretrain.X[~flags])
        assert flags.sum() == 10

    def test_mean_shift_between_domains(self):
        spec = small_spec(shift=2.0, corrupt_frac=0.0, n_pretrain=2000,
                          n_test=2000)
        bundle = datasets.generate(spec)
        src = bundle.pretrain.X.mean(axis=0)
        tgt = bundle.test.X.mean(axis=0)
        np.testing.assert_allclose(np.linalg.norm(tgt - src), 2.0, atol=0.15)

    def test_labels_balanced(self):
        bundle = datasets.generate(small_spec(corrupt_frac=0.0))
        assert np.bincount(bundle.pretrain.y).tolist() == [20, 20]

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
        acc = experiments.accuracy(state.finetune_model, bundle.test.X,
                                   bundle.test.y)
        # three-sigma slack for the finite test split
        slack = 3 * np.sqrt(bayes_acc * (1 - bayes_acc) / spec.n_test)
        assert acc <= bayes_acc + slack
        assert acc > 0.5  # sanity: the model does learn


class TestSplitRatio:
    @staticmethod
    def make_pool(n_target, n_source=0, dim=3):
        """Pool rows (X, y, is_source): the source rows first, then the
        target rows, labels alternating."""
        rng = np.random.default_rng(0)
        n = n_source + n_target
        X = np.concatenate([rng.normal(size=(n_source, dim)),
                            rng.normal(size=(n_target, dim))])
        y = np.concatenate([np.arange(n_source) % 2, np.arange(n_target) % 2])
        return X, y, np.arange(n) < n_source

    def test_six_two_two(self):
        pool = self.make_pool(10, n_source=4)
        bundle = datasets.split_ratio(*pool, (0.6, 0.2, 0.2), seed=3)
        assert bundle.pretrain.n == 4
        assert (bundle.train.n, bundle.val.n, bundle.test.n) == (6, 2, 2)
        bundle.validate()

    def test_partition_is_exact(self):
        """Every target example lands in exactly one split."""
        X, y, is_source = self.make_pool(23)
        bundle = datasets.split_ratio(X, y, is_source, (0.5, 0.3, 0.2), seed=1)
        got = [bundle.train, bundle.val, bundle.test]
        assert sum(split.n for split in got) == 23

        def keys(X, y):
            return sorted((x.tobytes(), int(label)) for x, label in zip(X, y))

        assert keys(np.concatenate([s.X for s in got]),
                    np.concatenate([s.y for s in got])) == keys(X, y)

    def test_rounding_preserves_total(self):
        for n in (7, 11, 13, 29):
            pool = self.make_pool(n)
            bundle = datasets.split_ratio(*pool, (0.34, 0.33, 0.33), seed=2)
            assert bundle.train.n + bundle.val.n + bundle.test.n == n

    def test_deterministic(self):
        pool = self.make_pool(12)
        b1 = datasets.split_ratio(*pool, (0.5, 0.25, 0.25), seed=9)
        b2 = datasets.split_ratio(*pool, (0.5, 0.25, 0.25), seed=9)
        assert b1 == b2

    def test_empty_split_rejected(self):
        pool = self.make_pool(10)
        with pytest.raises(ConfigError):
            datasets.split_ratio(*pool, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ConfigError):
            datasets.split_ratio(*pool, (0.5, 0.5, 0.2), seed=0)

    def test_empty_pretrain_allowed(self):
        pool = self.make_pool(10)
        bundle = datasets.split_ratio(*pool, (0.6, 0.2, 0.2), seed=0)
        assert bundle.pretrain.n == 0
        assert bundle.pretrain.X.shape == (0, 3)
        assert bundle.corrupted.shape == (0,)


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
        np.testing.assert_array_equal(loaded.corrupted, bundle.corrupted)
        assert loaded.corrupted.any()

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
            assert split.n == 1
        assert bundle.pretrain.y.tolist() == [0]
        assert bundle.train.y.tolist() == [1]
        np.testing.assert_array_equal(bundle.test.X, [[-3.0, 0.25]])
        assert bundle.corrupted.tolist() == [False]

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
        for name, split in bundle.splits().items():
            assert loaded.splits()[name].X.tobytes() == split.X.tobytes()


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


@st.composite
def bundles(draw):
    """Valid array bundles: dim 1-6, classes 2-5, split sizes 1-20 (pretrain
    0-20), any finite features and random corruption flags."""
    dim = draw(st.integers(1, 6))
    classes = draw(st.integers(2, 5))
    sizes = [draw(st.integers(0, 20))] + [draw(st.integers(1, 20))
                                          for _ in range(3)]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    splits = [Split(draw(hnp.arrays(np.float64, (n, dim), elements=finite)),
                    draw(hnp.arrays(np.int64, n,
                                    elements=st.integers(0, classes - 1))))
              for n in sizes]
    corrupted = draw(hnp.arrays(np.bool_, sizes[0]))
    return DatasetBundle(*splits, dim, classes, corrupted)


def with_split(bundle, name, X=None, y=None):
    """A copy of ``bundle`` with one split's X or y replaced."""
    split = bundle.splits()[name]
    return replace(bundle, **{name: Split(split.X if X is None else X,
                                          split.y if y is None else y)})


class TestOneRepresentation:
    """Every bundle is arrays: CSV round trips keep them byte for byte, and
    validate() names the split and row of the first defect."""

    @settings(max_examples=60, deadline=None)
    @given(bundles())
    def test_csv_round_trip_is_byte_exact(self, bundle):
        bundle.validate()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            datasets.save_csv(bundle, path)
            loaded = datasets.load_csv(path)
        assert loaded == bundle
        for name, split in bundle.splits().items():
            got = loaded.splits()[name]
            assert got.X.dtype == np.float64 and got.y.dtype == np.int64
            assert got.X.shape == split.X.shape
            assert got.X.tobytes() == split.X.tobytes()
            assert got.y.tobytes() == split.y.tobytes()
        assert loaded.corrupted.tobytes() == bundle.corrupted.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(bundles(), st.data())
    def test_validate_names_split_and_row(self, bundle, data):
        name = data.draw(st.sampled_from(
            [n for n, s in bundle.splits().items() if s.n]))
        split = bundle.splits()[name]
        i = data.draw(st.integers(0, split.n - 1))

        # Row i and every later row are bad; the message names row i.
        X = split.X.copy()
        X[i:, data.draw(st.integers(0, bundle.dim - 1))] = np.nan
        with pytest.raises(ValueError, match=rf"^{name}\[{i}\] has non-finite"):
            with_split(bundle, name, X=X).validate()

        y = split.y.copy()
        y[i:] = bundle.classes + data.draw(st.integers(0, 3))
        with pytest.raises(ValueError, match=rf"^{name}\[{i}\] label {y[i]} "):
            with_split(bundle, name, y=y).validate()

        n = bundle.pretrain.n
        k = data.draw(st.integers(0, 25).filter(lambda k: k != n))
        short = replace(bundle, corrupted=np.zeros(k, dtype=bool))
        unmatched = (rf"pretrain\[{k}\] has no flag" if k < n
                     else rf"flag {n} has no pretrain row")
        with pytest.raises(ValueError, match=rf"{k} flags, pretrain has {n} "
                                             rf"rows: {unmatched}"):
            short.validate()

        j = data.draw(st.integers(0, 5))
        flags = np.concatenate([bundle.corrupted, np.zeros(j + 1, dtype=bool)])
        flags[n + j] = True
        with pytest.raises(ValueError, match=rf"outside pretrain: flag {n + j} "):
            replace(bundle, corrupted=flags).validate()
