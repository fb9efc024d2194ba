"""Synthetic data generation, corruption bookkeeping, CSV round-trips.

The achievable-accuracy check uses a Monte Carlo estimate of the Bayes
error computed from the known class-conditional Gaussians, independent of
any model code.
"""

import csv
import json
import os
import re
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
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

    @pytest.mark.parametrize("column, value, message", [
        ("y", 1.5, "pool row 4: label 1.5 is not a nonnegative integer"),
        ("y", -1, "pool row 4: label -1 is not a nonnegative integer"),
        ("y", np.nan, "pool row 4: label nan is not a nonnegative integer"),
        ("is_source", 0.5, "pool row 4: is_source 0.5 is not true or false"),
        ("is_source", 2, "pool row 4: is_source 2 is not true or false")])
    def test_misread_pool_values_name_the_pool_row(self, column, value,
                                                   message):
        """A cast would read 1.5 as 1 and 0.5 as True, and a negative label
        would fail naming a row of the shuffled test split."""
        X, y, is_source = self.make_pool(10, n_source=4)
        pool = {"y": y, "is_source": is_source}
        pool[column] = pool[column].astype(np.result_type(pool[column], value))
        pool[column][4] = value
        with pytest.raises(ConfigError) as info:
            datasets.split_ratio(X, pool["y"], pool["is_source"],
                                 (0.6, 0.2, 0.2), seed=0)
        assert str(info.value) == message

    def test_exact_float_labels_and_flags_are_read(self):
        X, y, is_source = self.make_pool(10, n_source=4)
        want = datasets.split_ratio(X, y, is_source, (0.6, 0.2, 0.2), seed=0)
        got = datasets.split_ratio(X, y.astype(np.float64),
                                   is_source.astype(np.float64),
                                   (0.6, 0.2, 0.2), seed=0)
        assert got == want

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

    @pytest.mark.parametrize("key, value, what", [
        ("corrupted_pretrain_indices", [True], "a list of integers"),
        ("corrupted_pretrain_indices", ["1"], "a list of integers"),
        ("corrupted_pretrain_indices", [1.5], "a list of integers"),
        ("corrupted_pretrain_indices", 5, "a list of integers"),
        ("classes", 2.0, "an integer"),
        ("classes", "2", "an integer"),
        ("classes", True, "an integer"),
        ("dim", "2", "an integer"),
        ("split_sizes", [1], "an object of integers"),
        ("split_sizes", {"pretrain": 40.0}, "an object of integers"),
    ])
    def test_field_of_wrong_type_rejected(self, key, value, what, tmp_path):
        """Read as they were, a bool index flags every pretraining row, a
        float class count loads, and the rest fail with a traceback or a
        message that names no fault."""
        path = self.save(tmp_path, datasets.generate(small_spec(dim=2)))
        self.edit_sidecar(path, **{key: value})
        side = datasets.sidecar_path(path)
        with pytest.raises(ParseError) as info:
            datasets.load_csv(path)
        assert str(info.value) == f"{side}: {key} must be {what}"


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
        """And through numpy's one pass alone: the diagnosis never runs on
        what save_csv writes."""
        bundle.validate()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            datasets.save_csv(bundle, path)
            with mock.patch.object(datasets, "_diagnose", side_effect=(
                    AssertionError("the diagnosis ran"))):
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


# Field texts and line ends where numpy's parser and the csv module could
# part, or that are no save_csv row: load_csv reads what numpy reads as one,
# and names the line of anything else.
OVER_LIMIT = "0." + "0" * 140_000 + "1"  # finite, longer than the csv limit
FIELD_TEXTS = st.sampled_from([
    "1_0", "\u0661", "9223372036854775808", "-9223372036854775809", "3.0",
    "0x1", "1.", "iNf", "nan", "-inf", "1" * 200_000, OVER_LIMIT, ' 1 ',
    '"1"', '"1.5', '1"5', '"1"0', '"\r\n1"', '"\n' + "\n" * 140_000 + '1"',
    "pretrainXYZ", "pretrain", "train", "holdout", "", "pretrain\0",
    " test", "-0", "+1", "\xa01", "1e400"])
LINE_ENDS = st.sampled_from([
    "\n", "\r", "\r\n\r\n", "\r\n\n\r", ",\r\n", " \r\n", "\r\n \r\n",
    "\u2028", "\x85", '"\r\n', "\r\n\0\r\n", ""])
CSV_EDITS = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 99), st.integers(0, 9),
              FIELD_TEXTS),
    st.tuples(st.just("end"), st.integers(0, 99), LINE_ENDS),
    st.tuples(st.just("ends"), LINE_ENDS),
    st.tuples(st.just("rows"), st.integers(0, 2)))
SMALL = datasets.generate(small_spec(dim=1, n_pretrain=2, n_train=1, n_val=1,
                                     n_test=1))


def edited(text, edit):
    """save_csv's ``text`` with one edit: ``("field", i, j, s)`` makes
    field j of data row i ``s``, ``("end", i, s)`` ends data row i with
    ``s``, ``("ends", s)`` ends every line with ``s`` and ``("rows", k)``
    keeps the first k data rows.  Row and field indices wrap around."""
    header, *rows = text.split("\r\n")[:-1]
    kind, *args = edit
    if kind == "field":
        i, j, s = args
        fields = rows[i % len(rows)].split(",")
        fields[j % len(fields)] = s
        rows[i % len(rows)] = ",".join(fields)
    if kind == "rows":
        rows = rows[:args[0]]
    ends = ["\r\n"] * (len(rows) + 1)
    if kind == "end":
        ends[1 + args[0] % len(rows)] = args[1]
    if kind == "ends":
        ends = [args[0]] * len(ends)
    return "".join(line + end for line, end in zip([header, *rows], ends))


# The warnings numpy's parser may give (a float cast to an integer label,
# no data) are ignored here as outside a test, so the reader must not rest
# on the test suite's filters turning them into errors.
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.filterwarnings("ignore::UserWarning")
class TestReadersAgree:
    """numpy's parser is the one reader, and it agrees with the csv module
    and int()/float(): load_csv returns the bundle that they read, or raises
    a ParseError that names the line, or the file, at fault."""

    @pytest.mark.parametrize("label, message", [
        ("1.5", " line 3: bad label '1.5'"), ("3.0", " line 3: bad label '3.0'"),
        ("1.", " line 3: bad label '1.'"), ("1e0", " line 3: bad label '1e0'"),
        ("9223372036854775808", " line 3: bad label '9223372036854775808'"),
        (None, ": no data rows")])
    def test_labels_numpy_might_cast_are_rejected(self, label, message,
                                                  tmp_path):
        """numpy versions that only warn would read 1.5 as the label 1."""
        path = tmp_path / "data.csv"
        rows = [f"{name},{label if name == 'train' else 0},1.0\n"
                for name in datasets.SPLITS] if label else []
        path.write_text("split,label,f_0\n" + "".join(rows))
        with pytest.raises(ParseError) as info:
            datasets.load_csv(str(path))
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("column, text, message", [
        (1, "1_0", "bad label '1_0'"), (1, "\u0661", "bad label '\u0661'"),
        (2, "1_0", "bad feature value"), (2, "\u0661", "bad feature value")])
    def test_spellings_only_python_reads_are_rejected(self, column, text,
                                                      message, tmp_path):
        """int() and float() read 1_0 as 10 and the Arabic-Indic digit one
        as 1; numpy reads neither."""
        path = str(tmp_path / "data.csv")
        datasets.save_csv(SMALL, path)
        with open(path, newline="", encoding="utf-8") as fh:
            csv_text = edited(fh.read(), ("field", 1, column, text))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(csv_text)
        pretrain = reference.read_csv(path).pretrain
        assert (pretrain.y[1], pretrain.X[1, 0])[column - 1] == float(text)
        with pytest.raises(ParseError) as info:
            datasets.load_csv(path)
        assert str(info.value) == f"{path} line 3: {message}"

    @pytest.mark.parametrize("row, message, checked", [
        ("train,0,x", "bad feature value", 3),
        ("train,0,inf", "non-finite feature value", 1),
        ("holdout,0,1", "unknown split 'holdout'", 1),
        ("pretrain\0,0,1", "unknown split 'pretrain\\x00'", 3)])
    def test_line_past_blank_and_spanning_lines(self, row, message, checked,
                                                tmp_path):
        """The fault's line counts a row that spans two lines and a blank
        line before it.  Where numpy read every row, only the row at fault
        is checked, and only that row is worded (``_fault``)."""
        path = tmp_path / "data.csv"
        path.write_bytes(b'split,label,f_0\r\npretrain,0,"\r\n1"\r\n\r\n'
                         b'pretrain,1,2\r\n' + row.encode() +
                         b'\r\nval,0,1\r\ntest,1,1\r\n')
        with mock.patch.object(datasets, "_fault",
                               wraps=datasets._fault) as fault, \
                mock.patch.object(datasets, "_loadtxt",
                                  wraps=datasets._loadtxt) as loadtxt:
            with pytest.raises(ParseError) as info:
                datasets.load_csv(str(path))
        assert str(info.value) == f"{path} line 6: {message}"
        assert fault.call_count == 1
        # The diagnosis reads the rows it checks one at a time.
        assert sum(call.kwargs.get("max_rows") == 1
                   for call in loadtxt.call_args_list) == checked

    def test_a_refused_file_costs_one_read_per_row(self, tmp_path):
        """When numpy refuses the file, naming a fault in its last row
        reads each row before it once."""
        def calls(rows):
            path = tmp_path / f"{rows}.csv"
            path.write_text("split,label,f_0\n" + "train,0,1\n" * rows
                            + "test,0,x\n")
            with mock.patch.object(datasets, "_loadtxt",
                                   wraps=datasets._loadtxt) as loadtxt:
                with pytest.raises(ParseError, match=(
                        f"line {rows + 2}: bad feature value$")):
                    datasets.load_csv(str(path))
            return loadtxt.call_count
        assert calls(40) - calls(20) == 20

    @pytest.mark.parametrize("end", [b"\r", b"\r\n", b"\n"])
    @pytest.mark.parametrize("feature, message", [
        (b"\xff", "not UTF-8 text"), (b"x", "bad feature value")])
    def test_line_ends_count_as_the_reader_splits(self, end, feature,
                                                  message, tmp_path):
        """A bare "\r" ends a line as "\n" and "\r\n" do, for a byte that
        is not UTF-8 as for a bad value."""
        path = tmp_path / "data.csv"
        path.write_bytes(end.join([b"split,label,f_0", b"pretrain,0,1",
                                   b"train,0," + feature, b"val,0,1",
                                   b"test,0,1", b""]))
        with pytest.raises(ParseError) as info:
            datasets.load_csv(str(path))
        assert str(info.value) == f"{path} line 3: {message}"

    @pytest.mark.parametrize("column, fault", [(0, "unknown split"),
                                               (1, "bad label")])
    def test_long_fields_are_quoted_in_part(self, column, fault, tmp_path):
        """A field of 200,000 characters is quoted by its first 40 and its
        length, not whole."""
        path = tmp_path / "data.csv"
        fields = ["train", "0", "1"]
        fields[column] = "9" * 200_000
        path.write_text("split,label,f_0\npretrain,0,1\n"
                        + ",".join(fields) + "\n")
        with pytest.raises(ParseError) as info:
            datasets.load_csv(str(path))
        assert str(info.value) == (f"{path} line 3: {fault} "
                                   f"'{'9' * 40}'... (200000 characters)")

    def test_long_rows_of_short_fields_take_numpy(self, tmp_path):
        """The csv limit bounds fields, not lines, and numpy reads past it:
        a wide bundle loads without the diagnosis."""
        bundle = datasets.generate(small_spec(dim=16))
        path = str(tmp_path / "data.csv")
        datasets.save_csv(bundle, path)
        old = csv.field_size_limit(30)  # save_csv's fields are at most 24
        try:
            with mock.patch.object(datasets, "_diagnose", side_effect=(
                    AssertionError("the diagnosis ran"))):
                assert datasets.load_csv(path) == bundle
        finally:
            csv.field_size_limit(old)

    @settings(max_examples=150, deadline=None)
    @given(bundles(), CSV_EDITS, st.booleans())
    @example(SMALL, ("field", 0, 2, OVER_LIMIT), False)
    @example(SMALL, ("field", 0, 0, "pretrainXYZ"), True)  # U8 keeps pretrain
    @example(SMALL, ("field", 0, 0, "pretrain\0"), True)
    @example(SMALL, ("field", 0, 2, '"\n' + "\n" * 140_000 + '1"'), False)
    def test_same_bundle_or_error(self, bundle, edit, sidecar):
        """And never another ValueError, an OverflowError or a csv.Error."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            datasets.save_csv(bundle, path)
            if not sidecar:
                os.remove(datasets.sidecar_path(path))
            with open(path, newline="", encoding="utf-8") as fh:
                text = edited(fh.read(), edit)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            try:
                loaded = datasets.load_csv(path)
            except ParseError as e:
                at = rf"{re.escape(path)}(\.manifest\.json| line \d+)?: "
                assert re.match(at, str(e)), str(e)[:200]
            else:
                assert loaded == reference.read_csv(path)
