"""Config parsing, synthetic stack contracts, and the command-line interface."""

from __future__ import annotations

import datetime as dt
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from satbayes import classifiers, recursion
from satbayes.classifiers import IndexClassifier, SpectralIndexKind
from satbayes.cli import main
from satbayes.config import (
    CONFIG_KEYS,
    DEFAULT_LAMBDA,
    RETIRED_KEYS,
    ExperimentConfig,
    parse_config,
    parse_config_text,
    serialize_config,
)
from satbayes.core import LabelRaster
from satbayes.errors import ConfigError
from satbayes.evaluation import balanced_accuracy
from satbayes.experiment import config_digest, run_experiment
from satbayes.pipeline import (
    ReferenceRegion,
    read_label_raster,
    read_posterior_cube,
    write_label_raster,
    write_posterior_cube,
)
from satbayes.synth import SYNTH_KEYS, generate_synthetic, parse_synth_spec

from helpers import date_of


MINIMAL = """\
manifest = data/manifest.txt
classes = land, water
classifier = index
index = mndwi
thresholds = -1, 0.13, 1
epsilon = 0.05
seed = 3
test_dates = 2021-01-05, 2021-01-15
"""

FULL = """\
name = demo
manifest = data/manifest.txt
classes = land, water
classifier = gmm
epsilon = 0.02
lambda = 0.8
seed = 9
index = mndwi
thresholds = -1, 0.13, 1
train_dates = 2021-01-05
test_dates = 2021-01-15, 2021-01-25
feature_bands = green, swir1
gmm_components = 2
crop = 4 8 16 12
bias_region = 0 0 8 8
cloud_threshold = 0.4
exclude_dates = 2021-02-04
out = results
"""


def config_lines(**overrides: str) -> str:
    """MINIMAL with some 'key = value' lines replaced, added, or dropped."""
    table = {}
    for line in MINIMAL.splitlines():
        key, _, value = line.partition(" = ")
        table[key] = value
    for key, value in overrides.items():
        if value is None:
            table.pop(key, None)
        else:
            table[key] = value
    return "".join(f"{k} = {v}\n" for k, v in table.items() if v is not None)


# ============================================================
# Config parsing and validation
# ============================================================


class TestConfigParsing:
    def test_minimal_defaults(self):
        config = parse_config_text(MINIMAL)
        assert config.name == "experiment"
        assert config.classes == ("land", "water")
        assert config.lam == DEFAULT_LAMBDA
        assert config.test_dates == (dt.date(2021, 1, 5), dt.date(2021, 1, 15))

    def test_full_round_trip(self):
        first = parse_config_text(FULL)
        again = parse_config_text(serialize_config(first))
        assert again == first

    def test_minimal_round_trip(self):
        first = parse_config_text(MINIMAL)
        assert parse_config_text(serialize_config(first)) == first

    def test_lambda_key_maps_to_lam(self):
        config = parse_config_text(config_lines(**{"lambda": "0.25"}))
        assert config.lam == 0.25

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "seed = 4\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text(MINIMAL + "bogus = 1\n")

    @pytest.mark.parametrize("key", ["manifest", "classifier", "epsilon", "seed"])
    def test_missing_required_key(self, key):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config_text(config_lines(**{key: None}))

    @pytest.mark.parametrize("eps", ["0", "1", "-0.1", "1.5"])
    def test_epsilon_outside_open_interval(self, eps):
        with pytest.raises(ConfigError):
            parse_config_text(config_lines(epsilon=eps))

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "-0.5"])
    def test_lambda_must_be_finite_and_non_negative(self, lam):
        with pytest.raises(ConfigError, match=r"^lambda must be finite and >= 0, got "):
            parse_config_text(config_lines(**{"lambda": lam}))

    def test_lambda_whose_smoothed_sum_overflows(self):
        # 2 classes: 2 * (1 + 1e308) is inf, 2 * (1 + 1e300) is not
        with pytest.raises(ConfigError, match=r"^lambda 1e\+308 overflows the smoothed sum of 2 "):
            parse_config_text(config_lines(**{"lambda": "1e308"}))
        assert parse_config_text(config_lines(**{"lambda": "1e300"})).lam == 1e300

    def test_threshold_count_must_be_classes_plus_one(self):
        with pytest.raises(ConfigError):
            parse_config_text(config_lines(thresholds="-1, 0.1, 0.5, 1"))

    def test_trained_classifier_needs_train_dates(self):
        with pytest.raises(ConfigError, match="train_dates"):
            parse_config_text(config_lines(classifier="logistic"))

    @pytest.mark.parametrize("value", ["generative", "discriminative", "sideways", ""])
    def test_retired_mode_key_is_ignored_with_a_warning(self, value):
        with pytest.warns(UserWarning, match=r"^config key 'mode' has no effect$"):
            config = parse_config_text(config_lines(mode=value))
        assert config == parse_config_text(MINIMAL)

    @pytest.mark.parametrize("classifier", ["index", "gmm", "logistic", "external"])
    def test_retired_mode_key_is_never_serialized(self, classifier):
        text = config_lines(classifier=classifier, train_dates="2021-02-14")
        with pytest.warns(UserWarning, match="'mode' has no effect"):
            with_key = parse_config_text(text + "mode = generative\n")
        without = parse_config_text(text)
        assert serialize_config(with_key) == serialize_config(without)
        assert "mode" not in serialize_config(without)
        assert config_digest(with_key) == config_digest(without)

    def test_train_test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                config_lines(classifier="gmm", train_dates="2021-01-05")
            )

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(config_lines(classes="land", thresholds="-1, 1"))

    def test_bad_date_rejected(self):
        with pytest.raises(ConfigError, match="bad date"):
            parse_config_text(config_lines(test_dates="2021-13-40"))

    def test_crop_region_parsed(self):
        config = parse_config_text(MINIMAL + "crop = 2 3 10 12\n")
        assert (config.crop.x, config.crop.y) == (2, 3)
        assert (config.crop.width, config.crop.height) == (10, 12)

    def test_region_needs_four_integers(self):
        with pytest.raises(ConfigError, match="x y w h"):
            parse_config_text(MINIMAL + "crop = 2 3 10\n")

    def test_parse_config_sets_base_dir(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL)
        config = parse_config(path)
        assert config.base_dir == tmp_path
        assert config.resolved_manifest() == tmp_path / "data" / "manifest.txt"

    def test_direct_construction_validates_too(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                manifest="m.txt",
                classes=("a", "b"),
                classifier="index",
                index=SpectralIndexKind.MNDWI,
                thresholds=(-1.0, 0.13, 1.0),
                epsilon=0.0,
                seed=1,
                test_dates=(dt.date(2021, 1, 5),),
            )


class TestConfigText:
    """Exact parser messages and the exact serialized form."""

    def test_serialized_text_is_pinned(self):
        # the text feeds `config_sha256_16` in run.txt: it must not drift
        assert serialize_config(parse_config_text(FULL)) == (
            "name = demo\nmanifest = data/manifest.txt\nclasses = land, water\n"
            "classifier = gmm\nepsilon = 0.02\nlambda = 0.8\n"
            "seed = 9\nindex = mndwi\nthresholds = -1.0, 0.13, 1.0\n"
            "train_dates = 2021-01-05\ntest_dates = 2021-01-15, 2021-01-25\n"
            "feature_bands = green, swir1\ngmm_components = 2\ncrop = 4 8 16 12\n"
            "bias_region = 0 0 8 8\ncloud_threshold = 0.4\n"
            "exclude_dates = 2021-02-04\nout = results\n"
        )
        assert serialize_config(parse_config_text(MINIMAL)) == (
            "name = experiment\nmanifest = data/manifest.txt\n"
            "classes = land, water\nclassifier = index\n"
            "epsilon = 0.05\nlambda = 0.8\nseed = 3\nindex = mndwi\n"
            "thresholds = -1.0, 0.13, 1.0\ntest_dates = 2021-01-05, 2021-01-15\n"
            "gmm_components = 3\n"
        )

    def test_empty_feature_bands_round_trip(self):
        config = parse_config_text(MINIMAL + "feature_bands =\n")
        assert config.feature_bands == ()
        assert parse_config_text(serialize_config(config)) == config

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("bogus = 1", "<str>:9: unknown config key 'bogus'"),
            ("seed = 4", "<str>:9: duplicate key 'seed'"),
            ("index = ndsi", "<str>:9: duplicate key 'index'"),
            ("crop = 1 2 3", "<str>:9: region needs 'x y w h', got '1 2 3'"),
            ("crop = 1 2 x 4", "<str>:9: key 'crop': not an integer: 'x'"),
            ("bias_region = 0 0 8 y",
             "<str>:9: key 'bias_region': not an integer: 'y'"),
            ("gmm_components = two",
             "<str>:9: key 'gmm_components': not an integer: 'two'"),
            ("cloud_threshold = x",
             "<str>:9: key 'cloud_threshold': not a number: 'x'"),
            ("exclude_dates = 2021-02-30", "<str>:9: bad date '2021-02-30'"),
            ("no equals sign", "<str>:9: expected 'key = value', got 'no equals sign'"),
            ("= 3", "<str>:9: empty key"),
        ],
    )
    def test_line_error_messages(self, extra, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(MINIMAL + extra + "\n")
        assert str(info.value) == message

    def test_unknown_choice_names_the_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text(config_lines(index="ndsi"))
        assert str(info.value).endswith(": unknown index 'ndsi'")
        assert str(info.value).startswith("<str>:")

    def test_missing_keys_listed_in_order(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text(
                config_lines(manifest=None, seed=None, test_dates=None),
                source="exp.cfg",
            )
        assert str(info.value) == (
            "exp.cfg: missing required keys: ['manifest', 'seed', 'test_dates']"
        )

    @pytest.mark.parametrize("key", ["classes", "test_dates"])
    def test_missing_list_key(self, key):
        with pytest.raises(ConfigError, match=f"missing required keys: \\['{key}'\\]"):
            parse_config_text(config_lines(**{key: None}))


def test_readme_config_table_lists_every_config_key():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Experiment configs", 1)[1]
    rows = section.split("\n## ", 1)[0].splitlines()
    listed = [
        key
        for row in rows if row.startswith("| `")
        for key in re.findall(r"`(\w+)`", row.split("|")[1])
    ]
    assert sorted(listed) == sorted([*CONFIG_KEYS, *RETIRED_KEYS])


PRESET_DIR = Path(__file__).resolve().parent.parent / "configs"

# per preset: classes, index kind, thresholds, epsilon, lambda
PRESET_TABLE = {
    "oroville_1a": (("land", "water"), "mndwi", (-1.0, 0.13, 1.0), 0.001, 0.8),
    "oroville_1b": (("land", "water"), "mndwi", (-1.0, 0.13, 1.0), 0.02, 0.8),
    "charles_2class": (("land", "water"), "mndwi", (-1.0, 0.13, 1.0), 0.1, 0.8),
    "charles_3class": (
        ("water", "land", "vegetation"), "ndvi",
        (-1.0, -0.05, 0.35, 1.0), 0.05, 0.0,
    ),
    "amazon_deforestation": (
        ("land", "forest"), "ndwi", (-1.0, 0.65, 1.0), 0.03, 0.8,
    ),
}


class TestShippedPresets:
    def test_every_preset_is_listed(self):
        names = sorted(p.stem for p in PRESET_DIR.glob("*.cfg"))
        assert names == sorted(PRESET_TABLE)

    @pytest.mark.parametrize("preset", sorted(PRESET_TABLE))
    def test_preset_parameters(self, preset):
        config = parse_config(PRESET_DIR / f"{preset}.cfg")
        classes, kind, thresholds, epsilon, lam = PRESET_TABLE[preset]
        assert config.name == preset
        assert config.classes == classes
        assert config.classifier == "index"
        assert config.index.value == kind
        assert config.thresholds == thresholds
        assert config.epsilon == epsilon
        assert config.lam == lam

    @pytest.mark.parametrize("preset", sorted(PRESET_TABLE))
    def test_preset_round_trips(self, preset):
        config = parse_config(PRESET_DIR / f"{preset}.cfg")
        assert parse_config_text(serialize_config(config)) == config


# ============================================================
# Synthetic stack generator contracts
# ============================================================


SYNTH_BASE = """\
classes = land, water
width = 24
height = 16
frames = 5
start_date = 2021-01-05
cadence_days = 10
seed = 11
bands = green, swir1
stat = land green 0.12 0.04
stat = land swir1 0.28 0.04
stat = water green 0.30 0.04
stat = water swir1 0.06 0.04
"""


def write_spec(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "scene.txt"
    path.write_text(text)
    return path


def read_truths(data_dir: Path) -> list[np.ndarray]:
    paths = sorted((data_dir / "truth").glob("f*.lbl"))
    return [read_label_raster(p).labels for p in paths]


class TestSynthGenerator:
    def test_static_scene_truths_identical(self, tmp_path):
        spec = parse_synth_spec(write_spec(tmp_path, SYNTH_BASE))
        generate_synthetic(spec, tmp_path / "data")
        truths = read_truths(tmp_path / "data")
        assert len(truths) == 5
        for truth in truths[1:]:
            assert_array_equal(truth, truths[0])

    def test_change_event_flips_exactly_the_rectangle(self, tmp_path):
        spec = parse_synth_spec(
            write_spec(tmp_path, SYNTH_BASE + "change = 3 4 2 8 6 water\n")
        )
        generate_synthetic(spec, tmp_path / "data")
        truths = read_truths(tmp_path / "data")
        for truth in truths[1:3]:
            assert_array_equal(truth, truths[0])
        water = spec.classes.index("water")
        expected = truths[0].copy()
        expected[2:8, 4:12] = water
        for truth in truths[3:]:
            assert_array_equal(truth, expected)

    def test_same_spec_same_bytes(self, tmp_path):
        spec = parse_synth_spec(write_spec(tmp_path, SYNTH_BASE))
        generate_synthetic(spec, tmp_path / "a")
        generate_synthetic(spec, tmp_path / "b")
        files = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel

    def test_corruption_degrades_instantaneous_frame(self, tmp_path):
        spec = parse_synth_spec(
            write_spec(tmp_path, SYNTH_BASE + "corrupt = 2 0.4\n")
        )
        generate_synthetic(spec, tmp_path / "data")
        from satbayes.pipeline import load_stack, parse_manifest

        stack = load_stack(parse_manifest(tmp_path / "data" / "manifest.txt"))
        model = IndexClassifier.from_thresholds(
            (-1.0, 0.13, 1.0), SpectralIndexKind.MNDWI
        )
        scores = []
        for frame in stack.frames:
            post = model.frame_posterior(frame)
            pred = np.argmax(post, axis=0).reshape(frame.truth.labels.shape)
            scores.append(balanced_accuracy(pred, frame.truth))
        clean = [s for t, s in enumerate(scores) if t != 2]
        assert scores[2] < min(clean) - 0.05

    def test_corruption_leaves_truth_untouched(self, tmp_path):
        clean_spec = parse_synth_spec(write_spec(tmp_path, SYNTH_BASE))
        generate_synthetic(clean_spec, tmp_path / "clean")
        dirty_spec = parse_synth_spec(
            write_spec(tmp_path, SYNTH_BASE + "corrupt = 2 0.4\n")
        )
        generate_synthetic(dirty_spec, tmp_path / "dirty")
        for a, b in zip(read_truths(tmp_path / "clean"),
                        read_truths(tmp_path / "dirty")):
            assert_array_equal(a, b)
        plane = "bands/f002_green.f32"
        assert (tmp_path / "clean" / plane).read_bytes() != \
            (tmp_path / "dirty" / plane).read_bytes()

    def test_out_of_range_change_frame_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="out of range"):
            parse_synth_spec(
                write_spec(tmp_path, SYNTH_BASE + "change = 9 0 0 4 4 water\n")
            )

    def test_bad_corrupt_fraction_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_synth_spec(
                write_spec(tmp_path, SYNTH_BASE + "corrupt = 2 1.5\n")
            )


def spec_without(key: str) -> str:
    """SYNTH_BASE with every `key = ...` line dropped."""
    return "".join(
        line for line in SYNTH_BASE.splitlines(keepends=True)
        if line.partition("=")[0].strip() != key
    )


class TestSynthSpecParsing:
    """Exact messages of the synthetic-scene parser; the line is named."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("stat = land green 0.12", "stat needs 'class band mean std'"),
            ("change = 3 4 2 8 water", "change needs 'frame x y w h class'"),
            ("corrupt = 2", "corrupt needs 'frame fraction'"),
            ("cloud = 2 0.1 0.2", "cloud needs 'frame fraction'"),
            ("change = 3 4 2 8 6 forest", "unknown class 'forest'"),
            ("corrupt = 2 much", "key 'corrupt': not a number: 'much'"),
            ("cloud = two 0.1", "key 'cloud': not an integer: 'two'"),
            ("bogus = 1", "unknown synthetic-scene key 'bogus'"),
        ],
    )
    def test_line_error_messages(self, tmp_path, extra, message):
        path = write_spec(tmp_path, SYNTH_BASE + extra + "\n")
        with pytest.raises(ConfigError) as info:
            parse_synth_spec(path)
        assert str(info.value) == f"{path}:13: {message}"

    def test_bad_start_date(self, tmp_path):
        path = write_spec(
            tmp_path, SYNTH_BASE.replace("2021-01-05", "2021-01-32")
        )
        with pytest.raises(ConfigError) as info:
            parse_synth_spec(path)
        assert str(info.value) == f"{path}:5: bad date '2021-01-32'"

    @pytest.mark.parametrize(
        "key, field",
        [("classes", "classes"), ("width", "width"), ("height", "height"),
         ("frames", "num_frames"), ("start_date", "start_date"),
         ("cadence_days", "cadence_days"), ("seed", "seed"), ("bands", "bands")],
    )
    def test_missing_key(self, tmp_path, key, field):
        # the message names the key the spec writes, not the SynthSpec field
        assert SYNTH_KEYS[key].field == field
        path = write_spec(tmp_path, spec_without(key))
        with pytest.raises(ConfigError) as info:
            parse_synth_spec(path)
        assert str(info.value) == f"{path}: missing keys: [{key!r}]"

    def test_missing_keys_listed_in_order(self, tmp_path):
        path = write_spec(tmp_path, spec_without("seed").replace("width", "# width"))
        with pytest.raises(ConfigError) as info:
            parse_synth_spec(path)
        assert str(info.value) == f"{path}: missing keys: ['width', 'seed']"

    def test_single_valued_key_given_twice(self, tmp_path):
        path = write_spec(tmp_path, SYNTH_BASE + "width = 32\n")
        with pytest.raises(ConfigError) as info:
            parse_synth_spec(path)
        assert str(info.value) == f"{path}:13: duplicate key 'width'"

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("stat = land green 0.2 0.04", "stat for class/band land/green already given"),
            ("corrupt = 2 0.25\ncorrupt = 2 0.5", "corrupt for frame 2 already given"),
            ("cloud = 1 0.5\ncloud = 1 0.7", "cloud for frame 1 already given"),
        ],
        ids=["stat", "corrupt", "cloud"],
    )
    def test_repeated_line_is_named(self, tmp_path, extra, message):
        # a repeat would silently replace the earlier line's value
        path = write_spec(tmp_path, SYNTH_BASE + extra + "\n")
        with pytest.raises(ConfigError) as info:
            parse_synth_spec(path)
        assert str(info.value) == f"{path}:{13 + extra.count(chr(10))}: {message}"

    def test_change_may_precede_classes(self, tmp_path):
        spec = parse_synth_spec(
            write_spec(tmp_path, "change = 3 4 2 8 6 land\n" + SYNTH_BASE)
        )
        assert spec.changes[0].new_class == spec.classes.index("land")

    def test_event_lines_accumulate(self, tmp_path):
        spec = parse_synth_spec(write_spec(
            tmp_path,
            SYNTH_BASE
            + "change = 1 0 0 4 4 water\nchange = 3 4 2 8 6 land\n"
            + "corrupt = 2 0.25\ncorrupt = 4 0.5\ncloud = 0 0.1\ncloud = 3 0.9\n",
        ))
        assert [(ev.frame, ev.new_class) for ev in spec.changes] == [(1, 1), (3, 0)]
        assert spec.changes[1].region == ReferenceRegion(x=4, y=2, width=8, height=6)
        assert [(ev.frame, ev.fraction) for ev in spec.corruptions] == [
            (2, 0.25), (4, 0.5)
        ]
        assert spec.clouds == ((0, 0.1), (3, 0.9))
        assert len(spec.class_stats) == 4
        assert spec.class_stats[0] == ("land", "green", 0.12, 0.04)


# ============================================================
# Command-line interface
# ============================================================


CLI_SPEC = """\
classes = land, water
width = 20
height = 20
frames = 6
start_date = 2021-01-05
cadence_days = 10
seed = 17
bands = green, swir1
stat = land green 0.12 0.05
stat = land swir1 0.28 0.05
stat = water green 0.30 0.05
stat = water swir1 0.06 0.05
corrupt = 3 0.3
"""

CLI_DATES = ", ".join(date_of(t).isoformat() for t in range(6))

CLI_CONFIG = f"""\
name = cli-demo
manifest = data/manifest.txt
classes = land, water
classifier = index
index = mndwi
thresholds = -1, 0.13, 1
epsilon = 0.05
lambda = 0.8
seed = 3
test_dates = {CLI_DATES}
"""


@pytest.fixture(scope="module")
def cli_area(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "scene.txt"
    spec_path.write_text(CLI_SPEC)
    assert main(["synth", "--spec", str(spec_path), "--out", str(root / "data")]) == 0
    config_path = root / "exp.cfg"
    config_path.write_text(CLI_CONFIG)
    zero_lam = root / "exp_lam0.cfg"
    zero_lam.write_text(CLI_CONFIG.replace("lambda = 0.8", "lambda = 0"))
    return root


def tree_bytes(root: Path) -> dict[Path, bytes]:
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestCliWorkflow:
    def test_synth_wrote_manifest(self, cli_area):
        assert (cli_area / "data" / "manifest.txt").is_file()
        assert len(list((cli_area / "data" / "bands").glob("*.f32"))) == 12
        assert len(list((cli_area / "data" / "truth").glob("*.lbl"))) == 6

    def test_ingest_reports_stack(self, cli_area, capsys, tmp_path):
        code = main([
            "ingest",
            "--manifest", str(cli_area / "data" / "manifest.txt"),
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "grid = 20x20" in out
        assert "frames = 6" in out
        assert "truth_frames = 6" in out
        assert "status = ok" in out
        assert (tmp_path / "ingest_report.txt").read_text() == out

    def test_run_writes_all_artifacts(self, cli_area, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(cli_area / "exp.cfg"),
                     "--out", str(out)])
        assert code == 0
        labels = sorted(p.name for p in (out / "labels").glob("*.lbl"))
        assert len(labels) == 12
        assert f"recursive_{date_of(0).isoformat()}.lbl" in labels
        assert f"instantaneous_{date_of(5).isoformat()}.lbl" in labels
        assert (out / "posteriors" / "recursive.cube").is_file()
        assert (out / "posteriors" / "instantaneous.cube").is_file()
        assert (out / "models" / "index.model").is_file()
        assert (out / "metrics" / "accuracy.csv").is_file()
        assert len(list((out / "maps").glob("error_*.lbl"))) == 12
        run_text = (out / "run.txt").read_text()
        assert "classifier = index" in run_text
        assert "test_frames = 6" in run_text
        assert "pixels = 400" in run_text
        assert str(out) not in run_text

    def test_retired_mode_key_warns_once_and_changes_nothing(
        self, cli_area, tmp_path, capsys
    ):
        text = CLI_CONFIG.replace("data/manifest.txt", str(cli_area / "data" / "manifest.txt"))
        config, retired = tmp_path / "exp.cfg", tmp_path / "exp_mode.cfg"
        config.write_text(text)
        retired.write_text(text + "mode = generative\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(retired), "--out", str(tmp_path / "b")]) == 0
        err = capsys.readouterr().err
        assert err == "warning: config key 'mode' has no effect\n"
        assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "a")

    def test_rerun_is_bit_identical(self, cli_area, tmp_path):
        config = str(cli_area / "exp.cfg")
        assert main(["run", "--config", config, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", config, "--out", str(tmp_path / "b")]) == 0
        first = tree_bytes(tmp_path / "a")
        second = tree_bytes(tmp_path / "b")
        assert set(first) == set(second)
        for rel, blob in first.items():
            assert second[rel] == blob, rel

    def test_half_epsilon_collapses_to_instantaneous(self, cli_area, tmp_path):
        # two-class discriminative recursion with epsilon 0.5 carries no
        # temporal information; decisions match the instantaneous run and,
        # without regularization, so do the posteriors
        out = tmp_path / "half"
        code = main(["run", "--config", str(cli_area / "exp_lam0.cfg"),
                     "--out", str(out), "--epsilon", "0.5"])
        assert code == 0
        for t in range(6):
            tag = date_of(t).isoformat()
            rec = (out / "labels" / f"recursive_{tag}.lbl").read_bytes()
            inst = (out / "labels" / f"instantaneous_{tag}.lbl").read_bytes()
            assert rec == inst
        rec_cube = read_posterior_cube(out / "posteriors" / "recursive.cube")
        inst_cube = read_posterior_cube(out / "posteriors" / "instantaneous.cube")
        np.testing.assert_allclose(rec_cube, inst_cube, atol=1e-12)

    def test_epsilon_override_changes_artifacts(self, cli_area, tmp_path):
        config = str(cli_area / "exp.cfg")
        assert main(["run", "--config", config, "--out", str(tmp_path / "a"),
                     "--epsilon", "0.05"]) == 0
        assert main(["run", "--config", config, "--out", str(tmp_path / "b"),
                     "--epsilon", "0.4"]) == 0
        a = (tmp_path / "a" / "posteriors" / "recursive.cube").read_bytes()
        b = (tmp_path / "b" / "posteriors" / "recursive.cube").read_bytes()
        assert a != b

    def test_sweep_writes_tables(self, cli_area, tmp_path, capsys):
        code = main([
            "sweep", "--config", str(cli_area / "exp.cfg"),
            "--eps", "0.01,0.1,0.5", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "best_epsilon" in out
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "epsilon,algorithm,balanced_accuracy"
        assert len(sweep) == 1 + 3  # header plus one row per grid value
        assert all(",index," in row for row in sweep[1:])
        assert (tmp_path / "sweep_summary.txt").is_file()

    def test_bench_writes_tables(self, cli_area, tmp_path, capsys):
        code = main([
            "bench", "--config", str(cli_area / "exp.cfg"),
            "--reps", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "recursion=" in capsys.readouterr().out
        bench = (tmp_path / "bench.csv").read_text().splitlines()
        assert bench[0] == "metric,index"
        assert bench[1].startswith("recursion_seconds,")
        assert bench[2].startswith("baseline_seconds,")
        steps = (tmp_path / "bench_steps.csv").read_text().splitlines()
        assert steps[0] == "algorithm,step,seconds"
        assert len(steps) == 1 + 6

    def test_train_saves_model(self, cli_area, tmp_path, capsys):
        code = main(["train", "--config", str(cli_area / "exp.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert "saved" in capsys.readouterr().out
        assert (tmp_path / "models" / "index.model").is_file()

    def test_eval_scores_prediction_directory(self, cli_area, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(cli_area / "exp.cfg"),
                     "--out", str(run_out)]) == 0
        pred = tmp_path / "pred"
        truth = tmp_path / "truth"
        pred.mkdir()
        truth.mkdir()
        for t in range(6):
            tag = date_of(t).isoformat()
            name = f"recursive_{tag}.lbl"
            (pred / name).write_bytes(
                (run_out / "labels" / name).read_bytes()
            )
            (truth / name).write_bytes(
                (cli_area / "data" / "truth" / f"f{t:03d}.lbl").read_bytes()
            )
        code = main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(tmp_path / "scores")])
        assert code == 0
        assert "mean balanced accuracy over 6 rasters" in capsys.readouterr().out
        lines = (tmp_path / "scores" / "eval.csv").read_text().splitlines()
        assert lines[0] == "raster,balanced_accuracy"
        assert len(lines) == 7
        assert len(list((tmp_path / "scores").glob("error_*.lbl"))) == 6

    def test_eval_missing_truth_raster(self, cli_area, tmp_path, capsys):
        pred = tmp_path / "pred"
        truth = tmp_path / "truth"
        pred.mkdir()
        truth.mkdir()
        (pred / "a.lbl").write_bytes(
            (cli_area / "data" / "truth" / "f000.lbl").read_bytes()
        )
        code = main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(tmp_path / "scores")])
        capsys.readouterr()
        assert code == 2


class TestCliExitCodes:
    def test_usage_error_is_config_exit(self, capsys):
        assert main(["run"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_config_file_is_data_exit(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
        capsys.readouterr()

    def test_missing_spec_file_is_data_exit(self, tmp_path, capsys):
        assert main(["synth", "--spec", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "d")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "stat", ["land green 1e39 0.05", "land green -1e39 0.05", "water swir1 0.06 1e300"]
    )
    def test_overflowing_synth_stat_is_config_exit(self, tmp_path, capsys, stat):
        name, band = stat.split()[:2]
        text = re.sub(rf"(?m)^stat = {name} {band} .*$", f"stat = {stat}", SYNTH_BASE)
        assert f"stat = {stat}\n" in text
        spec = write_spec(tmp_path, text)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: stat for {name}/{band}: draws overflow float32\n"
        # water swir1 overflows after planes have been written: none is left
        assert not [p for p in (tmp_path / "d").rglob("*") if p.is_file()]

    def test_repeated_synth_cloud_is_config_exit(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SYNTH_BASE + "cloud = 1 0.5\ncloud = 1 0.7\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == f"error: {spec}:14: cloud for frame 1 already given\n"
        assert not (tmp_path / "d").exists()

    def test_zero_epsilon_rejected_before_any_data_access(self, tmp_path, capsys):
        # manifest path is bogus on purpose: the config check must fire first
        config = tmp_path / "bad.cfg"
        config.write_text(config_lines(epsilon="0", manifest="missing/nowhere.txt"))
        assert main(["run", "--config", str(config)]) == 1
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_fails_before_any_work(self, cli_area, tmp_path, capsys, lam):
        config = tmp_path / "lam.cfg"
        config.write_text(
            CLI_CONFIG.replace("data/manifest.txt", str(cli_area / "data" / "manifest.txt"))
            .replace("lambda = 0.8", f"lambda = {lam}")
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: lambda must be finite and >= 0, got {lam}\n"
        assert not out.exists()

    def test_overflowing_lambda_fails_before_any_work(self, cli_area, tmp_path, capsys):
        config = tmp_path / "lam.cfg"
        config.write_text(
            CLI_CONFIG.replace("data/manifest.txt", str(cli_area / "data" / "manifest.txt"))
            .replace("lambda = 0.8", "lambda = 1e308")
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lambda 1e+308 overflows")
        assert "warning:" not in err
        assert not out.exists()

    def test_run_epsilon_override_validated(self, cli_area, capsys):
        assert main(["run", "--config", str(cli_area / "exp.cfg"),
                     "--out", "unused", "--epsilon", "1.5"]) == 1
        capsys.readouterr()

    def test_bad_eps_list(self, cli_area, tmp_path, capsys):
        assert main(["sweep", "--config", str(cli_area / "exp.cfg"),
                     "--eps", "0.1,zebra", "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_too_few_bench_reps(self, cli_area, tmp_path, capsys):
        assert main(["bench", "--config", str(cli_area / "exp.cfg"),
                     "--reps", "1", "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--eps", "0.5,0.1"], "epsilon grid must strictly increase"),
            (["sweep", "--eps", "0.1,1.5"], "epsilon values must lie in (0, 1)"),
            (["bench", "--reps", "1"], "repetitions must be >= 3, got 1"),
        ],
    )
    def test_bad_grid_or_reps_fail_before_any_work(
        self, tmp_path, capsys, argv, message
    ):
        # the manifest does not exist: the argument check must fire first
        out = tmp_path / "never"
        config = write_bad_config(tmp_path)
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--eps", "0.1,0.5"], ["bench", "--reps", "3"]],
        ids=["sweep", "bench"],
    )
    def test_unknown_algos_kind_fails_before_any_work(self, tmp_path, capsys, argv):
        # the manifest does not exist: the kind check must fire first
        out = tmp_path / "never"
        config = write_bad_config(tmp_path)
        assert main([*argv, "--config", str(config), "--algos", "gmm,forest",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'forest'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--eps", "0.1,0.5"], ["bench", "--reps", "3"]],
        ids=["sweep", "bench"],
    )
    @pytest.mark.parametrize("algos", [",", " , ", ""])
    def test_empty_algos_list_fails_before_any_work(self, tmp_path, capsys, argv, algos):
        # the manifest does not exist: the list check must fire first
        out = tmp_path / "never"
        config = write_bad_config(tmp_path)
        assert main([*argv, "--config", str(config), "--algos", algos,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --algos") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(("command", "count"), [("run", 256), ("sweep", 257)])
    def test_more_than_255_classes_is_config_exit(
        self, cli_area, tmp_path, capsys, command, count
    ):
        # label rasters and cube headers hold the class count in one byte
        classes = ", ".join(f"c{i}" for i in range(count))
        thresholds = ", ".join(repr(float(t)) for t in np.linspace(-1.0, 1.0, count + 1))
        config = tmp_path / "many.cfg"
        config.write_text(
            CLI_CONFIG.replace("data/manifest.txt", str(cli_area / "data" / "manifest.txt"))
            .replace("classes = land, water", f"classes = {classes}")
            .replace("thresholds = -1, 0.13, 1", f"thresholds = {thresholds}")
        )
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out)]
        assert main(argv + (["--eps", "0.05,0.3"] if command == "sweep" else [])) == 1
        assert capsys.readouterr().err == (
            f"error: at most 255 classes are supported, got {count}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize("case", ["long name", "256 bands"])
    def test_band_that_a_model_file_cannot_hold_is_config_exit(
        self, cli_area, tmp_path, capsys, case, command
    ):
        # model files hold the band count and each name's UTF-8 length in
        # one byte; the extra bands reuse the green planes
        data = tmp_path / "data"
        shutil.copytree(cli_area / "data", data)
        extra = ["\u00e9" * 128] if case == "long name" else [f"b{i}" for i in range(254)]
        lines = []
        for line in (data / "manifest.txt").read_text().splitlines():
            if line.startswith("bands = "):
                line += "".join(f", {band}:10.0" for band in extra)
            elif line.startswith("frame = "):
                green = next(t[6:] for t in line.split() if t.startswith("green="))
                line += "".join(f" {band}={green}" for band in extra)
            lines.append(line)
        manifest = data / "manifest.txt"
        manifest.write_text("\n".join(lines) + "\n")
        test_dates = ", ".join(date_of(t).isoformat() for t in range(1, 6))
        config = tmp_path / "logistic.cfg"
        config.write_text(
            CLI_CONFIG.replace("classifier = index", "classifier = logistic")
            .replace(CLI_DATES, test_dates)
            + f"train_dates = {date_of(0).isoformat()}\n"
            + f"feature_bands = swir1, {extra[-1]}\n"
        )
        argv = {
            "ingest": ["ingest", "--manifest", str(manifest)],
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "out")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        expect = (
            f"band name {extra[0]!r} is longer than 255 UTF-8 bytes"
            if case == "long name" else "at most 255 bands are supported, got 256"
        )
        assert err == f"error: {manifest}: {expect}\n"

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_band_plane_is_data_exit(self, cli_area, tmp_path, capsys, value):
        shutil.copytree(cli_area / "data", tmp_path / "data")
        shutil.copy(cli_area / "exp.cfg", tmp_path / "exp.cfg")
        plane = sorted((tmp_path / "data" / "bands").glob("*.f32"))[4]
        values = np.fromfile(plane, dtype="<f4")
        values[37] = value
        values.tofile(plane)
        date = next(
            line.split()[2] for line in
            (tmp_path / "data" / "manifest.txt").read_text().splitlines()
            if plane.name in line
        )
        manifest = tmp_path / "data" / "manifest.txt"
        for argv in (["ingest", "--manifest", str(manifest)],
                     ["run", "--config", str(tmp_path / "exp.cfg"),
                      "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert plane.name in err and date in err and "non-finite" in err

    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize("value", ["1.5", "-0.25", "nan"])
    def test_manifest_cloud_outside_unit_interval_is_config_exit(
        self, cli_area, tmp_path, capsys, value, command
    ):
        shutil.copytree(cli_area / "data", tmp_path / "data")
        shutil.copy(cli_area / "exp.cfg", tmp_path / "exp.cfg")
        manifest = tmp_path / "data" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("frame"))
        date = lines[lineno - 1].split()[2]
        lines[lineno - 1] = lines[lineno - 1].replace(date, f"{date} cloud={value}")
        manifest.write_text("\n".join(lines) + "\n")
        argv = {
            "ingest": ["ingest", "--manifest", str(manifest)],
            "run": ["run", "--config", str(tmp_path / "exp.cfg"),
                    "--out", str(tmp_path / "out")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{manifest}:{lineno}: key 'cloud'" in err and value in err
        assert "Traceback" not in err

    def test_singular_covariance_is_numerical_exit(self, cli_area, tmp_path, capsys):
        # a nir band that doubles green is collinear with it; at a manifest
        # scale of 1e9 the covariance jitter is lost and the class
        # covariance is singular
        data = tmp_path / "data"
        shutil.copytree(cli_area / "data", data)
        lines = []
        for line in (data / "manifest.txt").read_text().splitlines():
            if line.startswith("scale = "):
                line = "scale = 1e9"
            elif line.startswith("bands = "):
                line += ", nir:10.0"
            elif line.startswith("frame = "):
                green = next(t[6:] for t in line.split() if t.startswith("green="))
                nir = green.replace("_green", "_nir")
                (2 * np.fromfile(data / green, dtype="<f4")).tofile(data / nir)
                line += f" nir={nir}"
            lines.append(line)
        (data / "manifest.txt").write_text("\n".join(lines) + "\n")
        test_dates = ", ".join(date_of(t).isoformat() for t in range(1, 6))
        config = tmp_path / "gmm.cfg"
        config.write_text(
            CLI_CONFIG.replace("classifier = index", "classifier = gmm")
            .replace(CLI_DATES, test_dates)
            + f"train_dates = {date_of(0).isoformat()}\nfeature_bands = green, nir\n"
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert re.match(r"error: class [01]: mixture covariance is not positive definite", err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("components", [1, 3])
    def test_overflowing_sample_distances_are_numerical_exit(
        self, cli_area, tmp_path, capsys, components
    ):
        # at a manifest scale of 1e160 every band value is finite, but the
        # squared distances that k-means++ seeding and the covariances sum
        # overflow float64
        data = tmp_path / "data"
        shutil.copytree(cli_area / "data", data)
        manifest = data / "manifest.txt"
        manifest.write_text(
            re.sub(r"(?m)^scale = .*$", "scale = 1e160", manifest.read_text())
        )
        test_dates = ", ".join(date_of(t).isoformat() for t in range(1, 6))
        config = tmp_path / "gmm.cfg"
        config.write_text(
            CLI_CONFIG.replace("classifier = index", "classifier = gmm")
            .replace(CLI_DATES, test_dates)
            + f"train_dates = {date_of(0).isoformat()}\nfeature_bands = green, swir1\n"
            + f"gmm_components = {components}\n"
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error: class 0: squared sample distances overflow float64\n"
        )

    def test_overflowing_standardization_is_numerical_exit(
        self, cli_area, tmp_path, capsys
    ):
        # at a manifest scale of 1e160 every band value is finite, but the
        # squared deviations behind the logistic fit's per-band standard
        # deviations overflow float64
        data = tmp_path / "data"
        shutil.copytree(cli_area / "data", data)
        manifest = data / "manifest.txt"
        manifest.write_text(
            re.sub(r"(?m)^scale = .*$", "scale = 1e160", manifest.read_text())
        )
        test_dates = ", ".join(date_of(t).isoformat() for t in range(1, 6))
        config = tmp_path / "logistic.cfg"
        config.write_text(
            CLI_CONFIG.replace("classifier = index", "classifier = logistic")
            .replace(CLI_DATES, test_dates)
            + f"train_dates = {date_of(0).isoformat()}\nfeature_bands = green, swir1\n"
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error: band(s) green, swir1: standard deviation overflows float64\n"
        )

    def test_band_overflowing_its_scale_is_data_exit(self, cli_area, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(cli_area / "data", data)
        plane = sorted((data / "bands").glob("*.f32"))[2]
        values = np.fromfile(plane, dtype="<f4")
        values[11] = 3.0  # 3e308 overflows float64
        values.tofile(plane)
        manifest = data / "manifest.txt"
        manifest.write_text(
            re.sub(r"(?m)^scale = .*$", "scale = 1e308", manifest.read_text())
        )
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert plane.name in err and "non-finite" in err
        assert "Traceback" not in err

    def test_overflowing_bias_region_mean_is_data_exit(self, cli_area, tmp_path, capsys):
        # every value is finite at this scale, but a 16x16 region sums past
        # the float64 maximum, so the region mean and the shift are not
        data = tmp_path / "data"
        shutil.copytree(cli_area / "data", data)
        manifest = data / "manifest.txt"
        manifest.write_text(
            re.sub(r"(?m)^scale = .*$", "scale = 1e307", manifest.read_text())
        )
        config = tmp_path / "bias.cfg"
        config.write_text(CLI_CONFIG + "bias_region = 0 0 16 16\n")
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert date_of(0).isoformat() in err and "non-finite" in err
        assert "Traceback" not in err

    def test_warnings_print_as_one_line_each(self, cli_area, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(classifiers, "EM_MAX_ITER", 1)
        test_dates = ", ".join(date_of(t).isoformat() for t in range(1, 6))
        config = tmp_path / "gmm.cfg"
        config.write_text(
            CLI_CONFIG.replace("data/manifest.txt", str(cli_area / "data" / "manifest.txt"))
            .replace("classifier = index", "classifier = gmm")
            .replace(CLI_DATES, test_dates)
            + f"train_dates = {date_of(0).isoformat()}\nfeature_bands = green, swir1\n"
        )
        shown = warnings.showwarning
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert warnings.showwarning is shown  # restored for library callers
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for k, line in enumerate(err):
            assert re.fullmatch(
                rf"warning: class {k}: EM stopped at the 1-iteration limit before "
                r"converging; final mean log-likelihood \S+",
                line,
            )

    def test_eval_empty_prediction_dir(self, tmp_path, capsys):
        (tmp_path / "pred").mkdir()
        (tmp_path / "truth").mkdir()
        assert main(["eval", "--pred", str(tmp_path / "pred"),
                     "--truth", str(tmp_path / "truth"),
                     "--out", str(tmp_path / "s")]) == 2
        capsys.readouterr()


def assert_data_exit(argv: list[str], path: Path, capsys) -> str:
    """`argv` exits 2 with one `error:` line naming `path`, no traceback."""
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err
    assert "Traceback" not in err
    return err


def unwritable(tmp_path: Path) -> Path:
    """A directory path below a regular file: any write fails, even as root."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    return blocker / "out"


def write_bad_config(tmp_path: Path) -> Path:
    """Copy of the CLI config whose manifest does not exist."""
    config = tmp_path / "missing_manifest.cfg"
    config.write_text(CLI_CONFIG.replace("data/manifest.txt", "nowhere/manifest.txt"))
    return config


class TestCliFileBoundary:
    """OS and decoding failures on satbayes files are data errors (exit 2)."""

    @staticmethod
    def writer_argvs(cli_area: Path, out: Path) -> dict[str, list]:
        cfg = cli_area / "exp.cfg"
        truth = cli_area / "data" / "truth"
        return {
            "run": ["run", "--config", cfg, "--out", out],
            "sweep": ["sweep", "--config", cfg, "--eps", "0.05,0.3", "--out", out],
            "bench": ["bench", "--config", cfg, "--reps", "3", "--out", out],
            "train": ["train", "--config", cfg, "--out", out],
            "eval": ["eval", "--pred", truth, "--truth", truth, "--out", out],
            "synth": ["synth", "--spec", cli_area / "scene.txt", "--out", out],
            "ingest": ["ingest", "--manifest", cli_area / "data" / "manifest.txt",
                       "--out", out],
        }

    @pytest.mark.parametrize(
        "command", ["run", "sweep", "bench", "train", "eval", "synth", "ingest"]
    )
    def test_unwritable_out_is_data_exit(self, cli_area, tmp_path, capsys, command):
        out = unwritable(tmp_path)
        assert_data_exit(self.writer_argvs(cli_area, out)[command], out, capsys)

    @pytest.mark.parametrize("command", ["run", "sweep", "bench", "train"])
    def test_unwritable_out_fails_before_the_stack_is_loaded(
        self, cli_area, tmp_path, capsys, command
    ):
        out = unwritable(tmp_path)
        argv = self.writer_argvs(cli_area, out)[command]
        argv[argv.index("--config") + 1] = write_bad_config(tmp_path)
        err = assert_data_exit(argv, out, capsys)
        assert "nowhere" not in err

    @pytest.mark.parametrize(
        "argv", [["run", "--epsilon", "1.5"], ["sweep", "--eps", "0.1,zebra"]]
    )
    def test_bad_arguments_create_no_output(self, cli_area, tmp_path, capsys, argv):
        out = tmp_path / "never"
        config = cli_area / "exp.cfg"
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 1
        capsys.readouterr()
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--manifest", "--spec"])
    @pytest.mark.parametrize("kind", ["directory", "invalid-utf8"])
    def test_unreadable_text_input_is_data_exit(self, tmp_path, capsys, flag, kind):
        src = tmp_path / "input.txt"
        if kind == "directory":
            src.mkdir()
        else:
            src.write_bytes(b"name = \xff\xfe\x80 broken\n")
        argv = {
            "--config": ["run", "--config", src, "--out", tmp_path / "o"],
            "--manifest": ["ingest", "--manifest", src],
            "--spec": ["synth", "--spec", src, "--out", tmp_path / "o"],
        }[flag]
        assert_data_exit(argv, src, capsys)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.25])
    def test_bad_external_posterior_is_data_exit(self, cli_area, tmp_path, capsys, value):
        config = write_external_area(cli_area, tmp_path, [1], value)
        bad = tmp_path / "data" / "post" / f"{date_of(3).isoformat()}.cube"
        err = assert_data_exit(
            ["run", "--config", config, "--out", tmp_path / "out"], bad, capsys
        )
        assert date_of(3).isoformat() in err
        assert not (tmp_path / "out" / "labels").exists()

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_truth_raster_of_another_grid_is_data_exit(self, cli_area, tmp_path, capsys, command):
        shutil.copytree(cli_area / "data", tmp_path / "data")
        bad = tmp_path / "data" / "truth" / "f003.lbl"
        write_label_raster(bad, LabelRaster(np.zeros((4, 4), dtype=np.uint8), 2))
        (tmp_path / "exp.cfg").write_text(CLI_CONFIG)
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--config", tmp_path / "exp.cfg", "--out", out],
            "ingest": ["ingest", "--manifest", tmp_path / "data" / "manifest.txt"],
        }[command]
        err = assert_data_exit(argv, bad, capsys)
        assert f"truth raster on {date_of(3).isoformat()} is 4x4, not the 20x20 grid" in err
        assert [p for p in out.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_posterior_of_another_grid_is_data_exit(self, cli_area, tmp_path, capsys, command):
        config = write_external_area(cli_area, tmp_path, [1], 0.5)
        bad = tmp_path / "data" / "post" / f"{date_of(3).isoformat()}.cube"
        write_posterior_cube(bad, np.full((1, 2, 8, 8), 0.5))
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--config", config, "--out", out],
            "ingest": ["ingest", "--manifest", tmp_path / "data" / "manifest.txt"],
        }[command]
        err = assert_data_exit(argv, bad, capsys)
        message = "has shape (1, 2, 8, 8), not one date of the 20x20 grid"
        assert f"posterior on {date_of(3).isoformat()} {message}" in err
        assert [p for p in out.rglob("*") if p.is_file()] == []


def write_external_area(
    cli_area: Path, tmp_path: Path, classes, value, t: int = 3, pixel=(4, 7)
) -> Path:
    """External-classifier copy of the CLI scene; returns its config.

    Every date's posterior cube holds 0.5, except that ``pixel`` of
    ``date_of(t)`` holds ``value`` in the listed ``classes``.
    """
    data = tmp_path / "data"
    shutil.copytree(cli_area / "data", data)
    (data / "post").mkdir()
    lines = []
    for line in (data / "manifest.txt").read_text().splitlines():
        if line.startswith("frame = "):
            date = line.split()[2]
            cube = np.full((1, 2, 20, 20), 0.5)
            if date == date_of(t).isoformat():
                cube[(0, classes, *pixel)] = value
            write_posterior_cube(data / "post" / f"{date}.cube", cube)
            line += f" posterior=post/{date}.cube"
        lines.append(line)
    (data / "manifest.txt").write_text("\n".join(lines) + "\n")
    config = tmp_path / "external.cfg"
    config.write_text(CLI_CONFIG.replace("classifier = index", "classifier = external"))
    return config


class TestRunStreamsPosteriors:
    """`run` writes posterior planes as it goes and holds no posterior cube."""

    def test_degenerate_model_output_names_its_date_and_leaves_no_file(
        self, cli_area, tmp_path, capsys
    ):
        # pixel (4, 7) of 2021-02-04 is all zero: no class information
        assert date_of(3) == dt.date(2021, 2, 4)
        config = write_external_area(cli_area, tmp_path, [0, 1], 0.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 2021-02-04: ")
        assert "all-zero likelihood vector" in err
        assert "Traceback" not in err
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_external_cube_with_an_extra_class_fails_the_step_shape_check(
        self, cli_area, tmp_path, capsys
    ):
        # the engine passes the cube on as it is; the step alone checks its shape
        config = write_external_area(cli_area, tmp_path, [1], 0.5)
        cube = tmp_path / "data" / "post" / f"{date_of(3).isoformat()}.cube"
        write_posterior_cube(cube, np.full((1, 3, 20, 20), 1.0 / 3.0))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "error: 2021-02-04: model returned shape (3, 400), expected (2, 400)"
        ]
        assert "Traceback" not in err
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_peak_memory_stays_below_one_cube(self, tmp_path):
        # K = 5 classes from 2 bands: each float64 posterior cube is 2.5x
        # the float64 stack, so holding either cube breaks the bound
        frames, side, k, bands = 60, 48, 5, 2
        names = [f"c{c}" for c in range(k)]
        stats = "".join(
            f"stat = {name} green {0.1 + 0.05 * c} 0.05\n"
            f"stat = {name} swir1 {0.3 - 0.05 * c} 0.05\n"
            for c, name in enumerate(names)
        )
        spec = write_spec(tmp_path, (
            f"classes = {', '.join(names)}\nwidth = {side}\nheight = {side}\n"
            f"frames = {frames}\nstart_date = 2021-01-05\ncadence_days = 10\n"
            f"seed = 4\nbands = green, swir1\n{stats}"
        ))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        dates = ", ".join(date_of(t).isoformat() for t in range(frames))
        config_path = tmp_path / "k5.cfg"
        config_path.write_text(
            "manifest = data/manifest.txt\n"
            f"classes = {', '.join(names)}\n"
            "classifier = index\nindex = mndwi\n"
            "thresholds = -1, -0.5, -0.2, 0.1, 0.4, 1\n"
            f"epsilon = 0.05\nseed = 3\ntest_dates = {dates}\n"
        )
        config = parse_config(config_path)
        pixels = side * side
        stack_bytes = frames * bands * pixels * 8
        cube_bytes = frames * k * pixels * 8
        tracemalloc.start()
        try:
            run_experiment(config, out_dir=tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes + cube_bytes / 2
        cube = read_posterior_cube(tmp_path / "out" / "posteriors" / "recursive.cube")
        assert cube.shape == (frames, k, side, side)


class TestStagedRunTree:
    """`run` writes under ``--out/.partial`` and moves its files into
    ``--out`` only when it succeeds."""

    def test_failed_run_leaves_an_earlier_tree_as_it_was(self, cli_area, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cli_area / "exp.cfg"), "--out", str(out)]) == 0
        before = tree_bytes(out)
        assert Path("posteriors", "recursive.cube") in before
        config = write_external_area(cli_area, tmp_path, [0, 1], 0.0)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        assert "all-zero likelihood vector" in capsys.readouterr().err
        assert tree_bytes(out) == before
        assert not (out / ".partial").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_late_tile_fails_the_run_and_keeps_the_tree(
        self, cli_area, tmp_path, capsys, monkeypatch, workers
    ):
        monkeypatch.setattr(recursion, "_TILE_PIXELS", 4 * 20)  # five 4-row tiles
        monkeypatch.setattr(recursion, "_workers", lambda: workers)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cli_area / "exp.cfg"), "--out", str(out)]) == 0
        before = tree_bytes(out)
        # pixel (17, 3) of the fifth of six dates lies in the last tile
        config = write_external_area(cli_area, tmp_path, [0, 1], 0.0, t=4, pixel=(17, 3))
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"error: {date_of(4).isoformat()}: all-zero likelihood vector"]
        assert tree_bytes(out) == before
        assert not (out / ".partial").exists()

    def test_locked_partial_refuses_a_second_command(self, cli_area, tmp_path, capsys):
        clean, out = tmp_path / "clean", tmp_path / "out"
        argv = ["run", "--config", str(cli_area / "exp.cfg"), "--out"]
        assert main([*argv, str(clean)]) == 0
        stage = out / ".partial"
        stage.mkdir(parents=True)
        (stage / "live.txt").write_text("being written\n")
        capsys.readouterr()
        fd = os.open(stage, os.O_RDONLY | os.O_DIRECTORY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # a command writing into out
            assert main([*argv, str(out)]) == 2
            assert tree_bytes(out) == {Path(".partial", "live.txt"): b"being written\n"}
        finally:
            os.close(fd)
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"error: {out}: another command is writing into it"]
        assert main([*argv, str(out)]) == 0
        assert tree_bytes(out) == tree_bytes(clean)

    def test_stale_partial_is_removed_by_the_next_run(self, cli_area, tmp_path):
        clean, out = tmp_path / "clean", tmp_path / "out"
        stale = out / ".partial"
        (stale / "posteriors").mkdir(parents=True)
        (stale / "posteriors" / "recursive.cube").write_bytes(b"junk")
        (stale / "junk.txt").write_text("junk\n")
        for target in (clean, out):
            assert main(["run", "--config", str(cli_area / "exp.cfg"), "--out", str(target)]) == 0
        assert not stale.exists()
        assert tree_bytes(out) == tree_bytes(clean)


def _loaded_by_cli_import(modules):
    """Which of ``modules`` a fresh ``import satbayes.cli`` loads."""
    code = f"import sys, satbayes.cli; print(sorted(m for m in {modules!r} if m in sys.modules))"
    src = str(Path(__import__("satbayes").__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_solvers_unloaded():
    """`import satbayes.cli` must not pay for scipy's solvers; they load on use."""
    assert _loaded_by_cli_import(("scipy.linalg", "scipy.optimize", "scipy.special")) == "[]"


def test_cli_import_leaves_the_tile_pool_unloaded(cli_area, tmp_path):
    """No command loads a thread pool: each date's tile workers are plain
    threads, even with two of them."""
    assert _loaded_by_cli_import(("concurrent.futures",)) == "[]"
    config = tmp_path / "exp.cfg"
    manifest = str(cli_area / "data" / "manifest.txt")
    config.write_text(CLI_CONFIG.replace("data/manifest.txt", manifest))
    commands = [
        ["run", "--config", str(config), "--out", "run"],
        ["sweep", "--config", str(config), "--eps", "0.05,0.3", "--out", "sweep"],
        ["bench", "--config", str(config), "--reps", "3", "--out", "bench"],
    ]
    code = (
        "import json, sys\n"
        "from satbayes import recursion\n"
        "from satbayes.cli import main\n"
        "recursion._TILE_PIXELS, recursion._workers = 4 * 20, lambda: 2  # five tiles\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'concurrent.futures' in sys.modules]))\n"
    )
    src = str(Path(__import__("satbayes").__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], capture_output=True,
        text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [[0] * len(commands), False], out.stderr


def test_every_command_runs_with_scipy_unimportable(cli_area, tmp_path):
    """numpy is the only runtime dependency: no command may import scipy."""
    manifest = str(cli_area / "data" / "manifest.txt")
    test_dates = ", ".join(date_of(t).isoformat() for t in range(1, 6))
    for engine in ("index", "gmm", "logistic"):
        (tmp_path / f"{engine}.cfg").write_text(
            CLI_CONFIG.replace("data/manifest.txt", manifest)
            .replace("classifier = index", f"classifier = {engine}")
            .replace(f"test_dates = {CLI_DATES}", f"test_dates = {test_dates}")
            + f"train_dates = {date_of(0).isoformat()}\nfeature_bands = green, swir1\n"
        )
    commands = [
        ["ingest", "--manifest", manifest],
        ["train", "--config", "logistic.cfg", "--out", "model"],
        *(["run", "--config", f"{e}.cfg", "--out", e] for e in ("index", "gmm", "logistic")),
        ["sweep", "--config", "gmm.cfg", "--eps", "0.05,0.3",
         "--algos", "index,gmm,logistic", "--out", "sweep"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from satbayes.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    src = str(Path(__import__("satbayes").__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], capture_output=True,
        text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    assert "Traceback" not in out.stderr, out.stderr
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0] * len(commands), out.stderr
    assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 1 + 2 * 3
