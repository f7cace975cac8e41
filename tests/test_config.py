"""INI run-configuration parsing."""

import configparser
import dataclasses
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from tapgkit.cli import main
from tapgkit.config import (
    BoundaryNetSettings,
    RunConfig,
    describe,
    load_run_config,
    parse_threshold_list,
    render,
)
from tapgkit.errors import ConfigError, ShapeError
from tapgkit.inference import (
    PRESETS,
    HardSuppressionConfig,
    SoftSuppressionConfig,
    suppression_preset,
)


def _float_keys():
    """(section, extra lines, key) for every ``float`` field an INI file can set."""
    run = RunConfig()
    sections = [("synthetic", "", run.synthetic), ("representation", "", run.representation),
                ("boundary_net", "", run.boundary), ("training", "", run.training),
                ("evaluation", "", run.evaluation),
                ("inference", "mode = soft\n", SoftSuppressionConfig(sigma=0.4)),
                ("inference", "mode = hard\n", HardSuppressionConfig(threshold=0.45))]
    for section, extra, base in sections:
        hints = typing.get_type_hints(type(base))
        for f in dataclasses.fields(base):
            if hints[f.name] is float:
                yield section, extra, f.name


EVERY_KEY = """
[synthetic]
num_videos = 5
num_snippets = 24
snippet_stride = 8
fps = 12.5
env_dim = 6
actor_dim = 7
object_dim = 9
max_actors = 2
objects_per_snippet = 4
num_classes = 5
min_action_len = 3
max_action_len = 6
max_actions_per_video = 3
signal = 4.5
noise = 0.5
seed = 11

[representation]
feature_dim = 24
attention_hidden = 48
attention_mode = hard
use_environment = no
use_actors = off
use_objects = false

[boundary_net]
max_duration = 12
num_samples = 8
trunk_hidden = 48
trunk_out = 24
boundary_hidden = 40
proposal_conv3d_out = 96
proposal_conv2d_hidden = 16

[training]
epochs = 3
learning_rate = 0.01
mse_weight = 5.0
seed = 4

[inference]
mode = soft
sigma = 0.6
overlap_offset = 0.2
distance_weight = 0.1
score_floor = 0.001
max_keep = 40

[evaluation]
tious = 0.3, 0.6
max_budget = 50
report_budgets = 2, 20
"""

EVERY_FIELD = {
    "synthetic": dict(num_videos=5, num_snippets=24, snippet_stride=8, fps=12.5,
                      env_dim=6, actor_dim=7, object_dim=9, max_actors=2,
                      objects_per_snippet=4, num_classes=5, min_action_len=3,
                      max_action_len=6, max_actions_per_video=3, signal=4.5,
                      noise=0.5, seed=11),
    "representation": dict(feature_dim=24, attention_hidden=48, attention_mode="hard",
                           use_environment=False, use_actors=False, use_objects=False),
    "boundary": dict(max_duration=12, num_samples=8, trunk_hidden=48, trunk_out=24,
                     boundary_hidden=40, proposal_conv3d_out=96, proposal_conv2d_hidden=16),
    "training": dict(epochs=3, learning_rate=0.01, mse_weight=5.0, seed=4),
    "suppression": dict(sigma=0.6, overlap_offset=0.2, distance_weight=0.1,
                        score_floor=0.001, max_keep=40),
    "evaluation": dict(tious=(0.3, 0.6), max_budget=50, report_budgets=(2, 20)),
}


class TestDefaults:
    def test_desk_profile(self):
        cfg = load_run_config()
        assert cfg.synthetic.num_videos == 20
        assert cfg.synthetic.num_snippets == 32
        assert cfg.representation.feature_dim == 32
        assert cfg.boundary.num_samples == 16
        assert cfg.training.epochs == 30
        assert cfg.training.mse_weight == 10.0
        assert cfg.training.seed == 0
        assert isinstance(cfg.suppression, SoftSuppressionConfig)
        assert cfg.evaluation.max_budget == 100

    def test_written_default_file_round_trips(self, tmp_path):
        path = tmp_path / "run.ini"
        assert main(["config", "--out", str(path)]) == 0
        assert dataclasses.asdict(load_run_config(path)) == dataclasses.asdict(RunConfig())

    def test_written_default_file_sets_every_key(self, tmp_path):
        path = tmp_path / "run.ini"
        assert main(["config", "--out", str(path)]) == 0
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(path.read_text())
        run, skips = RunConfig(), {"representation": {"env_dim", "actor_dim", "object_dim"}}
        expected = {"data": {"root"}}
        for name, attr in (("synthetic", "synthetic"), ("representation", "representation"),
                           ("boundary_net", "boundary"), ("training", "training"),
                           ("inference", "suppression"), ("evaluation", "evaluation")):
            fields = {f.name for f in dataclasses.fields(getattr(run, attr))}
            expected[name] = fields - skips.get(name, set())
        expected["inference"] |= {"mode"}
        assert {name: set(parser[name]) for name in parser.sections()} == expected

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_rendered_file_round_trips_every_preset(self, tmp_path, preset):
        cfg = RunConfig(suppression=suppression_preset(preset))
        cfg.boundary.max_duration = 12
        path = tmp_path / "run.ini"
        path.write_text(render(cfg))
        assert load_run_config(path) == cfg

    def test_default_file_matches_dataclass_defaults(self):
        assert dataclasses.asdict(load_run_config()) == dataclasses.asdict(RunConfig())

    def test_failed_write_keeps_previous_file(self, tmp_path, failing_writes):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nepochs = 3\n")
        with failing_writes():
            assert main(["config", "--out", str(path)]) == 2
        assert path.read_text() == "[training]\nepochs = 3\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_default_tious_span_half_to_ninety_five(self):
        cfg = load_run_config()
        np.testing.assert_allclose(cfg.evaluation.tious,
                                   np.arange(0.5, 0.951, 0.05))


class TestParsing:
    def test_overrides_apply(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("""
[synthetic]
num_videos = 5
signal = 4.5

[training]
epochs = 3
learning_rate = 0.01
""")
        cfg = load_run_config(path)
        assert cfg.synthetic.num_videos == 5
        assert cfg.synthetic.signal == 4.5
        assert cfg.training.epochs == 3
        assert cfg.training.learning_rate == 0.01
        # everything else keeps its default
        assert cfg.synthetic.num_snippets == 32

    def test_every_settable_field_is_read(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(EVERY_KEY)
        cfg, default = load_run_config(path), RunConfig()
        for attr, values in EVERY_FIELD.items():
            for key, value in values.items():
                assert getattr(getattr(default, attr), key) != value, (attr, key)
                assert getattr(getattr(cfg, attr), key) == value, (attr, key)
        # a field added to a section's dataclass must be added to EVERY_KEY too
        for attr, fixed in (("synthetic", set()),
                            ("representation", {"env_dim", "actor_dim", "object_dim"}),
                            ("boundary", set()), ("training", set()),
                            ("suppression", set()), ("evaluation", set())):
            fields = {f.name for f in dataclasses.fields(getattr(RunConfig(), attr))}
            assert fields - fixed == set(EVERY_FIELD[attr]), attr

    def test_data_root(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\nroot = elsewhere\n")
        assert load_run_config(path).data_root == Path("elsewhere")

    def test_blank_value_keeps_default(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[boundary_net]\nmax_duration =\n\n[training]\nepochs =\n")
        cfg = load_run_config(path)
        assert cfg.boundary.max_duration is None
        assert cfg.training.epochs == 30

    @pytest.mark.parametrize("text", [
        "[synthetic]\nenv_overhang = 2\n",
        "[representation]\nenv_dim = 8\n",
        "[inference]\npreset = thumos-tapg-snms\nsigma = 0.5\n",
        "[inference]\nmode = soft\npreset = anet-tapg-snms\n",
    ])
    def test_key_outside_the_section_rejected(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown keys"):
            load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config sections"):
            load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nepochz = 3\n")
        with pytest.raises(ConfigError, match="unknown"):
            load_run_config(path)

    def test_bad_integer_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nepochs = soon\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[representation]\nuse_actors = maybe\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_report_budget_below_one_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[evaluation]\nreport_budgets = -1\n")
        with pytest.raises(ShapeError, match="report_budgets"):
            load_run_config(path)

    def test_curve_needs_two_budgets(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[evaluation]\nmax_budget = 1\n")
        with pytest.raises(ShapeError, match="max_budget"):
            load_run_config(path)
        path.write_text("[evaluation]\nmax_budget = 2\nreport_budgets = 1, 2\n")
        assert load_run_config(path).evaluation.max_budget == 2

    def test_report_budget_off_the_curve_rejected(self, tmp_path):
        # the report reads each budget off the curve, which ends at max_budget
        path = tmp_path / "run.ini"
        path.write_text("[evaluation]\nmax_budget = 50\nreport_budgets = 1, 51\n")
        with pytest.raises(ShapeError, match="report_budgets"):
            load_run_config(path)
        path.write_text("[evaluation]\nmax_budget = 50\nreport_budgets = 1, 50\n")
        assert load_run_config(path).evaluation.report_budgets == (1, 50)

    def test_zero_tiou_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[evaluation]\ntious = 0, 0.5\n")
        with pytest.raises(ShapeError, match="overlap thresholds"):
            load_run_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, tmp_path, value):
        keys = list(_float_keys())
        assert {s for s, _, _ in keys} == {"synthetic", "training", "inference"}
        path = tmp_path / "run.ini"
        for section, extra, key in keys:
            path.write_text(f"[{section}]\n{extra}{key} = {value}\n")
            with pytest.raises(ConfigError, match="not a finite number"):
                load_run_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "absent.ini")

    def test_malformed_ini(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("this is not ini\n")
        with pytest.raises(ConfigError):
            load_run_config(path)


class TestThresholdList:
    def test_inclusive_range(self):
        got = parse_threshold_list("0.5:0.05:0.95", "test")
        assert len(got) == 10
        np.testing.assert_allclose(got, np.arange(0.5, 0.951, 0.05))

    def test_comma_list(self):
        assert parse_threshold_list("0.3, 0.5, 0.7", "test") == (0.3, 0.5, 0.7)

    def test_single_value(self):
        assert parse_threshold_list("0.5", "test") == (0.5,)

    def test_descending_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_threshold_list("0.9:0.05:0.5", "test")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_threshold_list("a:b:c", "test")

    def test_range_ends_at_or_before_stop(self):
        # 0.5 + 3 * 0.3 = 1.4 overshoots the stop, so it is trimmed
        assert parse_threshold_list("0.5:0.3:1.3", "test") == (0.5, 0.8, 1.1)

    def test_range_of_one_value(self):
        assert parse_threshold_list("0.5:0.1:0.5", "test") == (0.5,)

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigError, match="range must ascend"):
            parse_threshold_list("0.5:0:0.9", "test")

    def test_range_values_rounded_to_ten_places(self):
        # 0.5 + 3 * 0.05 is 0.6500000000000001 before rounding
        assert parse_threshold_list("0.5:0.05:0.95", "test") == (
            0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
        assert parse_threshold_list("0.1:0.12345678901:0.35", "test") == (
            0.1, 0.223456789, 0.346913578)

    def test_last_value_within_tolerance_of_stop_kept(self):
        # 0.999999999 + 1e-9 is exactly 1.0 in float64: the edge of the tolerance
        assert parse_threshold_list("0:0.5:0.999999999", "test") == (0.0, 0.5, 1.0)

    def test_bad_integer_list_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[evaluation]\nreport_budgets = 1, x\n")
        with pytest.raises(ConfigError, match=r"\[evaluation\] report_budgets: bad integer list"):
            load_run_config(path)


class TestSuppressionSelection:
    def test_preset_with_keep_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[inference]\npreset = thumos-tapg-snms\nmax_keep = 40\n")
        cfg = load_run_config(path)
        assert isinstance(cfg.suppression, SoftSuppressionConfig)
        assert cfg.suppression.sigma == 0.3
        assert cfg.suppression.max_keep == 40

    def test_explicit_soft_mode(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("""
[inference]
mode = soft
sigma = 0.6
overlap_offset = 0.2
""")
        cfg = load_run_config(path)
        assert isinstance(cfg.suppression, SoftSuppressionConfig)
        assert cfg.suppression.sigma == 0.6
        assert cfg.suppression.overlap_offset == 0.2

    @pytest.mark.parametrize("mode, preset", [("soft", "anet-tad-snms"),
                                              ("hard", "thumos-tad-nms")])
    def test_bare_mode_starts_from_its_preset(self, tmp_path, mode, preset):
        path = tmp_path / "run.ini"
        path.write_text(f"[inference]\nmode = {mode}\n")
        assert load_run_config(path).suppression == suppression_preset(preset)

    def test_explicit_hard_mode(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[inference]\nmode = hard\nthreshold = 0.3\n")
        cfg = load_run_config(path)
        assert isinstance(cfg.suppression, HardSuppressionConfig)
        assert cfg.suppression.threshold == 0.3

    def test_bad_mode_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[inference]\nmode = fuzzy\n")
        with pytest.raises(ConfigError, match="mode"):
            load_run_config(path)

    def test_unknown_preset_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[inference]\npreset = nonsense\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_invalid_parameters_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[inference]\nmode = soft\nsigma = -1\n")
        with pytest.raises(ConfigError):
            load_run_config(path)


class TestBoundarySettings:
    def test_build_fills_data_extents(self):
        settings = BoundaryNetSettings(num_samples=8, trunk_out=24)
        net = settings.build(feature_dim=48, num_snippets=20)
        assert net.feature_dim == 48
        assert net.num_snippets == 20
        assert net.num_samples == 8
        assert net.trunk_out == 24
        assert net.resolved_max_duration() == 20

    def test_max_duration_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[boundary_net]\nmax_duration = 12\n")
        cfg = load_run_config(path)
        assert cfg.boundary.build(32, 32).resolved_max_duration() == 12


class TestDescribe:
    def test_json_serializable_and_complete(self):
        payload = describe(load_run_config())
        text = json.dumps(payload)
        assert set(payload) >= {"data", "synthetic", "representation",
                                "boundary_net", "training", "inference",
                                "evaluation"}
        assert "epochs" in text and "sigma" in text

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_holds_exactly_the_keys_of_the_file(self, preset):
        cfg = RunConfig(suppression=suppression_preset(preset))
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(render(cfg))
        payload = describe(cfg)
        assert {name: list(values) for name, values in payload.items()} == {
            name: list(parser[name]) for name in parser.sections()}
        assert payload["inference"]["mode"] == ("soft" if preset.endswith("snms") else "hard")
        assert "env_dim" not in payload["representation"]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_description_read_back_from_json_renders_the_file(self, tmp_path, preset):
        cfg = RunConfig(suppression=suppression_preset(preset))
        cfg.boundary.max_duration = 12
        cfg.representation.feature_dim = 24
        cfg.evaluation.tious = (0.3, 0.55, 0.8)
        described = json.loads(json.dumps(describe(cfg)))
        assert render(described) == render(cfg)
        path = tmp_path / "run.ini"
        path.write_text(render(described))
        assert load_run_config(path) == cfg
