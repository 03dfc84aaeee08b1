"""Run configuration: defaults, YAML parsing, validation."""
import pytest

from starclust import RunConfig, ValidationError, config_from_dict, load_config


class TestDefaults:
    def test_reproduction_defaults(self):
        cfg = RunConfig()
        assert (cfg.k_a, cfg.k_b, cfg.k_c) == (4, 5, 12)
        assert cfg.split_year == 2000
        assert cfg.horizon == 22
        assert cfg.mcs_reps == 10_000
        assert cfg.mcs_block == 2
        assert cfg.mcs_statistic == "SQ"
        assert cfg.rescale_distances is False
        assert cfg.granularity == "year"

    def test_defaults_validate_without_paths(self):
        RunConfig().validate(require_panel=False)


class TestValidation:
    def test_missing_panel(self):
        with pytest.raises(ValidationError, match="no panel data file"):
            RunConfig().validate()

    def test_panel_path_must_exist(self, tmp_path):
        cfg = RunConfig(panel_path=str(tmp_path / "nope.csv"))
        with pytest.raises(ValidationError, match="panel file not found"):
            cfg.validate()

    def test_adjacency_required_when_asked(self, tmp_path):
        panel = tmp_path / "p.csv"
        panel.write_text("country,year,temperature\na,2000,1.0\n")
        cfg = RunConfig(panel_path=str(panel))
        with pytest.raises(ValidationError, match="adjacency"):
            cfg.validate(require_adjacency=True)

    def test_side_files_must_exist(self, tmp_path):
        panel = tmp_path / "p.csv"
        panel.write_text("x")
        cfg = RunConfig(panel_path=str(panel),
                        zones_path=str(tmp_path / "missing.csv"))
        with pytest.raises(ValidationError, match="zones file not found"):
            cfg.validate()

    @pytest.mark.parametrize("field,value,match", [
        ("k_a", 0, "scheme A"),
        ("k_c", -1, "scheme C"),
        ("horizon", 0, "horizon"),
        ("mcs_reps", 50, "mcs_reps"),
        ("mcs_block", 0, "mcs_block"),
        ("mcs_statistic", "max", "mcs_statistic"),
        ("granularity", "daily", "granularity"),
    ])
    def test_out_of_range_rejected(self, field, value, match):
        cfg = RunConfig(**{field: value})
        with pytest.raises(ValidationError, match=match):
            cfg.validate(require_panel=False)


class TestConfigFromDict:
    def test_nested_sections(self):
        cfg = config_from_dict({
            "data": {"panel": "p.csv", "adjacency": "a.csv", "zones": "z.csv"},
            "clusters": {"A": 3, "B": 6, "C": 10},
            "weights": {"rescale": True},
            "mcs": {"reps": 2000, "block": 3, "statistic": "R"},
            "seed": 7,
            "horizon": 10,
        })
        assert cfg.panel_path == "p.csv"
        assert cfg.adjacency_path == "a.csv"
        assert (cfg.k_a, cfg.k_b, cfg.k_c) == (3, 6, 10)
        assert cfg.rescale_distances is True
        assert (cfg.mcs_reps, cfg.mcs_block, cfg.mcs_statistic) == (2000, 3, "R")
        assert cfg.seed == 7 and cfg.horizon == 10

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown config key 'panels'"):
            config_from_dict({"panels": "x.csv"})

    def test_unknown_nested_key(self):
        with pytest.raises(ValidationError, match="unknown config key clusters.D"):
            config_from_dict({"clusters": {"D": 4}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ValidationError, match="must be a mapping"):
            config_from_dict({"clusters": 4})

    def test_root_must_be_mapping(self):
        with pytest.raises(ValidationError, match="root must be a mapping"):
            config_from_dict(["a", "b"])

    def test_bool_is_not_int(self):
        with pytest.raises(ValidationError, match="expected int, got bool"):
            config_from_dict({"seed": True})

    def test_wrong_type_reported_with_location(self):
        with pytest.raises(ValidationError, match="mcs.reps: expected int"):
            config_from_dict({"mcs": {"reps": "many"}})


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "data:\n  panel: p.csv\nclusters:\n  B: 4\nhorizon: 3\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.panel_path == "p.csv"
        assert cfg.k_b == 4
        assert cfg.horizon == 3
        # Untouched keys keep their defaults.
        assert cfg.k_a == 4 and cfg.mcs_reps == 10_000

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == RunConfig()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="config file not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("data: [unclosed\n")
        with pytest.raises(ValidationError, match="not valid YAML"):
            load_config(path)

    @pytest.mark.parametrize("text, line, key", [
        ("seed: 1\nhorizon: 5\nseed: 2\n", 3, "'seed'"),
        ("mcs: {reps: 100}\nmcs: {reps: 300}\n", 2, "'mcs'"),
        ("mcs:\n  reps: 100\n  block: 3\n  reps: 300\n", 4, "'reps'"),
    ], ids=["top-level", "section", "nested"])
    def test_repeated_key_rejected(self, tmp_path, text, line, key):
        # PyYAML alone keeps the last value; a repeat names its key and line.
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == f"{path}:{line}: config key {key} repeated"

    def test_merge_key_still_merges(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("mcs:\n  <<: {reps: 200, block: 3}\n  block: 4\n", encoding="utf-8")
        cfg = load_config(path)
        assert (cfg.mcs_reps, cfg.mcs_block) == (200, 4)
