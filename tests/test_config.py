"""Configuration schema: strict parsing, defaults, hashing, channel build."""

from pathlib import Path

import pytest
import yaml

from nlsic import config as cfgmod
from nlsic.config import ConfigError

FULL_SCALE_YAML = """
channel:
  alphabet: 4-ASK
  symbol_rate: 3.5e10
  n_os: 2
  n_sim: 2
  nonlinearity: square-law
  k_g: 303
  k_h: 1
  fiber:
    length_km: 30.0
    beta2_s2_per_km: -2.168e-23
  noise: {kind: real, variance: 1.0}
  precoding: differential-phase
sic:
  stages: 2
detector:
  kind: rnn
  rnn:
    l_y: 64
    l_ic: 32
    hidden: [128, 64]
    t_rnn: 64
    learn_rate: 5.0e-4
    n_batch: 128
    n_iter: 20000
sweep:
  p_tx_db: [-5.0, -3.0, -1.0]
eval: {n_blk: 1000, n: 60000}
seed: 1
output_dir: out
"""

TOY_YAML = """
channel:
  alphabet: 2-ASK
  n_os: 1
  n_sim: 1
  nonlinearity: identity
  k_g: 3
sic: {stages: 1}
detector:
  kind: fba
  fba: {memory: 2}
sweep: {p_tx_db: [0.0]}
eval: {n_blk: 4, n: 16}
seed: 3
"""


class TestParsing:
    def test_full_scale_config_parses(self):
        cfg = cfgmod.parse_config(yaml.safe_load(FULL_SCALE_YAML))
        assert cfg.channel.k_g == 303
        assert cfg.channel.fiber_beta2_s2_per_km == pytest.approx(-2.168e-23)
        assert cfg.rnn.hidden == (128, 64)
        assert cfg.sweep_p_tx_db == (-5.0, -3.0, -1.0)

    def test_defaults_fill_in(self):
        cfg = cfgmod.parse_config(yaml.safe_load(TOY_YAML))
        assert cfg.output_dir == "out"
        assert cfg.channel.noise_variance == 1.0
        assert cfg.gibbs.burn_in == 25
        assert cfg.ub_memory is None

    def test_unknown_key_names_path(self):
        data = yaml.safe_load(TOY_YAML)
        data["channel"]["beta2"] = 1.0
        with pytest.raises(ConfigError, match="channel.beta2"):
            cfgmod.parse_config(data)

    def test_unknown_top_level_key(self):
        data = yaml.safe_load(TOY_YAML)
        data["extra"] = {}
        with pytest.raises(ConfigError, match="unknown key extra"):
            cfgmod.parse_config(data)

    def test_dotted_key_is_unknown(self):
        data = yaml.safe_load(TOY_YAML)
        data["channel"]["noise.kind"] = "real"
        with pytest.raises(ConfigError, match="unknown key channel.noise.kind"):
            cfgmod.parse_config(data)

    def test_null_means_default(self):
        data = yaml.safe_load(FULL_SCALE_YAML)
        data["detector"]["rnn"]["hidden"] = None
        data["sweep"]["p_tx_db"] = None
        cfg = cfgmod.parse_config(data)
        assert cfg.rnn.hidden == (32,)
        assert cfg.sweep_p_tx_db == (0.0,)

    def test_wrong_unit_string_names_key(self):
        data = yaml.safe_load(FULL_SCALE_YAML)
        data["channel"]["fiber"]["beta2_s2_per_km"] = "-2.168e-23 s^2/km"
        with pytest.raises(ConfigError, match="beta2_s2_per_km"):
            cfgmod.parse_config(data)

    def test_huge_integer_for_float_names_key(self):
        data = yaml.safe_load(TOY_YAML)
        data["channel"]["symbol_rate"] = 10 ** 400
        with pytest.raises(ConfigError, match="channel.symbol_rate"):
            cfgmod.parse_config(data)

    def test_missing_required_key(self):
        data = yaml.safe_load(TOY_YAML)
        del data["channel"]["alphabet"]
        with pytest.raises(ConfigError, match="channel.alphabet"):
            cfgmod.parse_config(data)

    def test_eval_length_divisibility(self):
        data = yaml.safe_load(TOY_YAML)
        data["sic"]["stages"] = 3
        with pytest.raises(ConfigError, match="divisible"):
            cfgmod.parse_config(data)

    def test_fiber_needs_both_fields(self):
        data = yaml.safe_load(TOY_YAML)
        data["channel"]["fiber"] = {"length_km": 10.0}
        with pytest.raises(ConfigError, match="channel.fiber.beta2_s2_per_km"):
            cfgmod.parse_config(data)


class TestRoundTrip:
    def test_resolved_is_a_fixpoint(self):
        cfg = cfgmod.parse_config(yaml.safe_load(FULL_SCALE_YAML))
        resolved = cfgmod.resolved_dict(cfg)
        again = cfgmod.resolved_dict(cfgmod.parse_config(resolved))
        assert resolved == again

    def test_hash_stable_and_sensitive(self):
        cfg1 = cfgmod.parse_config(yaml.safe_load(TOY_YAML))
        cfg2 = cfgmod.parse_config(yaml.safe_load(TOY_YAML))
        assert cfgmod.config_hash(cfg1) == cfgmod.config_hash(cfg2)
        data = yaml.safe_load(TOY_YAML)
        data["seed"] = 4
        assert cfgmod.config_hash(cfgmod.parse_config(data)) != \
            cfgmod.config_hash(cfg1)


class TestBuildChannel:
    def test_toy_channel(self):
        cfg = cfgmod.parse_config(yaml.safe_load(TOY_YAML))
        chan = cfgmod.build_channel(cfg)
        assert chan.memory == 2
        assert chan.config.alphabet.size == 2

    def test_full_scale_memory(self):
        cfg = cfgmod.parse_config(yaml.safe_load(FULL_SCALE_YAML))
        chan = cfgmod.build_channel(cfg)
        assert chan.memory_g == 151
        assert chan.memory == 151

    def test_invalid_combination_is_config_error(self):
        data = yaml.safe_load(TOY_YAML)
        data["channel"]["nonlinearity"] = "square-law"  # with n_sim = 1
        with pytest.raises(ConfigError, match="sufficient statistics"):
            cfgmod.build_channel(cfgmod.parse_config(data))

    def test_rapp_channel(self):
        data = yaml.safe_load(TOY_YAML)
        data["channel"]["nonlinearity"] = "rapp"
        data["channel"]["rapp"] = {"p": 2.0, "x_sat": 0.5}
        chan = cfgmod.build_channel(cfgmod.parse_config(data))
        assert chan.config.nonlinearity.p == 2.0
        assert chan.config.nonlinearity.x_sat == 0.5


class TestSchemaDocs:
    def test_readme_lists_every_key(self):
        """The README's key table gives each schema key its type, default
        and least allowed value, or a string key its allowed values."""
        readme = Path(__file__).parents[1] / "README.md"
        rows = {}
        for line in readme.read_text().splitlines():
            cells = [c.strip().strip("`") for c in line.strip().split("|")]
            if len(cells) > 5:
                rows[cells[1]] = cells[2:5]
        for key, (kind, default, least) in cfgmod._SCHEMA.items():
            assert key in rows, key
            type_cell, default_cell, least_cell = rows[key]
            assert type_cell == (f"list of {kind[0].__name__}"
                                 if isinstance(kind, list) else kind.__name__)
            if default is ...:
                assert default_cell == "required", key
            else:
                want = list(default) if isinstance(default, tuple) else default
                assert yaml.safe_load(default_cell) == want, key
            if isinstance(least, tuple):
                least = ", ".join(least)
            assert least_cell == ("" if least is None else str(least)), key
