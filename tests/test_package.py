"""The package namespace: every exported name and submodule resolves on
first access, and each command loads only the modules its work runs, so
start-up does not compile detectors a run never calls."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import nlsic

SRC = Path(nlsic.__file__).resolve().parents[1]

# Run cli.main on the arguments, then print the nlsic submodules loaded.
LOADED = """
import sys
from nlsic import cli
status = cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("nlsic."))))
sys.exit(status)
"""

# what an fba evaluate runs; the other detectors add their own modules
FBA_EVALUATE = {"apps", "channel", "cli", "config", "fba", "parallel",
                "rates", "sic"}


def loaded_modules(*argv, script=LOADED):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1] if proc.stdout.strip() else ""
    return {name.removeprefix("nlsic.") for name in last.split()}


def tiny_config(tmp_path, detector):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({
        "channel": {"alphabet": "4-ASK", "k_g": 7},
        "detector": {"kind": detector,
                     "gibbs": {"n_iter": 4, "n_par": 2, "burn_in": 1},
                     "rnn": {"l_y": 4, "hidden": [4], "t_rnn": 4,
                             "n_batch": 4, "n_iter": 2}},
        "sweep": {"p_tx_db": [4.0]},
        "eval": {"n_blk": 1, "n": 8},
        "output_dir": str(tmp_path / "out"),
    }))
    return str(path)


class TestImportSets:
    def test_bare_import_loads_no_submodule(self):
        script = ("import sys, nlsic\n"
                  "print(' '.join(m for m in sys.modules"
                  " if m.startswith('nlsic.')))")
        assert loaded_modules(script=script) == set()

    @pytest.mark.parametrize("detector,extra", [
        ("fba", set()), ("gibbs", {"gibbs"}), ("uniform", set())])
    def test_evaluate(self, tmp_path, detector, extra):
        path = tiny_config(tmp_path, detector)
        assert loaded_modules("evaluate", "-c", path) == FBA_EVALUATE | extra

    def test_rnn_train_then_evaluate(self, tmp_path):
        path = tiny_config(tmp_path, "rnn")
        assert loaded_modules("train", "-c", path) == \
            FBA_EVALUATE | {"rnn", "training"}
        assert loaded_modules("evaluate", "-c", path) == FBA_EVALUATE | {"rnn"}


class TestNamespace:
    def test_names_are_their_modules_objects(self):
        for module, names in nlsic._EXPORTS.items():
            mod = importlib.import_module(f"nlsic.{module}")
            for name in names.split():
                assert getattr(nlsic, name) is getattr(mod, name), name

    def test_submodules_resolve(self):
        for module in nlsic._SUBMODULES:
            assert getattr(nlsic, module) is \
                importlib.import_module(f"nlsic.{module}")

    def test_dir_all_and_star_import(self):
        assert set(nlsic.__all__) == set(nlsic._MODULE_OF)
        assert set(nlsic.__all__) | nlsic._SUBMODULES <= set(dir(nlsic))
        namespace = {}
        exec("from nlsic import *", namespace)
        for name in nlsic.__all__:
            assert namespace[name] is getattr(nlsic, name), name

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nlsic.no_such_name  # noqa: B018
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from nlsic import no_such_name", {})

    def test_gibbs_config_is_the_config_section(self):
        from nlsic import config, gibbs
        assert gibbs.GibbsConfig is config.GibbsConfig is nlsic.GibbsConfig
