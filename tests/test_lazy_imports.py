"""Which submodules ``import sspahp`` and each command-line run load.

Load checks run in a fresh interpreter, because this test process has
already imported every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import sspahp
from sspahp.cli import main
from sspahp.sample import DATA_DIR

from conftest import CONSENSUS_JUDGMENTS

SRC = Path(sspahp.__file__).resolve().parent.parent

#: what ``import sspahp.cli`` loads: the command line, the loaders and what they need
CLI_BASE = {"sspahp", "sspahp.cli", "sspahp.core", "sspahp.errors", "sspahp.io"}


def loaded_after(code):
    """The sspahp modules, and numpy.ma if loaded, after ``code`` runs in a fresh interpreter."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sspahp' or m == 'numpy.ma')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_sspahp_loads_only_the_exception_types():
    assert loaded_after("import sspahp") == {"sspahp", "sspahp.errors"}


def test_import_cli_loads_no_pipeline():
    assert loaded_after("import sspahp.cli") == CLI_BASE


def test_the_loaders_and_the_sample_load_no_ranking_code():
    assert loaded_after("import sspahp.io, sspahp.sample") == {
        "sspahp",
        "sspahp.core",
        "sspahp.errors",
        "sspahp.io",
        "sspahp.sample",
    }


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """The bundled sample, one expert's judgments and two sweep exports to correlate."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "matrix": str(DATA_DIR / "sample_matrix.csv"),
        "hierarchy": str(DATA_DIR / "sample_hierarchy.json"),
        "experts": str(root / "experts"),
        "out": str(root / "out.json"),
    }
    Path(paths["experts"]).mkdir()
    rows = ["G1,G2,G3,G4,G5", *(",".join(repr(float(v)) for v in row) for row in CONSENSUS_JUDGMENTS)]
    (root / "experts" / "expert1.csv").write_text("\n".join(rows) + "\n")
    paths["weights"] = str(root / "weights.csv")
    Path(paths["weights"]).write_text("".join(f"C{j},0.04\n" for j in range(1, 26)))
    for method in ("critic", "entropy"):
        paths[method] = str(root / f"{method}.csv")
        argv = ["sweep", "--matrix", paths["matrix"], "--hierarchy", paths["hierarchy"], "--weights-method", method]
        assert CliRunner().invoke(main, [*argv, "--format", "csv", "--out", paths[method]]).exit_code == 0
    return paths


DATA = "--matrix {matrix} --hierarchy {hierarchy}"

#: the six runs of the benchmark's cli-demo workload, each with the modules it adds to CLI_BASE
CLI_DEMO = {
    "weights": ("weights --method ahp --pairwise {experts} --hierarchy {hierarchy}", {"weighting"}),
    "eval": (f"eval {DATA} --weights-method ahp --pairwise {{experts}} --s 0.5 --groups G1,G4", {"weighting", "evaluation", "correlation"}),
    "benchmarks": (f"benchmarks {DATA} --weights-method critic --corr", {"weighting", "evaluation", "benchmarks", "correlation"}),
    "sweep-critic": (f"sweep {DATA} --weights-method critic", {"weighting", "sensitivity", "correlation"}),
    "sweep-entropy": (f"sweep {DATA} --weights-method entropy", {"weighting", "sensitivity", "correlation"}),
    "corr": ("corr {critic} {entropy}", {"sensitivity", "correlation"}),
}


@pytest.mark.parametrize("command, own", CLI_DEMO.values(), ids=CLI_DEMO)
def test_each_command_loads_only_its_own_pipeline(cli_paths, command, own):
    args = [token.format(**cli_paths) for token in f"{command} --format json --out {{out}}".split()]
    code = f"from sspahp.cli import main\nmain.main(args={args!r}, standalone_mode=False)"
    assert loaded_after(code) == CLI_BASE | {f"sspahp.{name}" for name in own}


def test_eval_from_a_weights_file_loads_no_weighting(cli_paths):
    command = f"eval {DATA} --weights-method file --weights-file {{weights}} --format json --out {{out}}"
    args = [token.format(**cli_paths) for token in command.split()]
    code = f"from sspahp.cli import main\nmain.main(args={args!r}, standalone_mode=False)"
    assert loaded_after(code) == CLI_BASE | {"sspahp.evaluation", "sspahp.correlation"}


def test_from_import_of_a_submodule_still_imports_it():
    code = "from sspahp import benchmarks\nassert benchmarks.__name__ == 'sspahp.benchmarks'"
    assert "sspahp.benchmarks" in loaded_after(code)


def test_first_use_of_a_name_loads_its_submodule():
    assert loaded_after("import sspahp\nsspahp.run_sweep") == {
        "sspahp",
        "sspahp.core",
        "sspahp.correlation",
        "sspahp.errors",
        "sspahp.sensitivity",
    }


@pytest.mark.parametrize("name", sspahp.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"sspahp.{sspahp._HOME[name]}")
    value = getattr(sspahp, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__
    assert vars(sspahp)[name] is value
    assert name in dir(sspahp)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'sspahp' has no attribute 'no_such_name'"):
        sspahp.no_such_name
    assert not hasattr(sspahp, "DEFAULT_TAU")
