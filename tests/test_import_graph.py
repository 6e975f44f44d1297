"""The package namespaces load their exports on first use.

Two kinds of checks:

* every package's ``__all__`` resolves through attribute access,
  ``dir()`` and star-import, so a stale name → module map fails here
  rather than in a user's import;
* in a fresh interpreter, a workload's set-up and a CLI verb import
  only the layers they run, and a timed call imports nothing at all
  (no module of any package: a service window that first touches a
  lazily imported NumPy submodule pays its import inside the window).
"""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.data",
    "repro.exact",
    "repro.experiments",
    "repro.extensions",
    "repro.heuristics",
    "repro.model",
    "repro.obs",
    "repro.parallel",
    "repro.service",
    "repro.sim",
    "repro.testing",
    "repro.utility",
    "repro.workload",
]

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run_fresh(script: str, *args: str) -> dict:
    """Run *script* in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", PACKAGES)
class TestNamespaces:
    def test_all_resolves_and_is_listed(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None, export
            assert export in listed, export

    def test_star_import_binds_all(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        missing = [n for n in package.__all__ if n not in namespace]
        assert not missing

    def test_public_names_outside_all_are_submodules(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            getattr(package, export)
        extra = {
            n for n in dir(package)
            if not n.startswith("_") and n not in package.__all__
        }
        stray = [n for n in extra if not isinstance(getattr(package, n), types.ModuleType)]
        assert not stray

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError):
            getattr(package, "no_such_export")


def test_submodule_import_through_namespace():
    from repro.core import nsga2
    from repro.sim import batchkernel

    assert nsga2.__name__ == "repro.core.nsga2"
    assert batchkernel.__name__ == "repro.sim.batchkernel"


def test_figure_setup_skips_other_layers_and_run_imports_nothing():
    result = run_fresh(
        "import json, sys\n"
        "import repro.experiments.datasets, repro.experiments.figures\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith('repro')}\n"
        "setup = loaded()\n"
        "from repro.experiments.figures import figure3\n"
        "bundle = repro.experiments.datasets.dataset1(1)\n"
        "figure3(checkpoints=(1, 2), population_size=6, base_seed=1,"
        " dataset=bundle)\n"
        "print(json.dumps({'setup': sorted(setup),"
        " 'new': sorted(loaded() - setup)}))\n"
    )
    forbidden = ("repro.parallel", "repro.service", "repro.obs.collect",
                 "repro.exact", "repro.experiments.grid")
    assert not [m for m in result["setup"] if m.startswith(forbidden)]
    assert result["new"] == []


def test_service_windows_import_nothing():
    """Ten windows on a fresh service — seed repair every busy window
    after the first, and a ledger compaction at window 8 — load no
    module of any package after set-up."""
    result = run_fresh(
        "import json, sys\n"
        "from repro.experiments.datasets import dataset1\n"
        "from repro.service.dispatch import DispatchService, ServiceConfig\n"
        "from repro.service.stream import ArrivalStream\n"
        "from repro.workload.generator import TaskTypeMix\n"
        "system = dataset1(2013).system\n"
        "stream = ArrivalStream(mix=TaskTypeMix.uniform("
        "system.num_task_types), window=60.0, rate=0.05, seed=2013)\n"
        "windows = list(stream.windows(10))\n"
        "service = DispatchService(system, ServiceConfig("
        "seed=2013, population_size=8, generations=2))\n"
        "setup = set(sys.modules)\n"
        "reports = [service.process_window(b) for b in windows]\n"
        "print(json.dumps({'new': sorted(set(sys.modules) - setup),"
        " 'busy': sum(1 for r in reports if r.tasks),"
        " 'compacted': sum(r.compacted for r in reports)}))\n"
    )
    assert result["busy"] >= 2
    assert result["compacted"] > 0
    assert result["new"] == []


def test_grid_status_imports_no_driver(tmp_path):
    from repro.experiments.datasets import dataset1
    from repro.experiments.repetitions import run_repetitions

    grid_dir = tmp_path / "grid"
    run_repetitions(dataset1(1), 1, 1, population_size=4, base_seed=1,
                    grid_dir=str(grid_dir))
    result = run_fresh(
        "import json, runpy, sys\n"
        "sys.argv = ['repro-analyze', 'grid', 'status', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('repro.cli', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    code = exit.code\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n",
        str(grid_dir),
    )
    assert result["code"] == 0
    forbidden = ("repro.experiments.figures", "repro.analysis",
                 "repro.exact", "repro.service")
    assert not [m for m in result["modules"] if m.startswith(forbidden)]
