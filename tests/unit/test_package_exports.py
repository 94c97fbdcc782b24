"""Package exports are lazy, and an import loads only the layers it uses.

Every package ``__init__`` resolves its public names on first access
(:mod:`repro._exports`), so importing one module of the stack must not
drag in the layers above it.  Each case imports a set of entry modules
in a fresh interpreter and lists the packages that import must leave
unloaded.  The first four are the entry modules of the repository
benchmark's workloads (``bench/workloads.py``); the last is the CLI,
whose subcommands import what they run inside their handlers.

``package_exports.json`` records every name each package exported when
its ``__init__`` still imported eagerly; star imports must keep
resolving all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SITE_FORBIDDEN = ("repro.experiments", "repro.analysis", "repro.runtime",
                  "repro.parallel", "repro.stream.daemon", "asyncio")

IMPORT_CASES = {
    "facility": (("repro.experiments.facility_scale", "repro.hierarchy.fused"),
                 ("repro.experiments.grid", "repro.analysis", "repro.runtime",
                  "repro.stream.daemon", "asyncio", "multiprocessing")),
    "stream": (("repro.stream.engine", "repro.core.registry"),
               SITE_FORBIDDEN),
    "site": (("repro.manager.site_simulation", "repro.core.registry",
              "repro.faults.scenarios"),
             SITE_FORBIDDEN),
    "runtime": (("repro.runtime.batch", "repro.runtime.controller",
                 "repro.runtime.power_balancer", "repro.runtime.power_governor",
                 "repro.runtime.monitor", "repro.runtime.frequency_governor"),
                ("repro.manager", "repro.stream", "repro.experiments")),
    "cli": (("repro.cli",),
            ("repro.experiments", "repro.runtime", "repro.manager",
             "repro.stream", "repro.parallel", "asyncio")),
}

PARENT_EXPORTS = json.loads(
    Path(__file__).with_name("package_exports.json").read_text())


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that finds ``repro``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def _loaded(modules) -> set:
    code = ("import sys\n"
            f"import {', '.join(modules)}\n"
            "print('\\n'.join(sys.modules))")
    return set(_fresh(code).split())


@pytest.mark.parametrize("case", sorted(IMPORT_CASES))
def test_import_loads_only_its_layers(case):
    modules, forbidden = IMPORT_CASES[case]
    loaded = _loaded(modules)
    assert set(modules) <= loaded
    leaked = sorted(
        name for name in loaded
        if any(name == f or name.startswith(f + ".") for f in forbidden))
    assert not leaked, f"importing {modules} loaded {leaked}"


def test_package_init_imports_nothing():
    """Importing a package loads only itself and the export helper."""
    code = ("import importlib, sys\n"
            "for pkg in " + repr(sorted(PARENT_EXPORTS)) + ":\n"
            "    before = set(sys.modules)\n"
            "    importlib.import_module(pkg)\n"
            "    new = {m for m in set(sys.modules) - before\n"
            "           if m == 'repro' or m.startswith('repro.')}\n"
            "    print(pkg, *sorted(new - {pkg, 'repro', 'repro._exports'}))")
    extra = [line for line in _fresh(code).splitlines() if " " in line]
    assert not extra, extra


@pytest.mark.parametrize("package", sorted(PARENT_EXPORTS))
def test_star_import_resolves_every_parent_export(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    missing = sorted(set(PARENT_EXPORTS[package]) - set(namespace))
    assert not missing
    module = sys.modules[package]
    assert set(PARENT_EXPORTS[package]) <= set(dir(module))
    for name in PARENT_EXPORTS[package]:
        assert getattr(module, name) is namespace[name]
