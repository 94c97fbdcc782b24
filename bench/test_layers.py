"""Checks of the outside-in layer timer on a small synthetic package.

Run with ``PYTHONPATH=src python -m pytest bench -q``.
"""

import importlib
import sys
import time
import types

import pytest

from layers import LayerTimer, Target

CORE = '''
import contextlib
import time

@contextlib.contextmanager
def scope():
    time.sleep(0.001)
    yield
    time.sleep(0.001)

def leaf():
    time.sleep(0.002)

def middle():
    time.sleep(0.001)
    leaf()
    leaf()

def top():
    time.sleep(0.001)
    with scope():
        middle()

class Base:
    def step(self):
        return "base"

class Child(Base):
    def step(self):
        return "child"

def probe(*args):
    return list(args)
'''

USER = '''
from benchprobe.core import leaf, top

def run():
    return top()
'''


@pytest.fixture
def probe():
    """A ``benchprobe`` package: ``core`` plus ``user`` importing by name."""
    package = types.ModuleType("benchprobe")
    package.__path__ = []
    sys.modules["benchprobe"] = package
    for name, source in (("core", CORE), ("user", USER)):
        module = types.ModuleType(f"benchprobe.{name}")
        sys.modules[module.__name__] = module
        setattr(package, name, module)
        exec(source, module.__dict__)
    yield package
    for name in ("benchprobe", "benchprobe.core", "benchprobe.user"):
        sys.modules.pop(name, None)


def _timer(*targets):
    return LayerTimer([Target(*t) for t in targets], packages=("benchprobe",))


def test_nested_self_times_sum_to_wall(probe):
    timer = _timer(("a", "benchprobe.core", "top"),
                   ("b", "benchprobe.core", "middle"),
                   ("c", "benchprobe.core", "leaf"),
                   ("s", "benchprobe.core", "scope", False, True))
    with timer:
        start = time.perf_counter()
        probe.core.top()
        wall = time.perf_counter() - start
    report = timer.report()
    # A context target counts its creation, enter and exit.
    assert {k: v["calls"] for k, v in report.items()} == {
        "a": 1, "b": 1, "c": 2, "s": 3}
    attributed = sum(v["self_s"] for v in report.values())
    assert 0.0 <= wall - attributed < 1e-3
    assert report["c"]["self_s"] >= 0.004
    assert report["s"]["self_s"] >= 0.002
    assert all(v["self_s"] >= 0.001 for v in report.values())


def test_restore_leaves_every_name_identical(probe):
    core, user = probe.core, probe.user
    before = {
        (core, "top"): core.top, (core, "leaf"): core.leaf,
        (user, "top"): user.top, (user, "leaf"): user.leaf,
        (core.Base, "step"): vars(core.Base)["step"],
        (core.Child, "step"): vars(core.Child)["step"],
    }
    timer = _timer(("a", "benchprobe.core", "top"),
                   ("a", "benchprobe.core", "leaf"),
                   ("b", "benchprobe.core", "Base.step", True))
    with timer:
        for (owner, name), original in before.items():
            assert vars(owner)[name] is not original, name
        assert core.Child().step() == "child"
    for (owner, name), original in before.items():
        assert vars(owner)[name] is original, name
    assert timer.report()["b"]["calls"] == 1


def test_module_attribute_entry_point_is_timed(probe):
    early = probe.core.top  # bound before the timer: never timed
    timer = _timer(("a", "benchprobe.core", "top"),
                   ("rows", "benchprobe.core", "probe", False, False, True),
                   ("gone", "benchprobe.core", "deleted"),
                   ("gone", "benchprobe.absent", "anything"))
    with timer:
        importlib.import_module("benchprobe.core").top()
        probe.user.run()
        early()
        probe.core.probe(1, 2, 3)
        probe.core.probe()
    report = timer.report()
    assert report["a"]["calls"] == 2
    assert report["rows"] == {"calls": 2, "self_s": report["rows"]["self_s"],
                              "rows": 3}
    assert timer.missing == ["benchprobe.core:deleted",
                             "benchprobe.absent:anything"]
