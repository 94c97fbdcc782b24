"""Outside-in per-layer timing: wrap each layer's public functions.

:class:`LayerTimer` patches every target for the duration of a ``with``
block and restores every original object on exit.  A function target
is patched at *every* binding in the loaded modules of the given
packages, found by identity — modules such as ``repro.hierarchy.fused``
and ``repro.stream.engine`` import functions by name, so patching only
the defining module would miss their calls.  A method target is
patched on its class (and, with ``subclasses``, on every subclass that
defines it).

All wrapped calls share one stack, which turns wall time into self
time: a call's self time is its span minus the spans of the wrapped
calls made inside it.  Self times of all calls therefore add up to the
wall time of the outermost wrapped calls; what the caller measures
beyond that is unattributed.

The program is not changed: in-program spans are a separate concern
(``repro.telemetry.tracing``), and this timer only sees what crosses a
public function boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

__all__ = ["LAYERS", "LAYER_TARGETS", "LayerTimer", "Target"]


class Target(NamedTuple):
    """One wrapped callable and the layer its time is charged to."""

    layer: str
    module: str
    #: ``"function"`` or ``"Class.method"`` inside ``module``.
    qualname: str
    #: Also wrap the method on every subclass that defines its own.
    subclasses: bool = False
    #: The callable returns a context manager; its ``__enter__`` and
    #: ``__exit__`` are timed as calls of their own.
    context: bool = False
    #: Count result rows: ``len(result)`` for a list, else 1.
    rows: bool = False


def _targets(layer: str, module: str, *names: str, **flags) -> List[Target]:
    return [Target(layer, module, name, **flags) for name in names]


_SITE = "repro.manager.site_simulation"

#: The repository's layers and the public calls charged to each.
LAYER_TARGETS: Tuple[Target, ...] = tuple(
    _targets("hierarchy.facility", "repro.hierarchy.facility",
             "run_facility_simulation")
    + _targets("hierarchy.broker", "repro.hierarchy.broker",
               "BudgetBroker.apportion")
    + _targets("hierarchy.fused", "repro.hierarchy.fused",
               "run_fused_facility_leaves")
    + _targets("manager.site", _SITE, "run_site_simulation")
    + _targets("manager.admission", "repro.manager.admission",
               "PowerAwareAdmission.decide",
               "PowerAwareAdmission.decide_arrival")
    + _targets("manager.plan", _SITE, "plan_shift_batch",
               "plan_admitted_batch")
    + _targets("manager.batched_step", _SITE, "execute_planned_batches")
    + _targets("manager.finish", _SITE, "finish_planned_batch")
    + _targets("manager.execute", _SITE, "execute_admitted_batch")
    + _targets("manager.execute", "repro.manager.power_manager",
               "PowerManager.launch")
    + _targets("characterization",
               "repro.characterization.mix_characterization",
               "characterize_mix")
    + _targets("core.allocate", "repro.manager.power_manager",
               "PowerManager.plan")
    + _targets("faults", "repro.faults.degradation", "plan_with_degradation")
    + _targets("faults", "repro.faults.schedule",
               "FaultSchedule.budget_at", "FaultSchedule.failed_hosts_at",
               "FaultSchedule.sensor_dropout_at", "FaultSchedule.engine_slice")
    + _targets("sim", "repro.sim.batch", "simulate_layout_batch",
               "simulate_cap_batch", rows=True)
    + _targets("sim", "repro.sim.execution", "simulate_mix", rows=True)
    + _targets("sim.engine", "repro.sim.engine", "ExecutionModel.frequencies",
               "ExecutionModel.compute_time", "ExecutionModel.poll_power")
    + _targets("stream.engine", "repro.stream.engine", "SiteStreamEngine.run")
    + _targets("runtime.batch", "repro.runtime.batch", "run_controller_batch")
    + _targets("runtime.controller", "repro.runtime.controller",
               "Controller.run")
    + _targets("runtime.agent", "repro.runtime.agent", "Agent.adjust",
               "AgentBatch.adjust_batch", subclasses=True)
    + _targets("telemetry", "repro.telemetry.context", "emit")
    + _targets("telemetry", "repro.telemetry.tracing", "span", context=True)
    + _targets("telemetry", "repro.telemetry.metrics",
               "MetricsRegistry.counter", "MetricsRegistry.gauge",
               "MetricsRegistry.histogram", "Counter.inc", "Gauge.set",
               "Gauge.inc", "Histogram.observe")
    + _targets("telemetry", "repro.telemetry.timers", "ScopedTimer.__init__",
               "ScopedTimer.__enter__", "ScopedTimer.__exit__")
)

#: Layer names in reporting order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in LAYER_TARGETS))


def _enter(cm):
    return cm.__enter__()


def _exit(cm, *exc):
    return cm.__exit__(*exc)


class _TimedContext:
    """A context manager whose enter and exit are timed calls."""

    __slots__ = ("_cm", "_enter", "_exit")

    def __init__(self, cm, enter: Callable, exit_: Callable) -> None:
        self._cm = cm
        self._enter = enter
        self._exit = exit_

    def __enter__(self):
        return self._enter(self._cm)

    def __exit__(self, *exc):
        return self._exit(self._cm, *exc)


class LayerTimer:
    """Patch ``targets`` inside a ``with`` block and time them by layer.

    ``packages`` names the top-level packages whose loaded modules are
    scanned for bindings of function targets.  Targets whose module or
    attribute no longer exists are skipped and listed in ``missing``,
    so the benchmark survives the deletion of a function it times.
    """

    def __init__(self, targets: Sequence[Target] = LAYER_TARGETS,
                 packages: Sequence[str] = ("repro",)) -> None:
        self.targets = tuple(targets)
        self.packages = tuple(packages)
        self.layers = tuple(dict.fromkeys(t.layer for t in self.targets))
        self.missing: List[str] = []
        self._index = {layer: i for i, layer in enumerate(self.layers)}
        self._calls = [0] * len(self.layers)
        self._self_s = [0.0] * len(self.layers)
        self._rows = [0] * len(self.layers)
        self._stack: List[float] = []
        # (owner, attribute, original) in patching order
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: int, rows: bool) -> Callable:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"cannot time generator function {fn!r}: its "
                            f"body runs after the call returns")
        stack, calls, self_s = self._stack, self._calls, self._self_s
        row_counts = self._rows
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if rows:
                    row_counts[layer] += (len(result)
                                          if isinstance(result, list) else 1)
                return result
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return functools.update_wrapper(wrapper, fn)

    def _wrap_context(self, fn: Callable, layer: int) -> Callable:
        create = self._wrap(fn, layer, rows=False)
        enter = self._wrap(_enter, layer, rows=False)
        exit_ = self._wrap(_exit, layer, rows=False)

        def wrapper(*args, **kwargs):
            return _TimedContext(create(*args, **kwargs), enter, exit_)

        return functools.update_wrapper(wrapper, fn)

    def _patch_method(self, cls: type, name: str, target: Target) -> None:
        raw = vars(cls)[name]
        if getattr(raw, "__isabstractmethod__", False):
            return
        descriptor = type(raw) if isinstance(
            raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if descriptor else raw
        wrapped = self._wrap(fn, self._index[target.layer], target.rows)
        self._patches.append((cls, name, raw))
        setattr(cls, name, descriptor(wrapped) if descriptor else wrapped)

    def _modules(self) -> List[object]:
        return [
            module for name, module in list(sys.modules.items())
            if module is not None and any(
                name == p or name.startswith(p + ".") for p in self.packages)
        ]

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTimer":
        functions: Dict[int, Tuple[object, Callable]] = {}
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ModuleNotFoundError:
                self.missing.append(f"{target.module}:{target.qualname}")
                continue
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{target.module}:{target.qualname}")
                continue
            if owner_name:
                classes = [owner]
                if target.subclasses:
                    pending = list(owner.__subclasses__())
                    while pending:
                        cls = pending.pop()
                        classes.append(cls)
                        pending.extend(cls.__subclasses__())
                for cls in dict.fromkeys(classes):
                    if attr in vars(cls):
                        self._patch_method(cls, attr, target)
                continue
            original = getattr(module, attr)
            if id(original) in functions:
                continue
            layer = self._index[target.layer]
            wrapped = (self._wrap_context(original, layer) if target.context
                       else self._wrap(original, layer, target.rows))
            functions[id(original)] = (original, wrapped)
        # Every binding of a wrapped function, found by identity.
        for module in self._modules():
            for name, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and value is entry[0]:
                    self._patches.append((module, name, value))
                    setattr(module, name, entry[1])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s", "rows"}}`` in layer order."""
        return {
            layer: {"calls": self._calls[i], "self_s": self._self_s[i],
                    "rows": self._rows[i]}
            for i, layer in enumerate(self.layers)
        }
