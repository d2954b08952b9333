"""Per-layer timing from outside the package.

`LayerTracer` wraps every public function and public method defined in each
layer module of `maw` with a timing wrapper, and `SpanRecorder` turns the
nested calls into per-layer self time: a call's duration minus the part of it
that nested wrapped calls cover.  Nothing in the package is edited; the
wrappers are installed by rebinding names and removed again by `uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("autodiff", "nets", "linalg", "model", "evaluation", "theory", "cli")


class SpanRecorder:
    """Self and inclusive time of nested calls, from explicit timestamps."""

    def __init__(self):
        self.watched = set()
        self.reset()

    def reset(self):
        self._stack = []  # [layer, key, start, time covered by children]
        self.self_s = defaultdict(float)
        self.layer_calls = Counter()
        self.inclusive_s = defaultdict(float)
        self.children = {key: [] for key in self.watched}

    def watch(self, key: str):
        """Keep (key, duration) of each direct child of spans keyed `key`."""
        self.watched.add(key)
        self.children.setdefault(key, [])

    def enter(self, layer: str, key: str, now: float):
        self._stack.append([layer, key, now, 0.0])

    def exit(self, now: float):
        layer, key, start, covered = self._stack.pop()
        duration = now - start
        self.self_s[layer] += duration - covered
        self.layer_calls[layer] += 1
        self.inclusive_s[key] += duration
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            if parent[1] in self.watched:
                self.children[parent[1]].append((key, duration))


def public_callables(module):
    """(qualified name, owning class or None, attribute) for each public
    function and public method defined in `module` itself."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((name, None, obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, (staticmethod, classmethod)):
                    found.append((f"{name}.{attr}", obj, member))
    return found


class LayerTracer:
    """Installs timing wrappers on the layer modules of a loaded `maw`.

    Every wrapped call is a span keyed `<layer>.<qualified name>`.  Two extra
    probes give the training phases: any model-layer call that returns an
    object with an `optimizers` dict registers those optimizers by key, and
    each return from `nets.Optimizer.step` closes the phase of that
    optimizer, which began at the previous step's return or at entry to
    `model.train`.  The last value returned by each span key the recorder
    watches is kept in `returned`.
    """

    PHASES = {"vae": "recon", "critic": "critic", "gen": "gen"}

    def __init__(self, package_name: str):
        self.package_name = package_name
        self.recorder = SpanRecorder()
        self.wrapped = set()
        self._undo = []
        self.phase_s = defaultdict(float)
        self.returned = {}
        self._phase_of = {}
        self._phase_mark = None

    def reset(self):
        self.recorder.reset()
        self.returned = {}
        self.phase_s = defaultdict(float)
        self._phase_of = {}
        self._phase_mark = None

    # ---------------------------------------------------------------- install

    def install(self):
        self.wrapped = set()
        modules = {
            name: sys.modules[f"{self.package_name}.{name}"]
            for name in LAYERS
            if f"{self.package_name}.{name}" in sys.modules
        }
        namespaces = [
            m for name, m in sys.modules.items()
            if name == self.package_name or name.startswith(self.package_name + ".")
        ]
        for layer, module in modules.items():
            for qualname, owner, member in public_callables(module):
                key = f"{layer}.{qualname}"
                if owner is None:
                    wrapper = self._wrap(member, layer, key)
                    # rebind every reference the package holds, re-exports included
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is member:
                                self._rebind(ns, attr, member, wrapper)
                else:
                    if isinstance(member, (staticmethod, classmethod)):
                        wrapper = type(member)(self._wrap(member.__func__, layer, key))
                    else:
                        wrapper = self._wrap(member, layer, key)
                    self._rebind(owner, qualname.rsplit(".", 1)[1], member, wrapper)
                self.wrapped.add(key)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _rebind(self, target, attr, original, wrapper):
        setattr(target, attr, wrapper)
        self._undo.append((target, attr, original))

    def _wrap(self, fn, layer, key):
        enter, exit_ = self.recorder.enter, self.recorder.exit
        clock = time.perf_counter
        if key == "model.train":
            def on_enter():
                self._phase_mark = clock()
        else:
            on_enter = None
        if key == "nets.Optimizer.step":
            on_return = self._close_phase
        elif key in self.recorder.watched:
            def on_return(args, result):
                self.returned[key] = result
        elif layer == "model":
            on_return = self._register_optimizers
        else:
            on_return = None

        if on_enter is None and on_return is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(layer, key, clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(clock())
            return wrapper

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            enter(layer, key, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(clock())
            if on_return is not None:
                on_return(args, result)
            return result
        return hooked

    def _register_optimizers(self, args, result):
        optimizers = getattr(result, "optimizers", None)
        if isinstance(optimizers, dict):
            for name, opt in optimizers.items():
                if name in self.PHASES:
                    self._phase_of[id(opt)] = self.PHASES[name]

    def _close_phase(self, args, result):
        now = time.perf_counter()
        phase = self._phase_of.get(id(args[0])) if args else None
        if phase is not None and self._phase_mark is not None:
            self.phase_s[phase] += now - self._phase_mark
        self._phase_mark = now

    # ---------------------------------------------------------------- results

    def inclusive(self, *keys):
        """Summed inclusive seconds of the given span keys, or None when none
        of them was found in the package (a function that no longer exists)."""
        present = [k for k in keys if k in self.wrapped]
        if not present:
            return None
        return sum(self.recorder.inclusive_s.get(k, 0.0) for k in present)
