"""Per-layer tracing through timing wrappers installed from outside the library.

``traced(tracer)`` replaces the public functions and methods of each bcounter
module with wrappers that time every call as a span, and puts the originals
back on exit. A span is charged to the layer that defines the callee. A
layer is a module of the package, named without its ``bcounter.`` prefix
(``crdt``, ``sim.kernel``, ...). A layer's self time is the duration of its
spans minus the durations of the spans nested in them, so the self times of
all layers add up to the time spent inside the outermost spans.

Some code is not entered by a direct call from a wrapped function, and gets a
proxy instead:

* generators. A process passed to ``Simulator.spawn``, and the public
  generator methods (``client_op``, ``ClientMiddleware.update``) that callers
  drive with ``yield from``, are wrapped in a proxy that times each
  resumption and charges it to the module that defines the generator.
* callbacks passed to ``Simulator.schedule`` and handlers passed to
  ``Network.send``, charged to the module that defines them.

Spans of one simulated client op share an op id. Each ``client_op`` call
starts a new id, and a scheduled callback carries the id that was current
when it was scheduled, so work an op causes elsewhere keeps its id.

Aggregates stay in memory. Individual spans are kept only for a bounded
sample: every span of one op in ``OP_SAMPLE``, and one background span (no op)
in ``BACKGROUND_SAMPLE``, up to ``MAX_SPANS``.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "crdt",
    "transfer",
    "store",
    "middleware_client",
    "middleware_server",
    "sim.kernel",
    "sim.net",
    "sim.strategies",
    "sim.harness",
    "sim.metrics",
    "checker",
)

# Classes whose public methods are wrapped, per layer. Every public
# module-level function of every layer is wrapped as well.
CLASSES = {
    "crdt": ("BoundedCounter",),
    "store": ("DCStore",),
    "middleware_client": ("ClientMiddleware",),
    "middleware_server": ("ServerCluster", "Node"),
    "sim.kernel": ("Simulator",),
    "sim.net": ("Network",),
    "sim.strategies": (
        "TallyCounter",
        "Driver",
        "WeakDriver",
        "StrongDriver",
        "_BoundedDriver",
        "ClientDriver",
        "ServerDriver",
    ),
    "sim.harness": ("Run",),
    "sim.metrics": ("Metrics",),
}

# Kernel bookkeeping done for every event. Timed as spans, it would charge the
# kernel more tracer cost than kernel work, so it runs inside its caller's
# span; schedule and spawn still hand proxies to the original.
UNTIMED = frozenset(
    {"Simulator.schedule", "Simulator.spawn", "Simulator.call_soon", "Simulator.pending"}
)

OP_SAMPLE = 256
BACKGROUND_SAMPLE = 4096
MAX_SPANS = 20_000

_clock = time.perf_counter
_NO_KWARGS: dict = {}


def module(layer: str):
    return sys.modules[f"bcounter.{layer}"]


class Tracer:
    """Span aggregates of one traced run."""

    def __init__(self):
        self.top: list | None = None  # innermost open span: [child_s, span_id, layer]
        self.op = 0  # current client op id; 0 for background work
        self.next_op = 0
        self.next_span = 0
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, list] = {}  # "layer:qualname" -> [calls, inclusive_s]
        self.root_s = 0.0  # summed duration of the outermost spans
        self.hook_s = 0.0  # counting-hook time inside open spans, excluded from self time
        self.counts: dict[str, int] = {}
        self.seen_worlds: set[int] = set()
        self.spans: list[tuple] = []
        self.origin = _clock()
        self._sites: dict = {}
        self._layer_of_file = {module(layer).__file__: layer for layer in LAYERS}

    def stat(self, layer: str, name: str) -> list:
        return self.calls.setdefault(f"{layer}:{name}", [0, 0.0])

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- spans -------------------------------------------------------------

    def span(self, layer, stat, name, fn, args, kwargs):
        parent = self.top
        self.next_span += 1
        frame = [0.0, self.next_span, layer]
        self.top = frame
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            self.top = parent
            d = t1 - t0
            self.self_s[layer] += d - frame[0]
            stat[0] += 1
            stat[1] += d
            if parent is None:
                self.root_s += d
            else:
                parent[0] += d
            op = self.op
            keep = op % OP_SAMPLE == 1 if op else frame[1] % BACKGROUND_SAMPLE == 0
            if keep and len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (
                        frame[1],
                        parent[1] if parent else 0,
                        op,
                        layer,
                        name,
                        t0 - self.origin,
                        t1 - self.origin,
                    )
                )

    def hooked(self, layer, stat, name, fn, args, kwargs, hook):
        """A span followed by a counting hook whose time no layer is charged."""
        caller = self.top[2] if self.top is not None else None
        result = self.span(layer, stat, name, fn, args, kwargs)
        h0 = _clock()
        hook(self, args, result, caller)
        h = _clock() - h0
        if self.top is not None:
            self.top[0] += h
            self.hook_s += h
        return result

    # -- wrappers and proxies ----------------------------------------------

    def wrap(self, fn, layer: str, name: str, hook=None):
        stat = self.stat(layer, name)
        if inspect.isgeneratorfunction(fn):
            # calls of ``name`` count the generators made; their resumptions
            # are the spans, under ``name.resume``
            resumed = self.stat(layer, f"{name}.resume")
            starts_op = name.endswith(".client_op")

            def generator(*args, **kwargs):
                stat[0] += 1
                op = self.new_op() if starts_op else None
                return _GenProxy(self, fn(*args, **kwargs), layer, resumed, name, op)

            return generator
        if hook is None:

            def wrapper(*args, **kwargs):
                return self.span(layer, stat, name, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                return self.hooked(layer, stat, name, fn, args, kwargs, hook)

        return wrapper

    def new_op(self) -> int:
        self.next_op += 1
        return self.next_op

    def _site(self, code) -> tuple[str, list, str]:
        site = self._sites.get(code)
        if site is None:
            layer = self._layer_of_file.get(code.co_filename)
            if layer is None:
                raise RuntimeError(f"no layer defines {code.co_filename}")
            name = getattr(code, "co_qualname", code.co_name)
            site = self._sites[code] = (layer, self.stat(layer, name), name)
        return site

    def process(self, gen) -> "_GenProxy":
        layer, stat, name = self._site(gen.gi_code)
        return _GenProxy(self, gen, layer, stat, name, None)

    def callback(self, fn, event: bool):
        code = getattr(fn, "__code__", None) or fn.__func__.__code__
        layer, stat, name = self._site(code)
        op = self.op

        def proxy():
            if event:
                self.counts["events"] += 1
            prev, self.op = self.op, op
            try:
                return self.span(layer, stat, name, fn, (), _NO_KWARGS)
            finally:
                self.op = prev

        return proxy

    # -- results -------------------------------------------------------------

    def calls_of(self, layer: str, *names: str) -> tuple[int, float]:
        """Summed (calls, inclusive seconds) of the named functions of a layer."""
        calls, total = 0, 0.0
        for name in names:
            c, t = self.calls.get(f"{layer}:{name}", (0, 0.0))
            calls += c
            total += t
        return calls, total


class _GenProxy:
    """Drives a generator and times each resumption as a span."""

    __slots__ = ("tracer", "gen", "layer", "stat", "name", "op")

    def __init__(self, tracer, gen, layer, stat, name, op):
        self.tracer = tracer
        self.gen = gen
        self.layer = layer
        self.stat = stat
        self.name = name
        self.op = op

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self.gen.send, (value,))

    def throw(self, *exc):
        return self._resume(self.gen.throw, exc)

    def close(self):
        self.gen.close()

    def _resume(self, step, args):
        t = self.tracer
        if self.op is None:
            return t.span(self.layer, self.stat, self.name, step, args, _NO_KWARGS)
        prev, t.op = t.op, self.op
        try:
            return t.span(self.layer, self.stat, self.name, step, args, _NO_KWARGS)
        finally:
            t.op = prev


# -- what the traced run installs ---------------------------------------------


def _adapters(tracer: Tracer) -> dict:
    """Replacements, keyed by qualname, that hand proxies to the original."""
    kernel = module("sim.kernel")
    pending = kernel.Simulator.pending
    tracer.counts.update(events=0, processes=0, queue_peak=0)

    def schedule(orig):
        def adapted(sim, delay, fn):
            orig(sim, delay, tracer.callback(fn, event=True))
            depth = pending(sim)
            if depth > tracer.counts["queue_peak"]:
                tracer.counts["queue_peak"] = depth

        return adapted

    def spawn(orig):
        def adapted(sim, gen):
            tracer.counts["processes"] += 1
            return orig(sim, tracer.process(gen))

        return adapted

    def send(orig):
        def adapted(net, src, dst, deliver):
            return orig(net, src, dst, tracer.callback(deliver, event=False))

        return adapted

    return {"Simulator.schedule": schedule, "Simulator.spawn": spawn, "Network.send": send}


def _hooks(tracer: Tracer) -> dict:
    """Counting hooks, keyed by qualname, for ratios the layers do not expose."""
    granted = module("transfer").TransferStatus.GRANTED

    def on_grant(t, args, result, caller):
        if result[1].status is granted:
            t.count("transfer.granted")

    def on_tally(t, args, result, caller):
        t.count("tally.decodes")
        t.count("tally.actors", len(result.incs) + len(result.decs))

    def on_world(t, args, result, caller):
        # explore checks each world it adds to its seen table once. Equal
        # entries mean equal canonical encodings, which is what explore keys
        # that table on; hashing the entries costs less than encoding them.
        key = tuple((frozenset(s.rights.items()), frozenset(s.used.items())) for s in args[0])
        t.seen_worlds.add(hash(key))

    def on_cond_write(t, args, result, caller):
        t.count(f"cond_writes.{caller}")

    return {
        "handle_request": on_grant,
        "TallyCounter.decode": on_tally,
        "check_invariants": on_world,
        "DCStore.put_conditional": on_cond_write,
    }


def _record_counter(tracer: Tracer, record_cls):
    """Stands in for store.VersionedRecord to count siblings per completed read."""

    def record(*args, **kwargs):
        rec = record_cls(*args, **kwargs)
        # DCStore.get's completion is the only closure named "complete" that
        # builds a record; DCStore.peek builds them too, but is not a read
        if sys._getframe(1).f_code.co_name == "complete":
            tracer.count("store.records")
            tracer.count("store.siblings", len(rec.siblings))
        return rec

    return record


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block; always restores."""
    undo: list[tuple[object, str, object]] = []

    def patch(obj, name, value):
        undo.append((obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    try:
        adapters = _adapters(tracer)
        hooks = _hooks(tracer)
        originals = {}  # original function -> wrapper, for patching every import
        for layer in LAYERS:
            mod = module(layer)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, raw in list(vars(cls).items()):
                    if name.startswith("_"):
                        continue
                    qual = f"{cls.__name__}.{name}"
                    if isinstance(raw, classmethod):
                        wrapped = tracer.wrap(raw.__func__, layer, qual, hooks.get(qual))
                        patch(cls, name, classmethod(wrapped))
                    elif inspect.isfunction(raw):
                        fn = adapters[qual](raw) if qual in adapters else raw
                        if qual not in UNTIMED:
                            fn = tracer.wrap(fn, layer, qual, hooks.get(qual))
                        if fn is not raw:
                            patch(cls, name, fn)
            for name, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    originals[fn] = tracer.wrap(fn, layer, name, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "bcounter" or mod_name.startswith("bcounter."):
                for name, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in originals:
                        patch(mod, name, originals[value])
        store = module("store")
        patch(store, "VersionedRecord", _record_counter(tracer, store.VersionedRecord))
        yield tracer
    finally:
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)
