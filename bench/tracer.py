"""Outside-in layer trace for the steen CLI.

Run as a script, this is a drop-in replacement for the ``steen`` command that
records where one job spends its time::

    python3 bench/tracer.py SPANS_FILE <steen arguments...>

It imports ``steen.cli``, rebinds the public functions of every ``steen``
module (and the methods of ``Echelon`` and ``FiniteModule``) to timing
wrappers, runs ``steen.cli.main`` and, when the job ends, writes the spans it
kept in memory to SPANS_FILE.  Nothing in the package is edited: a wrapper
replaces every module-level name that is bound to the original function, so
``from steen.milnor import milnor_product`` in ``resolution``, ``module`` and
``verify`` is covered as well as the call inside ``milnor`` itself.

A span is (layer id, parent span index, start, end).  A layer's self time is
the duration of its spans minus the time their direct child spans cover; its
total time is the union of its spans, so a layer that calls itself is not
counted twice.  The standard output of the job is untouched.

The parent process reads the file back with ``read_spans`` and reduces it with
``summarize``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
import types
from array import array
from dataclasses import dataclass, field

__all__ = ["CLASSES", "LAYERS", "Spans", "Tracer", "read_spans", "summarize"]

# Layers that group or rename wrapped callables, keyed by "<module>.<qualname>"
# of the original definition; any other callable is its own layer under that
# name (for example "gf2.kernel" or "modfile.load").
LAYERS = {
    "milnor.milnor_product": "milnor.product",
    "module.FiniteModule.act": "module.act",
    "module.FiniteModule.act_mono": "module.act",
    "module.FiniteModule.validate": "module.validate",
    "module.FiniteModule.__init__": "module.construct",
    "module.trivial_module": "module.construct",
    "module.shift": "module.construct",
    "module.dualize": "module.construct",
    "module.double": "module.construct",
    "module.restrict": "module.construct",
    "module.tensor": "module.construct",
    "resolution.minimal_resolution": "resolution.resolve",
    "resolution.resolution_checks": "resolution.checks",
    "resolution.ext_chart": "resolution.render",
    "resolution.emit_chart": "resolution.render",
    "resolution.dump_resolution": "resolution.render",
    "catalogue.get_module": "catalogue.build",
    "obstruction.obstruction_report": "obstruction.report",
    "unstable.truncate_quotient": "unstable.quotient",
    "unstable.compare_range": "unstable.compare",
}

# Wrapped functions whose results feed the work counts: kernel vectors, and the
# returned resolutions' generators and columns.
KEEP_RESULTS = ("gf2.kernel", "resolution.minimal_resolution")

# Classes whose methods are wrapped; every method of Echelon is one layer.
CLASSES = {"gf2.Echelon": "gf2.echelon", "module.FiniteModule": None}

ROOT = -1


def _short(module_name: str) -> str:
    return module_name.removeprefix("steen.")


def _steen_modules() -> list[types.ModuleType]:
    import steen

    mods = [steen]
    for info in sorted(pkgutil.iter_modules(steen.__path__), key=lambda i: i.name):
        mods.append(importlib.import_module(f"steen.{info.name}"))
    return mods


def _traceable(obj, module_name: str) -> bool:
    """Plain or lru-cached functions defined in the module, not generators."""
    if not callable(obj) or getattr(obj, "__module__", None) != module_name:
        return False
    fn = getattr(obj, "__wrapped__", obj)
    return isinstance(fn, types.FunctionType) and not inspect.isgeneratorfunction(fn)


class Tracer:
    """Span recorder and the wrappers that feed it.

    Spans live in flat arrays (layer id, parent index, start, end) so that a
    job with a million calls costs tens of megabytes, not hundreds.
    """

    def __init__(self) -> None:
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layers = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [ROOT]
        self._undo: list[tuple[object, str, object]] = []
        self.resolutions: list = []
        self.kernel_vectors = 0

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return lid

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span under the current one, timed by the caller."""
        self.layers.append(self.layer_id(name))
        self.parents.append(self._stack[-1])
        self.starts.append(start)
        self.ends.append(end)

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, fn, layer: str, qualname: str):
        layers, parents, starts, ends = self.layers, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter
        lid = self.layer_id(layer)
        # ledger criteria are one layer each, named by the criterion's slug
        name_of = self.layer_id if qualname == "verify.run_criterion" else None
        keep = self._keep_result if qualname in KEEP_RESULTS else None

        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(lid if name_of is None else name_of(f"verify.{args[0].slug}"))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep is not None:
                keep(qualname, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _keep_result(self, qualname: str, result) -> None:
        # bookkeeping after the span has closed, so it is not charged to it
        if qualname == "gf2.kernel":
            self.kernel_vectors += len(result)
        else:
            self.resolutions.append(result)

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every public function and the listed classes' methods."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = _steen_modules()
        wrapped: dict[int, tuple[object, object]] = {}
        for mod in mods:
            mname = _short(mod.__name__)
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if id(obj) in wrapped or not _traceable(obj, mod.__name__):
                    continue
                qualname = f"{mname}.{name}"
                layer = LAYERS.get(qualname, qualname)
                wrapped[id(obj)] = (obj, self._wrapper(obj, layer, qualname))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])
        for cls_path, class_layer in CLASSES.items():
            mname, cname = cls_path.split(".")
            cls = getattr(importlib.import_module(f"steen.{mname}"), cname)
            for attr, value in list(vars(cls).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if attr.startswith("_") and attr != "__init__":
                    continue
                qualname = f"{cls_path}.{attr}"
                layer = class_layer or LAYERS.get(qualname, qualname)
                self._rebind(cls, attr, self._wrapper(value, layer, qualname))

    def uninstall(self) -> None:
        """Restore every binding install() replaced, newest first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- counters read when the job ends ------------------------------------

    def counters(self) -> dict[str, int]:
        """Cache and resolution counts; call after uninstall()."""
        from steen import catalogue, milnor

        product = milnor._product_monomials.cache_info()
        expansion = milnor._expansion_table.cache_info()
        builds = catalogue.get_module.cache_info()
        generators = columns = 0
        for R in self.resolutions:
            generators += sum(len(d) for d in R.degrees)
            columns += _free_dimension(R)
        return {
            "milnor.product_cache.hits": product.hits,
            "milnor.product_cache.misses": product.misses,
            "milnor.expansion_cache.misses": expansion.misses,
            "catalogue.builds": builds.misses,
            "gf2.kernel.vectors": self.kernel_vectors,
            "resolution.generators": generators,
            "resolution.columns": columns,
        }

    def write(self, path: str, counters: dict[str, int]) -> None:
        header = {"layers": self.layer_names, "spans": len(self.starts), "counters": counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layers, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def _free_dimension(R) -> int:
    """Free-module dimension of the resolution summed over (s, t)."""
    from steen.milnor import enumerate_basis

    total = 0
    for degrees in R.degrees:
        for t in range(R.t_max + 1):
            total += sum(len(enumerate_basis(R.algebra, t - tj)) for tj in degrees if tj <= t)
    return total


@dataclass
class Spans:
    """The spans of one traced job, as written by Tracer.write."""

    layer_names: list[str]
    layers: array
    parents: array
    starts: array
    ends: array
    counters: dict[str, int] = field(default_factory=dict)


def read_spans(path) -> Spans:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return Spans(header["layers"], *arrays, header["counters"])


def summarize(spans: Spans) -> dict[str, dict[str, float]]:
    """Per layer: span count, self seconds and total (union) seconds."""
    n = len(spans.starts)
    starts, ends, parents, layers = spans.starts, spans.ends, spans.parents, spans.layers
    self_time = [0.0] * n
    for i in range(n):
        d = ends[i] - starts[i]
        self_time[i] += d
        p = parents[i]
        if p >= 0:
            self_time[p] -= d
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in spans.layer_names}
    last_end = [float("-inf")] * len(spans.layer_names)
    for i in range(n):
        lid = layers[i]
        row = out[spans.layer_names[lid]]
        row["calls"] += 1
        row["self_s"] += self_time[i]
        # spans come in start order and nest, so a span that starts before
        # the last outermost span of its layer ended lies inside it
        if starts[i] >= last_end[lid]:
            row["total_s"] += ends[i] - starts[i]
            last_end[lid] = ends[i]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 1:
        print("usage: tracer.py SPANS_FILE [steen arguments...]", file=sys.stderr)
        return 2
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import steen.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = steen.cli.main(args)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    tracer.uninstall()
    tracer.write(out_path, tracer.counters())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
