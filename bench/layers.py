"""Per-layer tracing installed from outside the package.

Each layer is a function or IntMatrix method of cwhom.  The tracer
replaces it with a wrapper in every cwhom module namespace that bound the
same object (``from .intmat import quotient_group`` copies the binding),
so calls are seen whichever module makes them.  A wrapper records calls
and self time: the span's duration minus the spans of wrapped layers
called inside it.  Counting work done after a span ends (entry bit
lengths, document bytes) is charged to no layer.

A layer whose name is missing from the package is reported as absent, with
zero calls, so a refactor that renames or removes it does not stop a run.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric prefix -> (module, attribute); "Class.method" names a method
LAYERS = {
    "intmat.snf": ("intmat", "_snf_ext"),
    "intmat.coords": ("intmat", "_coordinates_from_ext"),
    "intmat.apply": ("intmat", "IntMatrix.apply"),
    "intmat.matmul": ("intmat", "IntMatrix.__matmul__"),
    "intmat.quotient_group": ("intmat", "quotient_group"),
    "intmat.mod_d_quotient": ("intmat", "mod_d_quotient"),
    "complexes.validate": ("complexes", "validate"),
    "homology.chain_group": ("homology", "chain_group"),
    "homology.induced_hom": ("homology", "induced_hom"),
    "chainmaps.mapping_cone": ("chainmaps", "mapping_cone"),
    "chainmaps.induced_map": ("chainmaps", "induced_map"),
    "chainmaps.connecting_map": ("chainmaps", "connecting_map"),
    "chainmaps.shift_iso": ("chainmaps", "shift_iso"),
    "chainmaps.validate_map": ("chainmaps", "validate_map"),
    "abgroups.invert_iso": ("abgroups", "invert_iso"),
    "abgroups.is_exact_pair": ("abgroups", "is_exact_pair"),
    "abgroups.hom_subquotient": ("abgroups", "hom_subquotient"),
    "abgroups.normalize_diagonal": ("abgroups", "normalize_diagonal"),
    "verify.check_dimension": ("verify", "check_dimension"),
    "verify.check_suspension": ("verify", "check_suspension"),
    "verify.check_wedge": ("verify", "check_wedge"),
    "verify.check_les_exactness": ("verify", "check_les_exactness"),
    "verify.check_skeletal_reformulation": ("verify", "check_skeletal_reformulation"),
    "documents.loads_complex": ("documents", "loads_complex"),
    "documents.dumps": ("documents", "dumps"),
}

# counters beyond calls and self_s, each with the layer that fills it
EXTRA_COUNTS = {
    "intmat.snf": ("cells", "max_bits"),
    "homology.chain_group": ("misses",),
    "documents.loads_complex": ("bytes",),
    "documents.dumps": ("bytes",),
}

PACKAGE = "cwhom"


def _max_bits(ext) -> int:
    best = 0
    for name in ("U", "Uinv", "V", "Vinv"):
        m = getattr(ext, name, None)
        for v in getattr(m, "entries", ()):
            b = abs(v).bit_length()
            if b > best:
                best = b
    return best


def _snf_counts(stats, args, result):
    a = args[0]
    stats["cells"] += a.rows * a.cols
    bits = _max_bits(result)
    if bits > stats["max_bits"]:
        stats["max_bits"] = bits


def _loads_counts(stats, args, result):
    stats["bytes"] += len(args[0])


def _dumps_counts(stats, args, result):
    stats["bytes"] += len(result)


_COUNTERS = {
    "intmat.snf": _snf_counts,
    "documents.loads_complex": _loads_counts,
    "documents.dumps": _dumps_counts,
}


class Tracer:
    """Wraps the layers of an imported cwhom; ``report()`` reads them out."""

    def __init__(self):
        self.stack = [[0.0]]  # child time of each open span; [0] is the root
        self.stats = {}
        self.absent = []
        self._cache_start = None
        self._cached = None

    def _wrap(self, layer, fn):
        stats = self.stats[layer]
        count = _COUNTERS.get(layer)
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += (t1 - t0) - frame[0]
                stack[-1][0] += t1 - t0
            if count is not None:
                count(stats, args, result)
                stack[-1][0] += perf_counter() - t1
            return result

        # keep an lru_cache's interface for callers that use it
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, (modname, attr) in LAYERS.items():
            self.stats[layer] = {"calls": 0, "self_s": 0.0,
                                 **{k: 0 for k in EXTRA_COUNTS.get(layer, ())}}
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                fn = vars(owner).get(meth) if isinstance(owner, type) else None
                if not callable(fn):
                    self.absent.append(layer)
                    continue
                setattr(owner, meth, self._wrap(layer, fn))
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
            if layer == "homology.chain_group" and hasattr(fn, "cache_info"):
                self._cached = fn
                self._cache_start = fn.cache_info()

    def report(self, wall_s: float) -> dict:
        """Per-layer figures for the pass that took ``wall_s`` seconds."""
        out = {}
        for layer, stats in self.stats.items():
            for key, value in stats.items():
                out[f"{layer}.{key}"] = value
        if self._cached is not None:
            info = self._cached.cache_info()
            hits = info.hits - self._cache_start.hits
            misses = info.misses - self._cache_start.misses
            out["homology.chain_group.misses"] = misses
            out["homology.chain_group.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        else:
            out["homology.chain_group.hit_ratio"] = 0.0
        out["pass.self_s"] = wall_s - self.stack[0][0]
        return {"metrics": out, "absent": self.absent}
