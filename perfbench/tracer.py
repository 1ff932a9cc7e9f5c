"""In-process tracer for the qchar layers.

The tracer replaces selected functions with wrappers, in every module
namespace of the package that holds them by name (``characters.lattice_sum``
is the same function as ``fermionic.lattice_sum`` and gets the same
wrapper).  Public layer functions record spans; the private generators that
mark layer boundaries record how many items they yield.  Nothing in ``src/``
is edited: the wrappers are installed at run time, in the traced process
only.

Spans are kept in flat arrays (name, parent, start, end) and reduced to
per-name self time when the run ends.  A helper that a later version of the
package no longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

PACKAGE = "qchar"
MODULES = ("laurent", "qbinom", "supernomial", "fermionic", "fusion",
           "characters", "verify", "cli")

# (module, attribute path, span name); spans of memoised functions also
# record their distinct arguments so a hit ratio can be derived.
SPANS = (
    ("laurent", "_qdict_mul", "laurent.qdict_mul"),
    ("laurent", "BiLaurent.__mul__", "laurent.BiLaurent.mul"),
    ("laurent", "BiLaurent.divide_exact", "laurent.divide_exact"),
    ("qbinom", "qbinomial", "qbinom.qbinomial"),
    ("qbinom", "qbinomial_ext", "qbinom.qbinomial_ext"),
    ("qbinom", "qpochhammer", "qbinom.qpochhammer"),
    ("supernomial", "supernomial", "supernomial.supernomial"),
    ("supernomial", "supernomial_at1", "supernomial.supernomial_at1"),
    ("fermionic", "lattice_sum", "fermionic.lattice_sum"),
    ("fermionic", "fermionic_sum", "fermionic.fermionic_sum"),
    ("fermionic", "lattice_support", "fermionic.lattice_support"),
    ("fermionic", "support_box", "fermionic.support_box"),
    ("fusion", "fusion_dims", "fusion.fusion_dims"),
    ("fusion", "dims_via_supernomial", "fusion.dims_via_supernomial"),
    ("fusion", "decompose_site", "fusion.decompose_site"),
    ("characters", "coinv_char_fermionic", "characters.coinv_char_fermionic"),
    ("characters", "coinv_char_supernomial", "characters.coinv_char_supernomial"),
    ("characters", "supernomial_char_poly", "characters.supernomial_char_poly"),
    ("characters", "spectral_flow_check", "characters.spectral_flow_check"),
    ("verify", "run_identity", "verify.run_identity"),
    ("cli", "main", "cli.main"),
)
MEMOISED = ("qbinom.qbinomial", "qbinom.qbinomial_ext", "qbinom.qpochhammer",
            "supernomial.supernomial", "supernomial.supernomial_at1")

# (module, generator, counter name): items yielded per layer boundary
GENERATORS = (
    ("fermionic", "_leaves", "fermionic.leaves"),
    ("fermionic", "_summands", "fermionic.candidates"),
    ("supernomial", "_compositions", "supernomial.compositions.yielded"),
)

IDENTITIES = ("pascal", "rdc", "knuth", "ta", "tb", "rec", "char-eq", "flow",
              "dims")


def _hashable(args):
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.span_names: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start_of = array("d")
        self.end_of = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.reports: list = []
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name: str):
        nid = len(self.span_names)
        self.span_names.append(name)
        names, parents = self.name_of, self.parent_of
        starts, ends, stack = self.start_of, self.end_of, self.stack
        clock = time.perf_counter
        seen = self.distinct.setdefault(name, set()) if name in MEMOISED else None
        counts = self.counts
        is_mul = name == "laurent.qdict_mul"
        is_run = name == "verify.run_identity"
        counts.setdefault(name + ".calls", 0)
        if is_mul:
            counts.setdefault(name + ".coef_mults", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(_hashable(args))
            if is_mul:
                counts["laurent.qdict_mul.coef_mults"] += len(args[0]) * len(args[1])
            counts[name + ".calls"] += 1
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if is_run:
                self.reports.append((result, ends[sid] - starts[sid]))
            return result

        return wrapper

    def _counted(self, gen, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(gen)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in gen(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[name] += n

        return wrapper

    def install(self) -> None:
        """Wrap every target in every package namespace that holds it."""
        package = importlib.import_module(PACKAGE)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        replace = {}
        for mod, path, name in SPANS:
            owner, fn = _resolve(modules[mod], path)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._span(fn, name)
            replace[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                # class attributes aliased to the same function (__rmul__)
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        self._set(owner, key, wrapper)
        for mod, attr, name in GENERATORS:
            fn = getattr(modules[mod], attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            replace[id(fn)] = (fn, self._counted(fn, name))
        for namespace in (package, *modules.values()):
            for key, value in list(vars(namespace).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(namespace, key, hit[1])

    def _set(self, owner, key: str, value) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._installed):
            setattr(owner, key, value)
        self._installed.clear()

    # -- reduction --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-name self time: span duration minus the time covered by its
        child spans (spans nest, since the traced code is single-threaded)."""
        n = len(self.name_of)
        child = [0.0] * n
        dur = [self.end_of[i] - self.start_of[i] for i in range(n)]
        for i in range(n):
            p = self.parent_of[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: 0.0 for name in self.span_names}
        for i in range(n):
            out[self.span_names[self.name_of[i]]] += dur[i] - child[i]
        return out

    def metrics(self) -> dict[str, float | int]:
        """Flat per-layer metrics; names of absent helpers are left out."""
        out: dict[str, float | int] = dict(self.counts)
        for name, value in self.self_times().items():
            out[name + ".self_s"] = value
        for name, seen in self.distinct.items():
            calls = self.counts[name + ".calls"]
            out[name + ".hit_ratio"] = 1 - len(seen) / calls if calls else 0.0
        if "fermionic.leaves" in out and "fermionic.candidates" in out:
            leaves = out["fermionic.leaves"]
            out["fermionic.candidate_ratio"] = (
                out["fermionic.candidates"] / leaves if leaves else 0.0)
        if "verify.run_identity" not in self.absent:
            for ident in IDENTITIES:
                for suffix in ("cases", "check_s", "casegen_s"):
                    out[f"verify.{ident}.{suffix}"] = 0
            for report, seconds in self.reports:
                key, check_s = f"verify.{report.identity}", report.ms / 1000
                for suffix, value in (("cases", report.cases), ("check_s", check_s),
                                      ("casegen_s", seconds - check_s)):
                    out[f"{key}.{suffix}"] = out.get(f"{key}.{suffix}", 0) + value
        return out


def _resolve(module, path: str):
    """(owner, function) for a dotted path; the function is None if absent."""
    owner, _, attr = path.rpartition(".")
    owner = getattr(module, owner, None) if owner else module
    fn = getattr(owner, attr, None)
    return owner, fn if callable(fn) else None
