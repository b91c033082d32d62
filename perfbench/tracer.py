"""Per-layer tracing of crystalsums from outside the package.

A layer is one module of the package.  ``Tracer.install`` wraps every
public function of every layer, plus ``QLaurent.__add__`` and
``QLaurent.__mul__``, and rebinds every name that refers to the original:
the defining module's and each ``from .x import f`` alias in the other
modules.  ``uninstall`` puts the originals back.

Each call pushes a frame; when it returns, its duration is added to the
caller's child time, so a function's self time is its duration minus the
time of the wrapped calls it made.  Calls of the functions in ``HOT`` only
add to per-name totals; every other call is also kept as a span (name,
start, end, parent span) and written out at the end.
"""
from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

WRAPPED = "__perfbench_wrapped__"
LAYERS = ("qpoly", "partitions", "cartan", "crystal", "energy", "bosonic",
          "fermionic", "hardhex", "cli")

# called per term, per word or per shape: aggregated, no span per call
HOT = frozenset({
    "qpoly.add", "qpoly.mul", "qpoly.q_power", "qpoly.qbinomial",
    "qpoly.exact_div", "qpoly.qmultinomial", "qpoly.invert_q",
    "partitions.partitions_of", "partitions.partitions_in_box",
    "partitions.conjugate", "partitions.part", "partitions.num_parts_of_size",
    "partitions.q_columns", "partitions.contains",
    "partitions.is_horizontal_strip", "partitions.horizontal_strip_extensions",
    "partitions.superpartitions",
    "cartan.cartan_data", "cartan.generator_action",
    "crystal.letters_of", "crystal.letter_weight", "crystal.letter_f",
    "crystal.letter_e", "crystal.letter_arrow", "crystal.factor_elements",
    "crystal.factor_weight", "crystal.factor_arrow", "crystal.factor_stats",
    "crystal.word", "crystal.letters_word", "crystal.word_weight",
    "crystal.string_stats", "crystal.tensor_arrow", "crystal.reflection_s",
    "crystal.is_classically_restricted", "crystal.highest_weight_element",
    "energy.combinatorial_r", "energy.apply_sigma", "energy.local_h",
    "energy.energy_EB", "energy.intrinsic_D", "energy.coenergy_D",
    "bosonic.supernomial", "bosonic.supernomial_A_columns",
    "bosonic.supernomial_A_rows", "bosonic.supernomial_C_boxes",
    "bosonic.self_key",
    "fermionic.config_sizes", "fermionic.vacancy", "fermionic.cc_shape",
    "fermionic.cc_stat", "fermionic.cc_theta", "fermionic.theta",
    "fermionic.shape_L", "fermionic.vacuum_weight",
    "hardhex.hh_energy", "hardhex.bosonic_term",
})


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "crystalsums" or name.startswith("crystalsums."))]


def _defined_in(obj, module) -> bool:
    """A plain or functools-cached function defined in ``module``."""
    fn = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_info") else obj
    return inspect.isfunction(fn) and fn.__module__ == module.__name__


def unwrapped_problems(modules) -> list[str]:
    """Every package attribute that is not the original function: a
    tracer wrapper, or an alias that differs from its defining module's
    binding.  Empty when the package is untouched."""
    out = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, WRAPPED, False):
                out.append(f"{mod.__name__}.{attr} is wrapped")
                continue
            home = sys.modules.get(getattr(obj, "__module__", None) or "")
            if home is not None and home is not mod and home in modules \
                    and inspect.isfunction(getattr(obj, "__wrapped__", obj)):
                if getattr(home, getattr(obj, "__name__", attr), None) is not obj:
                    out.append(f"{mod.__name__}.{attr} is not "
                               f"{home.__name__}.{obj.__name__}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for name, member in vars(obj).items():
                    if getattr(member, WRAPPED, False):
                        out.append(f"{obj.__name__}.{name} is wrapped")
    return out


def _hh_method(args, kwargs) -> str:
    """The ``method`` argument of ``hardhex.hh_X(L, method, primed)``."""
    return kwargs.get("method", args[1] if len(args) > 1 else "recurrence")


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.layers = [(name, getattr(pkg, name)) for name in LAYERS]
        self.stack: list[list] = []     # [child seconds, span id, name]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict = defaultdict(int)
        self.spans: list[tuple] = []    # (id, parent id, name, start, end)
        self.patches: list[tuple] = []  # (owner, attribute, original)
        self.originals: dict[int, object] = {}
        self.pairs: set = set()
        self.super_keys: set = set()
        self.top_s = 0.0
        self.t0 = 0.0
        self._ids = itertools.count(1)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        hooks = self._after_hooks()
        for layer, mod in self.layers:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _defined_in(obj, mod):
                    continue
                name = f"{layer}.{attr}"
                self._rebind(modules, obj, self._wrap(name, obj, hooks.get(name)))
        Q = self.pkg.qpoly.QLaurent
        for attr, name in (("__add__", "qpoly.add"), ("__mul__", "qpoly.mul")):
            orig = vars(Q)[attr]
            self._rebind([Q], orig, self._wrap(name, orig, hooks.get(name)))
        self._tables0 = len(getattr(self.pkg.energy, "_TABLES", ()))
        self.t0 = time.perf_counter()

    def _rebind(self, owners, orig, wrapper) -> None:
        self.originals[id(wrapper)] = orig
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if obj is orig:
                    self.patches.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    def original(self, fn):
        return self.originals.get(id(fn), fn)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        """``after(args, result)`` runs when a call returns normally."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack, spans, ids = self.stack, self.spans, self._ids
        hot = name in HOT
        by_method = name == "hardhex.hh_X"  # one entry per evaluation method
        fixed = None if by_method else self.stats[name]

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            frame = [0.0, parent if hot else next(ids), name]
            stack.append(frame)
            t = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                d = end - t
                st = fixed or self.stats[f"{name}.{_hh_method(args, kwargs)}"]
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                else:
                    self.top_s += d
                if not hot:
                    spans.append((frame[1], parent, name, t, end))
            if after is not None:
                after(args, res)
            return res

        setattr(wrapper, WRAPPED, True)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Count the items a generator yields, keyed by the span that
        consumed each one; its own running time is the consumer's."""
        stack, counts, st = self.stack, self.counts, self.stats[name]

        def wrapper(*args, **kwargs):
            st[0] += 1
            for item in fn(*args, **kwargs):
                counts[(name, stack[-1][2] if stack else "")] += 1
                yield item

        setattr(wrapper, WRAPPED, True)
        wrapper.__name__ = fn.__name__
        return wrapper

    def _after_hooks(self) -> dict:
        """Extra counts, by wrapped name."""
        counts, Q = self.counts, self.pkg.qpoly.QLaurent

        def terms(x) -> int:
            return len(x.terms) if isinstance(x, Q) else 1

        def add(args, res):
            counts["qpoly.add.terms"] += terms(args[0]) + terms(args[1])

        def mul(args, res):
            counts["qpoly.mul.term_pairs"] += terms(args[0]) * terms(args[1])

        def combinatorial_r(args, res):
            self.pairs.add(args[:2])

        def supernomial(args, res):
            shape, weight = args[0], args[1]
            self.super_keys.add((tuple(sorted((d.kind, d.n, d.r, d.s)
                                              for d in shape)), tuple(weight)))
            counts["bosonic.supernomial.nonzero"] += not res.is_zero()

        def sized(key):
            def hook(args, res):
                counts[key] += len(res)
            return hook

        return {"qpoly.add": add, "qpoly.mul": mul,
                "energy.combinatorial_r": combinatorial_r,
                "bosonic.supernomial": supernomial,
                "crystal.enumerate_paths": sized("crystal.paths"),
                "fermionic.enumerate_rc": sized("fermionic.enumerate_rc.rcs"),
                "fermionic.cst_enumerate":
                    sized("fermionic.cst_enumerate.tableaux")}

    # -- results --------------------------------------------------------

    def _yielded(self, name: str, consumer: str | None = None) -> int:
        return sum(v for k, v in self.counts.items()
                   if isinstance(k, tuple) and k[0] == name
                   and (consumer is None or k[1] == consumer))

    def _cache_info(self, layer: str):
        mod = dict(self.layers)[layer]
        for attr, obj in vars(mod).items():
            obj = self.original(obj)
            if hasattr(obj, "cache_info") and _defined_in(obj, mod):
                yield obj.cache_info()

    def summary(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of this round, by their benchmark names."""
        s = self.stats

        def calls(name):
            return s[name][0] if name in s else 0

        def self_s(name):
            return s[name][2] if name in s else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for layer, _ in self.layers:
            out[f"{layer}.calls"] = sum(v[0] for k, v in s.items()
                                        if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = sum(v[2] for k, v in s.items()
                                         if k.split(".")[0] == layer)
        out["bench.self_s"] = wall_s - self.top_s
        for fn in ("qbinomial", "add", "mul"):
            out[f"qpoly.{fn}.calls"] = calls(f"qpoly.{fn}")
        for fn in ("qbinomial", "exact_div", "add", "mul"):
            out[f"qpoly.{fn}.self_s"] = self_s(f"qpoly.{fn}")
        out["qpoly.add.terms"] = self.counts["qpoly.add.terms"]
        out["qpoly.mul.term_pairs"] = self.counts["qpoly.mul.term_pairs"]

        out["partitions.q_columns.calls"] = calls("partitions.q_columns")
        infos = list(self._cache_info("partitions"))
        out["partitions.cache_hit_ratio"] = ratio(
            sum(i.hits for i in infos), sum(i.hits + i.misses for i in infos))
        out["partitions.cache_entries"] = sum(i.currsize for i in infos)

        out["cartan.weyl_enumerate.calls"] = calls("cartan.weyl_enumerate")
        out["cartan.weyl_enumerate.self_s"] = self_s("cartan.weyl_enumerate")
        out["cartan.translation_lattice_box.self_s"] = \
            self_s("cartan.translation_lattice_box")

        scanned = self._yielded("crystal.shape_elements")
        out["crystal.enumerate_paths.self_s"] = self_s("crystal.enumerate_paths")
        out["crystal.words_scanned"] = scanned
        out["crystal.path_yield"] = ratio(
            self.counts["crystal.paths"],
            self._yielded("crystal.shape_elements", "crystal.enumerate_paths"))
        out["crystal.word_weight.calls"] = calls("crystal.word_weight")
        out["crystal.tensor_arrow.calls"] = calls("crystal.tensor_arrow")
        out["crystal.tensor_arrow.self_s"] = self_s("crystal.tensor_arrow")
        out["crystal.cache_entries"] = sum(
            i.currsize for i in self._cache_info("crystal"))

        out["energy.combinatorial_r.calls"] = calls("energy.combinatorial_r")
        # the package memoises R-matrix tables in energy._TABLES; its growth
        # is the number of tables actually built
        out["energy.combinatorial_r.builds"] = (
            len(getattr(self.pkg.energy, "_TABLES", ())) - self._tables0)
        for fn in ("combinatorial_r", "energy_EB", "direct_sum"):
            out[f"energy.{fn}.self_s"] = self_s(f"energy.{fn}")
        out["energy.energy_EB.calls"] = calls("energy.energy_EB")
        out["energy.apply_sigma.calls"] = calls("energy.apply_sigma")

        sn = calls("bosonic.supernomial")
        out["bosonic.supernomial.calls"] = sn
        out["bosonic.supernomial.distinct"] = len(self.super_keys)
        out["bosonic.weyl_term_yield"] = ratio(
            self.counts["bosonic.supernomial.nonzero"], sn)
        for fn in ("supernomial", "bosonic_classical", "bosonic_level",
                   "involution_phi"):
            out[f"bosonic.{fn}.self_s"] = self_s(f"bosonic.{fn}")

        for fn in ("closed_form_F", "enumerate_rc", "level_restricted_A",
                   "level_restricted_C"):
            out[f"fermionic.{fn}.self_s"] = self_s(f"fermionic.{fn}")
        out["fermionic.enumerate_rc.rcs"] = self.counts["fermionic.enumerate_rc.rcs"]
        out["fermionic.vacancy.calls"] = calls("fermionic.vacancy")
        out["fermionic.cst_enumerate.tableaux"] = \
            self.counts["fermionic.cst_enumerate.tableaux"]

        for m in ("enumerate", "recurrence", "fermionic", "bosonic"):
            out[f"hardhex.hh_X.{m}.self_s"] = self_s(f"hardhex.hh_X.{m}")
        out["hardhex.hh_paths.paths"] = self._yielded("hardhex.hh_paths")
        out["hardhex.rr_series_check.self_s"] = self_s("hardhex.rr_series_check")

        out["cli.run_instance.self_s"] = self_s("cli.run_instance")
        out["cli.compute_sum.self_s"] = self_s("cli.compute_sum")
        return out

    def distinct_sizes(self) -> dict[str, int]:
        """Distinct R-matrix pairs and supernomial keys the wrappers saw."""
        return {"energy.combinatorial_r.distinct_pairs": len(self.pairs),
                "bosonic.supernomial.distinct_keys": len(self.super_keys)}

    def write_spans(self, path: Path) -> None:
        """Spans as JSON lines (seconds from installation), then one line
        with the aggregated calls, total and self seconds per name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - self.t0,
                                     "end": end - self.t0}) + "\n")
            fh.write(json.dumps({"aggregate": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.stats.items())}}) + "\n")
