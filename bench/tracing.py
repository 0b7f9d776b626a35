"""Spans around the library's layers, for the traced run.

`Tracer.install()` replaces each public function of a layer at every binding
the package holds for it: the defining module, every module that imported it
by name, the package namespace and module-level dispatch tables such as
`paths.LOCATORS`. Replacing every binding with the same wrapper keeps the
identity tests the library makes (`locator is sup_location`) true. Law
construction is traced through `LocationLaw.__post_init__`, which every
`LocationLaw(...)` runs.

A span is [layer, start, end, parent, info]. A call into a layer from inside
the same layer opens no new span, so each span's children belong to other
layers. Spans stay in memory; the run writes them out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Any, Callable

MODULES = ("density", "membership", "construct", "paths", "simulate", "poset", "mixability", "jsonio", "cli")

# layer -> (module, function names, info extractor (args, kwargs, result) -> info)
LAYERS: dict[str, tuple[str, tuple[str, ...], Callable | None]] = {
    "density.block_decomposition": ("density", ("block_decomposition",), None),
    "membership.check_class": ("membership", ("check_class",), lambda a, k, r: r.is_member),
    "membership.hull": ("membership", ("hull_membership_lp",), lambda a, k, r: getattr(r, "verdict", "member") != "unknown"),
    "membership.check_tv": ("membership", ("check_tv",), None),
    "construct.build": (
        "construct",
        ("construct_invariant", "construct_invariant_with_escape", "construct_first_time"),
        lambda a, k, r: len(r.nodes),
    ),
    "paths.locate": (
        "paths",
        ("sup_location", "truncated_sup_location", "first_hit", "last_hit", "composite_location"),
        None,
    ),
    "paths.shift": ("paths", ("shift",), None),
    "simulate.sweep": ("simulate", ("sweep_law",), lambda a, k, r: r.n),
    "simulate.mc": ("simulate", ("mc_law",), lambda a, k, r: r.n),
    "simulate.compare": ("simulate", ("compare",), None),
    "poset.counting_density": ("poset", ("counting_density",), None),
    "poset.sweep_oracle": ("poset", ("sweep_oracle",), None),
    "poset.poset_location": ("poset", ("poset_location",), None),
    "mixability.components": ("mixability", ("component_distributions",), None),
    "mixability.rearrangement": ("mixability", ("rearrangement_coupling",), None),
    "mixability.oracle": ("mixability", ("optimal_coupling",), None),
    "cli.command": ("cli", ("main",), lambda a, k, r: " ".join(a[0]) if a else ""),
    "jsonio": (
        "jsonio",
        (
            "law_to_obj",
            "law_from_obj",
            "path_to_obj",
            "path_from_obj",
            "point_system_to_obj",
            "point_system_from_obj",
            "dumps_canonical",
            "load_file",
            "rat_str",
            "parse_rat",
        ),
        None,
    ),
}

LAW_LAYER = "density.law"
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, Any, Any]] = []

    # --- recording ---

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """The root span of one timed operation; yields its index."""
        idx = self._open(OP)
        self.spans[idx][4] = name
        try:
            yield idx
        finally:
            self._close(idx)

    def _in_layer(self, layer: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == layer

    def wrap(self, layer: str, fn: Callable, info: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_layer(layer):
                return fn(*args, **kwargs)
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][4] = info(args, kwargs, result)
            return result

        return traced

    # --- installing the wrappers ---

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        package = importlib.import_module("periloc")
        modules = [package] + [importlib.import_module(f"periloc.{m}") for m in MODULES]
        for layer, (home, names, info) in LAYERS.items():
            home_mod = importlib.import_module(f"periloc.{home}")
            for name in names:
                original = getattr(home_mod, name)
                wrapper = self.wrap(layer, original, info)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for dkey, dval in list(value.items()):
                                if dval is original:
                                    self._set(value, dkey, wrapper)
        law_cls = importlib.import_module("periloc.density").LocationLaw
        self._set(law_cls, "__post_init__", self.wrap(LAW_LAYER, law_cls.__post_init__, None))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


# --- per-layer metrics ---

PER_LAYER = (
    ("density.law.calls", "count"),
    ("density.law.self_ref", "ref"),
    ("density.block_decomposition.self_ref", "ref"),
    ("membership.check_class.calls", "count"),
    ("membership.check_class.self_ref", "ref"),
    ("membership.check_class.member_ratio", "ratio"),
    ("membership.hull.calls", "count"),
    ("membership.hull.self_ref", "ref"),
    ("membership.hull.decided", "count"),
    ("membership.check_tv.calls", "count"),
    ("membership.check_tv.self_ref", "ref"),
    ("construct.build.calls", "count"),
    ("construct.build.self_ref", "ref"),
    ("construct.path_nodes", "count"),
    ("paths.locate.calls", "count"),
    ("paths.locate.self_ref", "ref"),
    ("paths.shift.self_ref", "ref"),
    ("simulate.sweep.calls", "count"),
    ("simulate.sweep.shifts", "count"),
    ("simulate.sweep.self_ref", "ref"),
    ("simulate.mc.samples", "count"),
    ("simulate.mc.self_ref", "ref"),
    ("simulate.compare.self_ref", "ref"),
    ("poset.counting_density.self_ref", "ref"),
    ("poset.sweep_oracle.self_ref", "ref"),
    ("poset.poset_location.calls", "count"),
    ("mixability.components.calls", "count"),
    ("mixability.components.self_ref", "ref"),
    ("mixability.rearrangement.self_ref", "ref"),
    ("mixability.oracle.calls", "count"),
    ("mixability.oracle.self_ref", "ref"),
    ("mixability.oracle.calls_per_cli", "count"),
    ("cli.startup_ref", "ref"),
    ("cli.command.self_ref", "ref"),
    ("jsonio.self_ref", "ref"),
)


def _is_mix_oracle(argv_text) -> bool:
    return isinstance(argv_text, str) and argv_text.startswith("mix ") and "--method oracle" in argv_text


def layer_metrics(all_spans: list[list[Any]], first: int, kernel_of_op: dict[int, float], startup_ref: float) -> dict[str, float]:
    """Per-layer counts and self times (in ref) over the spans of one round,
    `all_spans[first:]`.

    `kernel_of_op` maps the index of each op span to the mean kernel time
    around it; a span's self time is divided by the kernel of its op.
    """
    spans = [[layer, start, end, parent - first if parent >= 0 else -1, info] for layer, start, end, parent, info in all_spans[first:]]
    kernel_of_op = {i - first: k for i, k in kernel_of_op.items()}
    n = len(spans)
    child_time = [0.0] * n
    root = list(range(n))
    in_hull = [False] * n
    under_mix_cli = [False] * n
    for i, (layer, start, end, parent, info) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
            p_layer = spans[parent][0]
            in_hull[i] = in_hull[parent] or p_layer == "membership.hull"
            under_mix_cli[i] = under_mix_cli[parent] or (p_layer == "cli.command" and _is_mix_oracle(spans[parent][4]))
    calls: dict[str, int] = {}
    self_ref: dict[str, float] = {}
    extra = {"member": 0, "hull_checks": 0, "decided": 0, "nodes": 0, "shifts": 0, "samples": 0, "mix_cli": 0, "oracle_in_cli": 0}
    for i, (layer, start, end, parent, info) in enumerate(spans):
        if layer == OP:
            continue
        calls[layer] = calls.get(layer, 0) + 1
        self_ref[layer] = self_ref.get(layer, 0.0) + (end - start - child_time[i]) / kernel_of_op[root[i]]
        if layer == "membership.check_class" and in_hull[i]:
            extra["hull_checks"] += 1
            extra["member"] += bool(info)
        elif layer == "membership.hull":
            extra["decided"] += bool(info)
        elif layer == "construct.build":
            extra["nodes"] += info
        elif layer == "simulate.sweep":
            extra["shifts"] += info
        elif layer == "simulate.mc":
            extra["samples"] += info
        elif layer == "cli.command" and _is_mix_oracle(info):
            extra["mix_cli"] += 1
        elif layer == "mixability.oracle" and under_mix_cli[i]:
            extra["oracle_in_cli"] += 1
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls.get(layer, 0)
        elif what == "self_ref":
            out[name] = self_ref.get(layer, 0.0)
    out["membership.check_class.member_ratio"] = extra["member"] / extra["hull_checks"] if extra["hull_checks"] else 0.0
    out["membership.hull.decided"] = extra["decided"]
    out["construct.path_nodes"] = extra["nodes"]
    out["simulate.sweep.shifts"] = extra["shifts"]
    out["simulate.mc.samples"] = extra["samples"]
    out["mixability.oracle.calls_per_cli"] = extra["oracle_in_cli"] / extra["mix_cli"] if extra["mix_cli"] else 0.0
    out["cli.startup_ref"] = startup_ref
    return out
