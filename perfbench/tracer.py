"""Span tracing of bpbmod's layers, installed from outside the program.

``Tracer.install`` wraps the public functions of each layer module
(``spaces``, ``pi_set``, ``moduli``, ``verify``, ``cli``) and the public
methods of the space classes, and rebinds every name under which another
bpbmod module imported a wrapped function.  A span (name, start, end,
parent) is recorded only at the outermost entry into a layer, so the calls a
layer makes to itself cost one check and nothing more; the few functions in
``ALWAYS`` get a span at every entry because their per-function metrics need
it.  Spans stay in memory and are written out once, at the end of the run.
A span's self time is its length minus the lengths of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("spaces", "pi_set", "moduli", "verify", "cli")
SCALAR = ("norm", "dual_norm", "support", "unit")
KERNELS = ("norm_rows", "dual_norm_rows")
# Polytope.norm_rows spans in dimension >= 3, where each row is a linear program
GAUGE = "spaces.polytope_gauge"
# spans recorded even when the layer is already entered
ALWAYS = {"pi_set.build_pi_sample", "pi_set.distance_to_pi", "pi_set.hausdorff_modulus_set",
          "spaces.mesh_gap", "moduli.estimate_phi_mut", "moduli.estimate_alpha",
          "moduli.convexity_profile", "moduli.bpb_corrector"}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.current = -1
        self.depth = dict.fromkeys(LAYERS, 0)
        self.kernel_depth = 0
        self.counts: Counter = Counter()
        self.import_ms: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, layer: str, qualname: str, fn):
        nid = self._name_id(f"{layer}.{qualname}")
        gauge_id = self._name_id(GAUGE)
        always = f"{layer}.{qualname}" in ALWAYS
        kernel = qualname.rsplit(".", 1)[-1] in KERNELS
        lp_gauge = qualname == "Polytope.norm_rows"
        build = qualname == "build_pi_sample"
        suite = qualname == "run_suite"
        depth = self.depth
        counts = self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gauge = False
            if kernel:
                rows = len(args[1] if len(args) > 1 else kwargs["rows"])
                if self.kernel_depth == 0:
                    counts["rows"] += rows
                gauge = lp_gauge and args[0].dim >= 3
                if gauge:
                    counts["polytope_lp_rows"] += rows
            span = not depth[layer] or always or gauge
            if span:
                idx = len(self.start)
                self.name.append(gauge_id if gauge else nid)
                self.parent.append(self.current)
                self.start.append(perf())
                self.end.append(0.0)
                self.current = idx
            depth[layer] += 1
            self.kernel_depth += kernel
            try:
                out = fn(*args, **kwargs)
            finally:
                self.kernel_depth -= kernel
                depth[layer] -= 1
                if span:
                    self.end[idx] = perf()
                    self.current = self.parent[idx]
            if span and build:
                counts["build_points"] += len(out.points)
            elif span and suite:
                counts["verify_checks"] += len(out)
            return out

        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        import bpbmod
        from bpbmod import spaces

        mods = {m: sys.modules[f"bpbmod.{m}"] for m in LAYERS if f"bpbmod.{m}" in sys.modules}
        holders = [bpbmod] + [sys.modules[n] for n in list(sys.modules)
                              if n.startswith("bpbmod.")]
        for layer, mod in mods.items():
            for name, fn in list(_public_functions(mod)):
                wrapped = self._wrap(layer, name, fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapped)
        for cls in vars(spaces).values():
            if isinstance(cls, type) and issubclass(cls, spaces.NormedSpace):
                for name, fn in list(vars(cls).items()):
                    if not name.startswith("_") and callable(fn) and not isinstance(fn, type):
                        self._patch(cls, name, self._wrap("spaces", f"{cls.__name__}.{name}", fn))

    def _patch(self, holder, key, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    # -- other processes ------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans and counts as JSON; a parent process merges a child's."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": list(self.name),
                       "start": list(self.start), "end": list(self.end),
                       "parent": list(self.parent), "counts": dict(self.counts),
                       "import_ms": self.import_ms}, fh)

    def merge_file(self, path: str) -> None:
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.start)
        ids = [self._name_id(n) for n in data["names"]]
        self.name.extend(ids[i] for i in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.counts.update(data["counts"])
        self.import_ms.extend(data["import_ms"])

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0])
        span_layer = layer_of[name] if len(name) else name
        parent_layer = np.where(has_parent, span_layer[np.where(has_parent, parent, 0)], -1)
        entry = parent_layer != span_layer

        def by(names):
            ids = [self._ids[n] for n in names if n in self._ids]
            return np.isin(name, ids)

        def ms(x):
            return float(x.sum()) * 1e3

        in_spaces = span_layer == LAYERS.index("spaces")
        scalar = by([n for n in self.names if n.startswith("spaces.")
                     and n.rsplit(".", 1)[-1] in SCALAR])
        spaces_self = ms(self_t[in_spaces])
        rows = self.counts["rows"]
        lp = by([GAUGE])
        build = by(["pi_set.build_pi_sample"])
        dist = by(["pi_set.distance_to_pi"])
        modulus = by(["pi_set.hausdorff_modulus_set"])
        corrector = by(["moduli.bpb_corrector"])
        suite = by(["verify.run_suite"]) & entry
        cli_layer = span_layer == LAYERS.index("cli")
        return {
            "spaces.calls": int((in_spaces & entry).sum()),
            "spaces.scalar_calls": int((scalar & entry).sum()),
            "spaces.rows": int(rows),
            "spaces.self_ms": spaces_self,
            "spaces.rows_per_s": rows / (spaces_self / 1e3) if spaces_self > 0 else 0.0,
            "spaces.polytope_lp_rows": int(self.counts["polytope_lp_rows"]),
            "spaces.polytope_lp_ms": ms(dur[lp]),
            "spaces.mesh_gap_ms": ms(dur[by(["spaces.mesh_gap"])]),
            "pi_set.build_calls": int(build.sum()),
            "pi_set.build_points": int(self.counts["build_points"]),
            "pi_set.build_ms": ms(dur[build]),
            "pi_set.distance_calls": int(dist.sum()),
            "pi_set.distance_self_ms": ms(self_t[dist]),
            "pi_set.modulus_calls": int(modulus.sum()),
            "pi_set.modulus_self_ms": ms(self_t[modulus]),
            "moduli.phi_mut_self_ms": ms(self_t[by(["moduli.estimate_phi_mut"])]),
            "moduli.alpha_self_ms": ms(self_t[by(["moduli.estimate_alpha"])]),
            "moduli.convexity_self_ms": ms(self_t[by(["moduli.convexity_profile"])]),
            "moduli.corrector_calls": int(corrector.sum()),
            "moduli.corrector_self_ms": ms(self_t[corrector]),
            "verify.suite_ms": ms(dur[suite]),
            "verify.checks": int(self.counts["verify_checks"]),
            "cli.import_ms": float(np.median(self.import_ms)) if self.import_ms else 0.0,
            "cli.main_self_ms": ms(self_t[cli_layer]),
        }
