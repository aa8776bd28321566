"""Outside-in tracing of greencorr: spans and counts around each layer's
entry points, installed from the benchmark without touching the library.

``Tracer.install()`` wraps every function named in ``TARGETS`` and replaces
each binding of it in every loaded ``greencorr`` module namespace, since the
modules import functions by name (``from .linalg import rref``).  Submodules
are reached through ``importlib`` because the package rebinds
``greencorr.decompose`` to the function of that name.  ``remove()`` puts every
original back.

Each call records a span (name, start, end, parent span) in flat in-memory
arrays; self time is the span minus the time of its child spans.  A few
wrappers also count the work their arguments imply (``EXTRA_METRICS``).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

TARGETS = {
    "linalg": ("rref", "rank", "nullspace", "mat_pow", "mat_inv", "solve",
               "in_row_space"),
    "modules": ("hom_space", "hom_space_from_actions", "induce", "restrict"),
    "decompose": ("decompose", "end_info", "_iso_indec", "is_isomorphic",
                  "relative_trace_image", "is_relatively_projective",
                  "is_direct_summand", "vertex", "multiset_of_classes",
                  "same_multiset"),
    "green": ("verify_scenario", "module_catalog", "generating_family_over_D",
              "quotient_hom_dim", "factoring_subspace", "is_x_object",
              "correspondent_up", "correspondent_down",
              "boundary_families_match"),
    "permgroups": ("closure", "all_subgroups", "double_cosets",
                   "x_y_u_families", "normalizer", "sylow",
                   "p_subgroups_up_to_conjugacy", "is_subconjugate",
                   "coset_lookup"),
    "groupoids": ("group_groupoid", "isocomma", "connected_components",
                  "is_equivalence"),
    "boundary": ("partial", "geography_check", "tricky_factorization"),
    "cli": ("run", "_emit"),
}

# name -> unit of the counts that are not calls or self times
EXTRA_METRICS = {
    "linalg.rref.cells": "count",
    "linalg.mat_pow.matmuls": "count",
    "modules.hom_space.unknowns": "count",
    "modules.hom_space.repeat_share": "ratio",
    "decompose.decompose.repeat_share": "ratio",
    "decompose.split_yield": "ratio",
    "decompose.undecided": "count",
    "groupoids.isocomma.morphisms": "count",
    "cli.report_bytes": "count",
}

KEYS = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for key in KEYS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    for layer in TARGETS:
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _namespaces():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "greencorr" or name.startswith("greencorr."))]


class Tracer:
    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        # one entry per span: target index, parent span, start, end (ns)
        self.span_key = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(KEYS)
        self.self_ns = [0] * len(KEYS)
        self.counts = {"rref_cells": 0, "matmuls": 0, "unknowns": 0,
                       "hom_calls": 0, "hom_repeats": 0, "dec_calls": 0,
                       "dec_repeats": 0, "splits": 0, "rank_under_dec": 0,
                       "morphisms": 0, "report_bytes": 0}
        self._undecided: list[BaseException] = []
        self._hom_seen: set = set()
        self._dec_seen: set = set()
        self._stack: list[int] = []      # open span ids
        self._child_ns: list[int] = []   # child time of each open span
        self.originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for idx, key in enumerate(KEYS):
            layer, fn = key.split(".")
            mod = importlib.import_module(f"greencorr.{layer}")
            orig = getattr(mod, fn)
            self.originals[key] = orig
            self._wrappers[key] = self._wrap(idx, key, orig)
        by_id = {id(orig): key for key, orig in self.originals.items()}
        for mod in _namespaces():
            for attr, value in list(vars(mod).items()):
                key = by_id.get(id(value))
                if key is not None and value is self.originals[key]:
                    setattr(mod, attr, self._wrappers[key])
                    self._patched.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Namespace bindings that still hold an original target."""
        originals = {id(o) for o in self.originals.values()}
        return [f"{mod.__name__}.{attr}" for mod in _namespaces()
                for attr, value in vars(mod).items() if id(value) in originals]

    def wrapped_bindings(self) -> list[str]:
        """Namespace bindings that hold one of this tracer's wrappers."""
        wrappers = {id(w) for w in self._wrappers.values()}
        return [f"{mod.__name__}.{attr}" for mod in _namespaces()
                for attr, value in vars(mod).items() if id(value) in wrappers]

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, idx: int, key: str, fn):
        clock = time.perf_counter_ns
        stack, child_ns = self._stack, self._child_ns
        span_key, span_parent = self.span_key, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_ns = self.calls, self.self_ns
        before, after = self._hooks(key)

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            sid = len(span_key)
            span_key.append(idx)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            stack.append(sid)
            child_ns.append(0)
            start = span_start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._note_exception(exc)
                raise
            finally:
                end = clock()
                span_end[sid] = end
                stack.pop()
                dur = end - start
                self_ns[idx] += dur - child_ns.pop()
                calls[idx] += 1
                if child_ns:
                    child_ns[-1] += dur
            if after:
                after(args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _note_exception(self, exc: BaseException) -> None:
        from greencorr.errors import UndecidedError

        if isinstance(exc, UndecidedError) and \
                all(e is not exc for e in self._undecided):
            self._undecided.append(exc)

    def _hooks(self, key: str):
        """(before, after) callbacks that count the work of one call."""
        c = self.counts
        calls, rank_idx = self.calls, KEYS.index("linalg.rank")

        if key == "linalg.rref":
            def before(args, kwargs):
                shape = getattr(args[0], "shape", ())
                if len(shape) == 2:
                    c["rref_cells"] += shape[0] * shape[1]
            return before, None
        if key == "linalg.mat_pow":
            def before(args, kwargs):
                k = int(args[1] if len(args) > 1 else kwargs["k"])
                c["matmuls"] += bin(k).count("1") + k.bit_length()
            return before, None
        if key == "modules.hom_space":
            def before(args, kwargs):
                M, N = args[0], args[1]
                c["unknowns"] += M.dim * N.dim
                c["hom_calls"] += 1
                pair = (M.fingerprint(), N.fingerprint())
                if pair in self._hom_seen:
                    c["hom_repeats"] += 1
                self._hom_seen.add(pair)
            return before, None
        if key == "decompose.decompose":
            def before(args, kwargs):
                seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
                dkey = (args[0].fingerprint(), seed)
                c["dec_calls"] += 1
                repeat = dkey in self._dec_seen
                self._dec_seen.add(dkey)
                if repeat:
                    c["dec_repeats"] += 1
                    return None
                return calls[rank_idx]

            def after(args, kwargs, result, rank_before):
                if rank_before is not None:
                    c["splits"] += len(result.pieces) - 1
                    c["rank_under_dec"] += calls[rank_idx] - rank_before
            return before, after
        if key == "groupoids.isocomma":
            def after(args, kwargs, result, state):
                c["morphisms"] += result.groupoid.n_morphisms
            return None, after
        if key == "cli._emit":
            def after(args, kwargs, result, state):
                out_dir = args[2] if len(args) > 2 else kwargs.get("out_dir")
                if out_dir:
                    c["report_bytes"] += sum(f.stat().st_size
                                             for f in Path(out_dir).iterdir())
            return None, after
        return None, None

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name, as plain numbers."""
        c = self.counts
        out: dict[str, float] = {}
        layer_ns = {layer: 0 for layer in TARGETS}
        for idx, key in enumerate(KEYS):
            out[f"{key}.calls"] = self.calls[idx]
            out[f"{key}.self_s"] = self.self_ns[idx] / 1e9
            layer_ns[key.split(".")[0]] += self.self_ns[idx]
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        out["linalg.rref.cells"] = c["rref_cells"]
        out["linalg.mat_pow.matmuls"] = c["matmuls"]
        out["modules.hom_space.unknowns"] = c["unknowns"]
        out["modules.hom_space.repeat_share"] = (
            c["hom_repeats"] / c["hom_calls"] if c["hom_calls"] else 0.0)
        out["decompose.decompose.repeat_share"] = (
            c["dec_repeats"] / c["dec_calls"] if c["dec_calls"] else 0.0)
        out["decompose.split_yield"] = (
            c["splits"] / c["rank_under_dec"] if c["rank_under_dec"] else 0.0)
        out["decompose.undecided"] = len(self._undecided)
        out["groupoids.isocomma.morphisms"] = c["morphisms"]
        out["cli.report_bytes"] = c["report_bytes"]
        return out

    def write_spans(self, path) -> int:
        """Write the spans as TSV, separate from every report; returns count."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\trun\n")
            for sid in range(len(self.span_key)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t"
                         f"{KEYS[self.span_key[sid]]}\t{self.span_start[sid]}\t"
                         f"{self.span_end[sid]}\t{self.run_id}\n")
        return len(self.span_key)
