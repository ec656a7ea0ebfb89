"""Outside-in tracer for the pmsp package.

The tracer replaces selected public functions with wrappers that record a
span (name, parent span, start, end) on every call.  It patches every
binding of each function object in every pmsp module, so a call made
through ``from .x import f`` inside the package is traced as well.  Work
counts are derived from the arguments and results of the wrapped calls,
never from inside the program.

Spans are kept in memory; ``summary()`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

MODULES = ("pmsp", "pmsp.cli", "pmsp.graph", "pmsp.matchable", "pmsp.intlattice",
           "pmsp.polytope", "pmsp.classify", "pmsp.oracle")

# Layer name -> (module, function) pairs it covers.  Per-row helpers such as
# ``dot`` and ``lattice_coordinates`` are deliberately left out: wrapping
# them would cost more than the work they do.
LAYERS = {
    "cli.main": [("cli", "main")],
    "graph": [("graph", f) for f in (
        "parse_graph", "parse_graph_json", "bipartition", "blocks_and_cut_vertices",
        "pseudotree_profile", "connected_components", "induced_subgraph")],
    "matchable": [("matchable", f) for f in (
        "matchable_subsets", "has_perfect_matching", "hall_violations")],
    "intlattice.affine_rank": [("intlattice", "affine_rank")],
    "intlattice.solve": [("intlattice", "solve_unique_rational")],
    "intlattice.hnf": [("intlattice", "hnf_rows")],
    "polytope.lattice_points": [("polytope", "lattice_points")],
    "polytope.inequality_system": [("polytope", "inequality_system")],
    "polytope.normalize": [("polytope", "normalize_lattice"),
                           ("polytope", "bipartite_projection")],
    "polytope.geometric": [("polytope", "gorenstein_geometric")],
    "polytope.idp": [("polytope", "idp_check")],
    "classify.decide": [("classify", "gorenstein_decide")],
    "classify.classify_all": [("classify", "classify_all")],
    "oracle.canonical": [("oracle", "canonical_code")],
    "oracle.corpus": [("oracle", "generate_corpus")],
    "oracle.brute_force": [("oracle", "brute_force_matchable")],
    "oracle.sullivant": [("oracle", "sullivant_compressed")],
    "oracle.sweep": [("oracle", "agreement_sweep")],
}

# Layers traced one span per yielded item: their work happens while the
# caller iterates, not when the generator object is created.
GENERATOR_LAYERS = {"oracle.corpus"}

ROUTES = ("single-vertex", "pseudotree-degree-cases", "neighborhood-surplus",
          "interior-vector-system", "complete-multipartite-table", "geometric")


class Tracer:
    """Span stack and work counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list = []  # (layer, parent index or -1, start, end)
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patched: list = []

    # -- recording -------------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, self._stack[-1] if self._stack else -1, perf_counter(), None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def _add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _count(self, fn_name: str, args, result) -> None:
        if fn_name == "matchable_subsets":
            self._add("matchable.masks_scanned", 1 << args[0].n)
            self._add("matchable.points", len(result))
        elif fn_name == "affine_rank":
            self._add("intlattice.affine_rank.points_in", len(args[0]))
        elif fn_name == "inequality_system":
            self._add("polytope.rows", len(result))
            self._add("polytope.facet_rows", sum(1 for row in result if row.facet))
        elif fn_name == "idp_check":
            self._add("polytope.idp.box_points", (args[1] + 1) ** args[0].n)
            self._add("polytope.idp.dilate_points", result.dilate_point_count)
        elif fn_name == "gorenstein_decide":
            self._add("classify.route." + result.method)
        elif fn_name == "agreement_sweep":
            self._add("oracle.sweep.records", len(result.records))

    def _wrap(self, layer: str, fn):
        tracer = self
        name = fn.__name__

        if layer in GENERATOR_LAYERS:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer._add("oracle.corpus.graphs")
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count(name, args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every traced function in the package."""
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, targets in LAYERS.items():
            for mod_name, fn_name in targets:
                original = getattr(importlib.import_module("pmsp." + mod_name), fn_name)
                wrapper = self._wrap(layer, original)
                bound = 0
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
                            bound += 1
                if not bound:
                    raise RuntimeError(f"no binding of pmsp.{mod_name}.{fn_name} found")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per layer (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _, start, end), covered in zip(self.spans, child):
            out[layer][0] += 1
            out[layer][1] += end - start - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def solves_under_geometric(self) -> int:
        """Rational solves whose span has a ``polytope.geometric`` ancestor."""
        found = 0
        for layer, parent, _, _ in self.spans:
            if layer != "intlattice.solve":
                continue
            while parent >= 0:
                if self.spans[parent][0] == "polytope.geometric":
                    found += 1
                    break
                parent = self.spans[parent][1]
        return found

    def write(self, path) -> None:
        """Write the raw spans, one JSON array per line."""
        with open(path, "w") as fh:
            for layer, parent, start, end in self.spans:
                fh.write(json.dumps([layer, parent, round(start, 7), round(end, 7)]) + "\n")
