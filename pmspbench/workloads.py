"""Workload decks: seeded inputs, the operation each item runs, and its checks.

A deck is the list of items one pass of a workload runs.  Inputs come from
``random.Random(seed)`` and the fixtures in ``tests/fixtures``; the program
only ever receives the finished graphs.  ``execute(pause)`` calls ``pause``
before each operation it performs, outside the operation's timing, and
reports the start and latency of each; ``check`` turns its result into
(attempted, failed, digest text, failure messages).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
QUERY_VERBS = ("check-gorenstein", "classify", "facets", "check-compressed")
ENUMERATION_CAP = 20  # vertices; `pmsp facets` exits 3 above it


# -- graph generation (independent of the program) ---------------------------

def _connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, todo = {1}, [1]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _bipartite(n: int, edges) -> bool:
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour: dict[int, int] = {}
    for s in adj:
        if s in colour:
            continue
        colour[s] = 0
        todo = [s]
        while todo:
            u = todo.pop()
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    todo.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def random_nonbipartite(rng: random.Random, n: int, m: int) -> list:
    """Uniform connected nonbipartite graph with n vertices and m edges."""
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        edges = sorted(rng.sample(pairs, m))
        if _connected(n, edges) and not _bipartite(n, edges):
            return edges


def random_bipartite(rng: random.Random, a: int, b: int, m: int) -> list:
    """Connected bipartite graph on sides of sizes a and b with m edges.

    Labels are shuffled, except that vertex 1 is always on the side of size
    a: pmsp writes one inequality per subset of vertex 1's side, so this
    keeps the row count the same for every seed."""
    n = a + b
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    labels = [1] + rest
    left, right = labels[:a], labels[a:]
    pairs = [tuple(sorted((u, v))) for u in left for v in right]
    while True:
        edges = sorted(rng.sample(pairs, m))
        if _connected(n, edges):
            return edges


def random_pseudotree(rng: random.Random, n: int, cycle: bool) -> list:
    """Random labelled tree (Pruefer code), plus one extra edge if cycle."""
    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append(tuple(sorted((leaf, v))))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(1, n + 1) if degree[x] == 1]
    edges.append((u, w))
    if cycle:
        present = set(edges)
        edges.append(rng.choice([p for p in combinations(range(1, n + 1), 2) if p not in present]))
    return sorted(edges)


def complete_multipartite(rng: random.Random, sizes) -> list:
    """Complete multipartite graph with the given part sizes, labels shuffled."""
    n = sum(sizes)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    parts, at = [], 0
    for s in sizes:
        parts.append(labels[at:at + s])
        at += s
    return sorted(
        tuple(sorted((u, v)))
        for p, q in combinations(parts, 2) for u in p for v in q
    )


def edge_text(edges) -> str:
    """Inline `--input` form: edges separated by ';'."""
    return ";".join(f"{u} {v}" for u, v in edges)


# -- deck items ---------------------------------------------------------------

class CliOp:
    """One in-process `pmsp <verb> --input <source>` call."""

    def __init__(self, verb: str, source: str, label: str, n: int) -> None:
        self.verb = verb
        self.source = source
        self.label = label
        self.n = n
        self.key = f"{verb} {label}"

    def execute(self, pause):
        import pmsp.cli

        pause()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pmsp.cli.main([self.verb, "--input", self.source])
        elapsed = perf_counter() - start
        return [(start, elapsed)], elapsed, (code, out.getvalue(), err.getvalue())

    def expected_codes(self) -> tuple[int, ...]:
        if self.verb == "facets":
            return (3,) if self.n > ENUMERATION_CAP else (0,)
        if self.verb == "classify":
            return (0,)
        return (0, 1)  # a property check: 1 means "false", a correct answer

    def check(self, result):
        code, out, err = result
        text = f"{code}\n{out}"
        problems = []
        if code not in self.expected_codes():
            problems.append(f"exit {code}, expected {self.expected_codes()}: {err.strip()}")
        elif code == 3:
            if out:
                problems.append("budget exit printed output")
        else:
            try:
                problems.extend(self._check_json(code, json.loads(out)))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"malformed output: {exc!r}")
        return 1, int(bool(problems)), text, problems

    def _check_json(self, code: int, doc) -> list[str]:
        if self.verb.startswith("check-"):
            if doc["value"] is not (code == 0):
                return [f"value {doc['value']} disagrees with exit {code}"]
            return []
        if self.verb == "classify":
            comps = doc["components"]
            if doc["vertex_count"] != self.n:
                return ["vertex_count differs from the input"]
            if doc["gorenstein"] != all(c["gorenstein"]["value"] for c in comps):
                return ["gorenstein is not the conjunction of the components"]
            if doc["compressed"] != all(c["compressed"]["value"] for c in comps):
                return ["compressed is not the conjunction of the components"]
            return []
        rows = doc["inequalities"]
        if doc["count"] != len(rows) or not any(r["facet"] for r in rows):
            return ["facet count mismatch or no facet row"]
        if any(len(r["normal"]) != self.n for r in rows):
            return ["inequality of the wrong length"]
        return []


def check_query_pass(items, results) -> list[str]:
    """Cross-verb agreement on one graph: `classify` against the checks."""
    by_graph: dict[str, dict] = {}
    for item, (code, out, _) in zip(items, results):
        by_graph.setdefault(item.label, {})[item.verb] = (code, out)
    problems = []
    for label, verbs in by_graph.items():
        code, out = verbs.get("classify", (None, ""))
        if code != 0:
            continue
        report = json.loads(out)  # well formed: its own check passed
        for verb, field in (("check-gorenstein", "gorenstein"), ("check-compressed", "compressed")):
            if verb in verbs and (verbs[verb][0] == 0) != report.get(field):
                problems.append(f"{label}: classify {field} disagrees with {verb}")
    return problems


class SweepUnit:
    """One `agreement_sweep(spec)`; every corpus graph is one operation.

    Operations are delimited from outside: the corpus generator that the
    sweep iterates is wrapped so that each request for the next graph marks
    a boundary.  One operation's latency is the generation of its graph plus
    every check run on it.  ``pause`` runs between two graphs, and its time
    is left out of the unit's elapsed time.
    """

    def __init__(self, family: str, max_n: int) -> None:
        self.family = family
        self.max_n = max_n
        self.key = f"sweep {family} n<={max_n}"

    def execute(self, pause):
        import pmsp
        from pmsp import oracle

        spec = pmsp.CorpusSpec(max_n=self.max_n, family=self.family)
        inner = oracle.generate_corpus
        timings: list[tuple[float, float]] = []
        paused = 0.0

        def delimited(*args, **kwargs):
            nonlocal paused
            it = inner(*args, **kwargs)
            while True:
                paused += pause()
                begin = perf_counter()
                try:
                    graph = next(it)
                except StopIteration:
                    return
                yield graph
                timings.append((begin, perf_counter() - begin))

        oracle.generate_corpus = delimited
        try:
            start = perf_counter()
            report = oracle.agreement_sweep(spec)
            elapsed = perf_counter() - start - paused
        finally:
            oracle.generate_corpus = inner
        return timings, elapsed, (report, len(timings))

    def check(self, result):
        report, graphs = result
        lines = sorted(
            json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
            for r in report.records
        )
        bad_graphs = {json.dumps(r.graph, sort_keys=True) for r in report.records if not r.agree}
        checked = {json.dumps(r.graph, sort_keys=True) for r in report.records}
        problems = [f"disagreement on {g}" for g in sorted(bad_graphs)]
        if len(checked) != graphs:
            problems.append(f"{graphs} graphs delimited but {len(checked)} have records")
        return graphs, len(bad_graphs), "\n".join(lines), problems


class DilateOp:
    """One `idp_check(g, k, mode)` call.  The mode is "idp" on a bipartite
    graph and "normality" otherwise, as `scripts/run_dilate_checks.py`
    chooses it; the benchmark decides bipartiteness itself."""

    def __init__(self, label: str, n: int, edges, k: int) -> None:
        import pmsp

        self.graph = pmsp.Graph(n, edges)
        self.n = n
        self.edges = edges
        self.k = k
        self.mode = "idp" if _bipartite(n, edges) else "normality"
        self.key = f"dilate k={k} {label}"

    def execute(self, pause):
        from pmsp import idp_check

        pause()
        start = perf_counter()
        result = idp_check(self.graph, self.k, mode=self.mode)
        elapsed = perf_counter() - start
        return [(start, elapsed)], elapsed, result

    def check(self, result):
        text = json.dumps(result.to_json(), sort_keys=True)
        problems = []
        if (result.k, result.mode) != (self.k, self.mode):
            problems.append(f"answered k={result.k} mode={result.mode}")
        if result.ok != (result.witness is None):
            problems.append(f"ok={result.ok} with witness {result.witness}")
        if result.dilate_point_count < 1:
            problems.append("no lattice point in the dilate")
        if result.witness is not None and not in_dilate(
                result.witness, self.k, self.n, tuple(self.edges)):
            problems.append(f"witness {result.witness} lies outside the dilate")
        return 1, int(bool(problems)), text, problems


@lru_cache(maxsize=None)
def matchable_vectors(n: int, edges: tuple) -> list:
    """Indicator vectors of the vertex sets whose induced subgraph has a
    perfect matching, the empty set included: the polytope's vertices,
    found by brute force without pmsp."""
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)

    @lru_cache(maxsize=None)
    def matchable(mask: int) -> bool:
        if not mask:
            return True
        low = mask & -mask
        v = low.bit_length()
        rest = adj[v] & mask
        while rest:
            w = rest & -rest
            if matchable(mask & ~low & ~w):
                return True
            rest &= ~w
        return False

    return [tuple((mask >> i) & 1 for i in range(n))
            for mask in range(1 << n) if matchable(mask)]


@lru_cache(maxsize=None)
def in_dilate(z: tuple, k: int, n: int, edges: tuple) -> bool:
    """Whether z lies in the k-th dilate of the graph's polytope.

    The linear program runs in a child process: importing scipy in the
    measuring process would add about 45 MB to its peak memory, in exactly
    the runs that meet a witness.  Answers are kept, so later passes do not
    start the child again."""
    if len(z) != n or any(not 0 <= x <= k for x in z):
        return False
    vertices = matchable_vectors(n, edges)
    proc = subprocess.run(
        [sys.executable, "-c", "import workloads; workloads.lp_main()"],
        cwd=HERE, input=json.dumps([list(z), k, vertices]),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def lp_feasible(z, k: int, vertices) -> bool:
    """Whether some convex combination of the vertices equals z / k."""
    from scipy.optimize import linprog

    a_eq = [[v[j] for v in vertices] for j in range(len(z))] + [[1] * len(vertices)]
    b_eq = [x / k for x in z] + [1]
    res = linprog([0] * len(vertices), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def lp_main() -> None:
    """Child process of `in_dilate`: [z, k, vertices] on stdin, a JSON
    boolean on stdout."""
    print(json.dumps(lp_feasible(*json.load(sys.stdin))))


# -- workloads ------------------------------------------------------------------

def _fixture_ops():
    """Every fixture through every verb, except `classify` on the blocks
    fixture: it repeats the 4 s geometric search of its `check-gorenstein`,
    which alone would double the length of a pass."""
    ops = []
    for path in sorted(FIXTURES.iterdir()):
        text = path.read_text()
        if text.lstrip().startswith("{"):
            n = json.loads(text)["n"]
        else:
            n = max(int(t) for line in text.splitlines() for t in line.split())
        ops.extend(
            CliOp(verb, str(path), path.name, n) for verb in QUERY_VERBS
            if not (verb == "classify" and path.name.startswith("blocks"))
        )
    return ops


def query_deck(seed: int, tiny: bool):
    """Fixtures plus seeded rounds of graphs, each run through four verbs.

    A round holds two nonbipartite G(8, 11), which take the geometric
    fallback; a bipartite graph, a tree and a unicyclic pseudotree on 11
    vertices, which take structural routes; and a complete multipartite
    graph.  Its shapes are fixed (the closed-form table covers them) so that
    the largest box scan, which sets peak memory, is the same for every seed.
    """
    rng = random.Random(seed)
    graphs = []
    shapes = [(1,) * 8, (1, 1, 7), (1,) * 9, (1, 1, 6)]
    for r in range(1 if tiny else 14):
        graphs.append((f"nonbip8-{r}", 8, random_nonbipartite(rng, 8, 11)))
        graphs.append((f"nonbip8b-{r}", 8, random_nonbipartite(rng, 8, 11)))
        graphs.append((f"bip11-{r}", 11, random_bipartite(rng, 5, 6, 14)))
        graphs.append((f"tree11-{r}", 11, random_pseudotree(rng, 11, cycle=False)))
        graphs.append((f"unicyclic11-{r}", 11, random_pseudotree(rng, 11, cycle=True)))
        shape = shapes[r % len(shapes)]
        graphs.append((f"multipartite{sum(shape)}-{r}", sum(shape),
                       complete_multipartite(rng, shape)))
    ops = [] if tiny else _fixture_ops()
    for label, n, edges in graphs:
        ops.extend(CliOp(verb, edge_text(edges), label, n) for verb in QUERY_VERBS)
    return ops


def facets_deck(seed: int, tiny: bool):
    """`pmsp facets` on seeded connected nonbipartite G(12, 20) graphs.

    The 2^12 subset scans (`matchable_subsets`, the odd-set candidates of
    `inequality_system`) and the bound-row ranks do the work, and the JSON
    output is about 100 kB.  n = 12 keeps one operation near 0.2 s, so a
    pass of 100 graphs fits a run; n = 14-16 takes 1.6-9 s per graph.
    """
    rng = random.Random(seed)
    n, m, count = (8, 11, 3) if tiny else (12, 20, 100)
    return [CliOp("facets", edge_text(random_nonbipartite(rng, n, m)), f"gnm{n}-{i}", n)
            for i in range(count)]


def dilate_deck(seed: int, tiny: bool):
    """`idp_check` on seeded connected graphs with n = 6-9, plus one fixed graph.

    Per size, pairs of one bipartite graph (sides n//2 and the rest, n + 1
    edges) and one nonbipartite graph (n + 2 edges): 12, 12 and 28 pairs for
    n = 6, 7 and 8, checked for k = 2 and 3, and 7 pairs for n = 9, checked
    for k = 2 only.  A k = 3 check at n = 9 takes about a second and 300 MB.
    The 224 operations put the p95 tail inside the 29 slowest, the k = 3
    checks of the nonbipartite n = 8 graphs and the fixed graph, rather than
    at the step down to the next group.  The fixed graph, K6 with a pendant
    vertex on two of its vertices, has 129 inequality rows, more than any
    seeded graph (at most 113 over seeds 0-59), so its k = 3 box scan sets
    peak memory, the same for every seed.
    """
    rng = random.Random(seed)
    sizes = [(6, 1, (2, 3))] if tiny else [
        (6, 12, (2, 3)), (7, 12, (2, 3)), (8, 28, (2, 3)), (9, 7, (2,))]
    ops = []
    for n, pairs, ks in sizes:
        for i in range(pairs):
            graphs = (
                (f"bip{n}-{i}", random_bipartite(rng, n // 2, n - n // 2, n + 1)),
                (f"nonbip{n}-{i}", random_nonbipartite(rng, n, n + 2)),
            )
            for label, edges in graphs:
                ops.extend(DilateOp(label, n, edges, k) for k in ks)
    if not tiny:
        k6_pendants = list(combinations(range(1, 7), 2)) + [(5, 7), (6, 8)]
        ops.extend(DilateOp("K6+pendants", 8, k6_pendants, k) for k in (2, 3))
    return ops


def sweep_deck(seed: int, tiny: bool):
    """Agreement sweeps on the exhaustive corpora; the seed is not used."""
    if tiny:
        return [SweepUnit("pseudotree", 6), SweepUnit("all", 4)]
    return [SweepUnit("pseudotree", 8), SweepUnit("all", 5)]


WORKLOADS = {
    "query": query_deck,
    "facets": facets_deck,
    "sweep": sweep_deck,
    "dilate": dilate_deck,
}

# Highest percentile reported as op_tail_ms; each workload's deck is sized
# so that at least ten of its operations lie above it.
TAIL_PERCENTILE = {"query": 95, "facets": 90, "sweep": 95, "dilate": 95}

PASS_CHECKS = {"query": check_query_pass}

# Weight of numpy array work in each workload's speed reference (speed.py).
# In `dilate` the box scans take most of the time; with the Python kernels
# alone its scaled throughput still followed the host's speed.
NUMPY_SHARE = {"dilate": 0.5}
