"""The budget caps of every exhaustive computation and of the graph itself,
in one table.

Each cap counts vertices (`CORPUS_CAPS` per corpus family), and each is
checked before the computation it guards allocates any work.  README's
Budgets table quotes these values.
"""

GRAPH_VERTEX_LIMIT = 1 << 16  # any graph, checked before its adjacency is built
ENUMERATION_LIMIT = 20  # subset tables, matchable sets, inequality systems
SUBSET_SCAN_LIMIT = 20  # bipartite subset scans
ODD_CYCLE_VERTEX_LIMIT = 16  # disjoint odd cycle scan
DILATE_VERTEX_LIMIT = 10  # dilate decomposition checks
BRUTE_FORCE_LIMIT = 12  # brute-force matchable oracle
SULLIVANT_LIMIT = 10  # level-count compressedness oracle

CORPUS_CAPS = {"all": 8, "bipartite": 9, "pseudotree": 10, "multipartite": 12}
LABELED_CAP = 6  # corpora without isomorphism dedup
