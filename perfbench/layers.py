"""The layer boundaries the traced run wraps, and its per-layer metrics.

Layers are stirhom's modules: trees, stirling, linalg, graphcomplex,
characters and cli.  A function is wrapped where its caller looks it up:
``stirling.canonical_tree_data`` is the trees layer as stirling calls it.
Boundaries a later version no longer has are skipped and read zero.
"""

from __future__ import annotations

from stirhom import characters, cli, graphcomplex, linalg, stirling

from tracing import ROOT


def install(tracer):
    counts, distinct, sizes = tracer.counts, tracer.distinct, tracer.sizes

    def canonical_tree(args, result):
        distinct["tree_codes"].add(result[0])

    def canonical_modular(args, result):
        distinct["modular_codes"].add(result[0])

    def rank(args, result):
        matrix = args[0]
        counts["rank_cols"] += matrix.ncols
        counts["rank_nnz"] += matrix.nnz()
        if matrix.ncols > linalg.EXACT_COLUMN_LIMIT:
            counts["rank_modp_calls"] += 1

    def stirling_generators(args, result):
        cx, i = args[0], args[1]
        sizes["stirling.generators"][(cx.n, cx.k, cx.orient_seed, i)] = len(result)

    def stirling_differential(args, result):
        cx, i = args[0], args[1]
        sizes["stirling.nnz"][(cx.n, cx.k, cx.orient_seed, i)] = result.nnz()

    def graph_differential(args, result):
        cx, i = args[0], args[1]
        sizes["graphcomplex.nnz"][(cx.m, cx.orientation_kill, cx.orient_seed, i)] = result.nnz()

    def graph_enumerate(args, result):
        distinct["graph_enumerate"].add(args)

    wrap = tracer.wrap
    for module in (stirling, graphcomplex):
        wrap(module, "contract_edge_with_maps", "trees.contract_edge_with_maps")
        wrap(module, "rank_exact", "linalg.rank_exact", rank)
    wrap(stirling, "enumerate_stable_trees", "trees.enumerate_stable_trees")
    wrap(stirling, "canonical_tree_data", "trees.canonical_tree_data", canonical_tree)
    wrap(stirling, "survey", "stirling.survey")
    wrap(graphcomplex, "canonical_modular_data", "trees.canonical_modular_data",
         canonical_modular)
    wrap(graphcomplex, "has_odd_automorphism", "trees.has_odd_automorphism")
    wrap(graphcomplex, "enumerate_graph_generators",
         "graphcomplex.enumerate_graph_generators", graph_enumerate)
    wrap(graphcomplex, "graph_homology_character",
         "graphcomplex.graph_homology_character")
    for module in (graphcomplex, characters):
        wrap(module, "equivariant_euler_character",
             "characters.equivariant_euler_character")
    cls = stirling.StirlingComplex
    wrap(cls, "generators", "stirling.StirlingComplex.generators", stirling_generators)
    wrap(cls, "differential", "stirling.StirlingComplex.differential",
         stirling_differential)
    wrap(cls, "contraction_terms", "stirling.StirlingComplex.contraction_terms")
    wrap(cls, "action_matrix", "stirling.StirlingComplex.action_matrix")
    cls = graphcomplex.GraphComplex
    wrap(cls, "differential", "graphcomplex.GraphComplex.differential",
         graph_differential)
    wrap(cls, "killed_codes", "graphcomplex.GraphComplex.killed_codes")
    wrap(cls, "action_matrix", "graphcomplex.GraphComplex.action_matrix")
    wrap(linalg.SparseIntMatrix, "__matmul__", "linalg.SparseIntMatrix.__matmul__")
    wrap(cli, "main", "cli.main")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def metrics(tracer, output_bytes):
    """Per-layer metric values of one traced sample, by name."""
    per_name = tracer.self_times()

    def self_s(*labels):
        return sum((per_name[label][0] for label in labels if label in per_name), 0.0)

    def calls(*labels):
        return sum(per_name[label][1] for label in labels if label in per_name)

    canonical = ("trees.canonical_tree_data", "trees.canonical_modular_data")
    traces = ("characters.equivariant_euler_character",
              "graphcomplex.graph_homology_character")
    counts, distinct, sizes = tracer.counts, tracer.distinct, tracer.sizes
    graph_enumerate_calls = calls("graphcomplex.enumerate_graph_generators")
    return {
        "linalg.rank_s": self_s("linalg.rank_exact"),
        "linalg.rank_calls": calls("linalg.rank_exact"),
        "linalg.rank_modp_calls": counts["rank_modp_calls"],
        "linalg.rank_cols": counts["rank_cols"],
        "linalg.rank_nnz": counts["rank_nnz"],
        "linalg.matmul_s": self_s("linalg.SparseIntMatrix.__matmul__"),
        "linalg.matmul_calls": calls("linalg.SparseIntMatrix.__matmul__"),
        "stirling.differential_s": self_s("stirling.StirlingComplex.differential"),
        "stirling.contraction_s": self_s("stirling.StirlingComplex.contraction_terms"),
        "stirling.nnz": sum(sizes["stirling.nnz"].values()),
        "stirling.generators": sum(sizes["stirling.generators"].values()),
        "stirling.generators_s": self_s("stirling.StirlingComplex.generators"),
        "stirling.survey_self_s": self_s("stirling.survey"),
        "stirling.survey_terms_s": tracer.inclusive_under(
            "stirling.StirlingComplex.contraction_terms", "stirling.survey"),
        "stirling.action_s": self_s("stirling.StirlingComplex.action_matrix"),
        "stirling.action_calls": calls("stirling.StirlingComplex.action_matrix"),
        "trees.canonical_s": self_s(*canonical),
        "trees.canonical_calls": calls(*canonical),
        "trees.canonical_distinct_ratio": _ratio(
            len(distinct["tree_codes"]) + len(distinct["modular_codes"]),
            calls(*canonical)),
        "trees.contract_s": self_s("trees.contract_edge_with_maps"),
        "trees.contract_calls": calls("trees.contract_edge_with_maps"),
        "trees.enumerate_s": self_s("trees.enumerate_stable_trees"),
        "trees.automorphism_s": self_s("trees.has_odd_automorphism"),
        "trees.automorphism_calls": calls("trees.has_odd_automorphism"),
        "graphcomplex.enumerate_s": self_s("graphcomplex.enumerate_graph_generators"),
        "graphcomplex.enumerate_calls": graph_enumerate_calls,
        "graphcomplex.enumerate_distinct_ratio": _ratio(
            len(distinct["graph_enumerate"]), graph_enumerate_calls),
        "graphcomplex.differential_s": self_s("graphcomplex.GraphComplex.differential"),
        "graphcomplex.killed_s": self_s("graphcomplex.GraphComplex.killed_codes"),
        "graphcomplex.nnz": sum(sizes["graphcomplex.nnz"].values()),
        "graphcomplex.action_s": self_s("graphcomplex.GraphComplex.action_matrix"),
        "graphcomplex.action_calls": calls("graphcomplex.GraphComplex.action_matrix"),
        "characters.trace_s": self_s(*traces),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": output_bytes,
        "trace.root_self_s": self_s(ROOT),
        "trace.self_sum_s": sum(entry[0] for entry in per_name.values()),
        "trace.spans": len(tracer.start),
    }
