"""Unit tests for the interprocedural layer: call-graph construction,
SCC condensation, context-word propagation (canonicalization, chains,
saturation) and collective summaries."""

import pytest

from repro.core.callgraph import (
    ALWAYS,
    CONDITIONAL,
    MAX_CONTEXTS,
    NEVER,
    build_call_graph,
    callgraph_to_dot,
    canonical_word,
    collective_summaries,
    propagate_contexts,
)
from repro.minilang.parser import parse_program
from repro.parallelism import EMPTY, format_word, parse_word
from repro.parallelism.word import B, P, S


def _graph(src):
    program = parse_program(src, "t")
    return program, build_call_graph(program)


# -- call graph ---------------------------------------------------------------------


def test_edges_include_statement_and_expression_calls():
    program, graph = _graph("""
int helper(int v) {
    return v;
}

void runner() {
    helper(1);
}

void main() {
    int x = 0;
    runner();
    x = helper(x);
    if (helper(x) > 0) {
        x = 1;
    }
}
""")
    kinds = [(e.callee, e.expression) for e in graph.edges["main"]]
    assert kinds == [("runner", False), ("helper", True), ("helper", True)]
    assert [(e.callee, e.expression) for e in graph.edges["runner"]] == [
        ("helper", False)]
    assert {e.caller for e in graph.callers["helper"]} == {"runner", "main"}


def test_entries_and_main_always_entry():
    _program, graph = _graph("""
void helper() {
    int x = 1;
}

void main() {
    helper();
    main();
}
""")
    # main is called (by itself) but must stay an entry.
    assert graph.entries == ["main"]
    assert "main" in graph.recursive


def test_scc_condensation_orders_callees_first():
    _program, graph = _graph("""
void a() {
    b();
}

void b() {
    a();
    c();
}

void c() {
    int x = 1;
}

void main() {
    a();
}
""")
    assert ("a", "b") in graph.sccs
    assert graph.recursive == frozenset({"a", "b"})
    # Reverse topological: c before the {a,b} SCC, which comes before main.
    pos = {scc: i for i, scc in enumerate(graph.sccs)}
    assert pos[("c",)] < pos[("a", "b")] < pos[("main",)]


# -- canonicalization ---------------------------------------------------------------


def test_canonical_word_renumbers_in_first_occurrence_order():
    word = (P(137), B(), S(42, "single"), P(137))
    assert canonical_word(word) == (P(-1), B(), S(-2, "single"), P(-1))
    assert canonical_word(canonical_word(word)) == canonical_word(word)
    assert canonical_word(EMPTY) == EMPTY


def test_canonical_ids_never_collide_with_ast_uids():
    # AST uids are positive; canonical context ids are negative.
    word = canonical_word(parse_word("P1 S2 B"))
    assert all(t.region_id < 0 for t in word if not isinstance(t, B))


# -- context propagation ------------------------------------------------------------


def test_contexts_flow_through_parallel_and_single():
    program, graph = _graph("""
void leaf() {
    int x = 1;
}

void mid() {
    leaf();
}

void main() {
    #pragma omp parallel
    {
        #pragma omp single
        {
            mid();
        }
    }
}
""")
    cm = propagate_contexts(program, graph)
    assert [format_word(w) for w in cm.contexts["main"]] == ["ε"]
    assert [format_word(w) for w in cm.contexts["mid"]] == ["P-1 S-2"]
    assert [format_word(w) for w in cm.contexts["leaf"]] == ["P-1 S-2"]
    assert cm.chains[("leaf", cm.contexts["leaf"][0])] == ("main", "mid", "leaf")


def test_multiple_contexts_join_and_sort_empty_first():
    program, graph = _graph("""
void helper() {
    int x = 1;
}

void main() {
    helper();
    #pragma omp parallel
    {
        helper();
    }
}
""")
    cm = propagate_contexts(program, graph)
    assert [format_word(w) for w in cm.contexts["helper"]] == ["ε", "P-1"]


def test_entry_context_seeds_entries():
    program, graph = _graph("""
void helper() {
    int x = 1;
}

void main() {
    helper();
}
""")
    cm = propagate_contexts(program, graph, entry_context=parse_word("P1"))
    assert [format_word(w) for w in cm.contexts["main"]] == ["P-1"]
    assert [format_word(w) for w in cm.contexts["helper"]] == ["P-1"]


def test_seeds_add_extra_contexts():
    program, graph = _graph("""
void helper() {
    int x = 1;
}

void main() {
    helper();
}
""")
    cm = propagate_contexts(program, graph,
                            seeds={"helper": parse_word("P1 S2")})
    assert [format_word(w) for w in cm.contexts["helper"]] == ["ε", "P-1 S-2"]


def test_unreached_cycle_falls_back_to_entry_context():
    program, graph = _graph("""
void ping() {
    pong();
}

void pong() {
    ping();
}

void main() {
    int x = 1;
}
""")
    cm = propagate_contexts(program, graph)
    assert cm.contexts["ping"] == (EMPTY,)
    assert cm.contexts["pong"] == (EMPTY,)


def test_recursion_converges_without_saturation():
    program, graph = _graph("""
int spin(int n) {
    if (n > 0) {
        n = spin(n - 1);
    }
    return n;
}

void main() {
    #pragma omp parallel
    {
        int y = spin(3);
    }
}
""")
    cm = propagate_contexts(program, graph)
    assert not cm.saturated
    assert [format_word(w) for w in cm.contexts["spin"]] == ["P-1"]


def test_degenerate_barrier_recursion_saturates_deterministically():
    # Each recursion level appends one B to the context: without the bound
    # the context set would grow forever.
    program, graph = _graph("""
void churn() {
    #pragma omp barrier
    churn();
}

void main() {
    #pragma omp parallel
    {
        churn();
    }
}
""")
    cm1 = propagate_contexts(program, graph)
    cm2 = propagate_contexts(program, graph)
    assert "churn" in cm1.saturated
    assert len(cm1.contexts["churn"]) <= MAX_CONTEXTS
    assert cm1.contexts == cm2.contexts  # deterministic under the cap


# -- collective summaries -----------------------------------------------------------


def test_summaries_direct_and_transitive():
    program, graph = _graph("""
void always() {
    MPI_Barrier();
}

void cond() {
    int r = MPI_Comm_rank();
    if (r == 0) {
        MPI_Barrier();
    }
}

void through_expr() {
    int x = 0;
    x = deep(x);
}

int deep(int v) {
    MPI_Barrier();
    return v;
}

void main() {
    always();
    cond();
    through_expr();
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["always"].classify("MPI_Barrier") == ALWAYS
    assert summaries["cond"].classify("MPI_Barrier") == CONDITIONAL
    assert summaries["deep"].classify("MPI_Barrier") == ALWAYS
    # Expression-level call still counts for the summary.
    assert summaries["through_expr"].classify("MPI_Barrier") == ALWAYS
    assert summaries["main"].classify("MPI_Barrier") == ALWAYS
    assert summaries["main"].classify("MPI_Allreduce") == NEVER


def test_summaries_loops_and_early_exit_demote_to_conditional():
    program, graph = _graph("""
void loopy(int n) {
    for (int i = 0; i < n; i += 1) {
        MPI_Barrier();
    }
}

int early(int n) {
    if (n == 0) {
        return 0;
    }
    MPI_Barrier();
    return n;
}

void main() {
    loopy(2);
    int x = early(1);
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["loopy"].classify("MPI_Barrier") == CONDITIONAL
    assert summaries["early"].classify("MPI_Barrier") == CONDITIONAL


def test_summaries_if_else_must_intersection():
    program, graph = _graph("""
void both(int r) {
    float a = 1.0;
    float b = 0.0;
    if (r == 0) {
        MPI_Barrier();
        MPI_Allreduce(a, b, "sum");
    }
    else {
        MPI_Barrier();
    }
}

void main() {
    both(0);
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["both"].classify("MPI_Barrier") == ALWAYS
    assert summaries["both"].classify("MPI_Allreduce") == CONDITIONAL


def test_summaries_recursive_fixpoint_is_sound():
    program, graph = _graph("""
int spin(int n) {
    if (n > 0) {
        n = spin(n - 1);
    }
    MPI_Barrier();
    return n;
}

void main() {
    int x = spin(2);
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["spin"].classify("MPI_Barrier") == ALWAYS
    assert summaries["main"].classify("MPI_Barrier") == ALWAYS


def test_summaries_omp_regions_count_once_per_process():
    program, graph = _graph("""
void regions() {
    float a = 1.0;
    float b = 0.0;
    #pragma omp parallel
    {
        #pragma omp single
        {
            MPI_Barrier();
        }
        #pragma omp task
        {
            MPI_Allreduce(a, b, "sum");
        }
    }
}

void main() {
    regions();
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["regions"].classify("MPI_Barrier") == ALWAYS
    # Tasks are deferred: may, never must.
    assert summaries["regions"].classify("MPI_Allreduce") == CONDITIONAL


# -- CFG post-dominance must side ---------------------------------------------------


def test_must_survives_early_return():
    """The ROADMAP open item: a collective executed on every path is
    ``always`` even when one path leaves through an early ``return`` — the
    set of barrier blocks collectively post-dominates the entry, which the
    structural accumulate-until-exit rule cannot see."""
    program, graph = _graph("""
int sync_or_bail(int v) {
    if (v > 100) {
        MPI_Barrier();
        return 100;
    }
    MPI_Barrier();
    return v;
}

void main() {
    int x = 1;
    x = sync_or_bail(x);
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["sync_or_bail"].classify("MPI_Barrier") == ALWAYS
    # ... and the upgrade propagates to the caller through the fixpoint.
    assert summaries["main"].classify("MPI_Barrier") == ALWAYS


def test_must_gallery_case_classifies_always():
    """The seeded gallery case is the living proof of the post-dominance
    formulation: statically flagged (paper's branch-duplication class),
    dynamically clean, and summarized MPI_Barrier [always]."""
    from repro.bench.errors_gallery import CASES

    case = CASES["early_return_always_barrier"]
    program = parse_program(case.source, case.name)
    summaries = collective_summaries(program)
    assert summaries["sync_or_bail"].classify("MPI_Barrier") == ALWAYS


def test_must_branch_duplicated_collective_is_always():
    program, graph = _graph("""
void diamond(int r) {
    if (r == 0) {
        MPI_Barrier();
    }
    else {
        MPI_Barrier();
    }
    if (r == 1) {
        return;
    }
    r = r + 1;
}

void main() {
    diamond(0);
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["diamond"].classify("MPI_Barrier") == ALWAYS


def test_must_cfg_view_stays_sound_on_skippable_paths():
    """Shapes where some entry→exit path genuinely avoids the collective
    must stay conditional under the CFG view too."""
    program, graph = _graph("""
void loop_only(int n) {
    while (n > 0) {
        MPI_Barrier();
        n = n - 1;
    }
}

int bail_before(int n) {
    if (n == 0) {
        return 0;
    }
    MPI_Barrier();
    return n;
}

void dead_code(int n) {
    return;
    MPI_Barrier();
}

void main() {
    loop_only(2);
    int x = bail_before(1);
    dead_code(0);
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["loop_only"].classify("MPI_Barrier") == CONDITIONAL
    assert summaries["bail_before"].classify("MPI_Barrier") == CONDITIONAL
    # An unreachable collective contributes no must event (its block is
    # pruned from the CFG) — it stays in the exact may set only.
    assert summaries["dead_code"].classify("MPI_Barrier") == CONDITIONAL


def test_must_through_always_callee_on_every_path():
    """Blocks calling an ALWAYS-callee count as event blocks for the cut:
    a caller reaching the collective only through helpers on both branches
    is still ``always``."""
    program, graph = _graph("""
int left(int v) {
    MPI_Barrier();
    return v;
}

int right(int v) {
    MPI_Barrier();
    return v + 1;
}

void caller(int r) {
    int x = 0;
    if (r == 0) {
        x = left(x);
        return;
    }
    x = right(x);
}

void main() {
    caller(0);
}
""")
    summaries = collective_summaries(program, graph)
    assert summaries["left"].classify("MPI_Barrier") == ALWAYS
    assert summaries["right"].classify("MPI_Barrier") == ALWAYS
    assert summaries["caller"].classify("MPI_Barrier") == ALWAYS


# -- DOT export ---------------------------------------------------------------------


def test_callgraph_dot_shape():
    program, graph = _graph("""
int bump(int v) {
    MPI_Barrier();
    return v + 1;
}

void main() {
    int x = 0;
    #pragma omp parallel
    {
        x = bump(x);
    }
}
""")
    cm = propagate_contexts(program, graph)
    summaries = collective_summaries(program, graph)
    dot = callgraph_to_dot(graph, cm, summaries)
    assert dot.startswith('digraph "callgraph"')
    assert '"main" -> "bump" [style=dashed];' in dot  # expression call
    assert "fillcolor=gold" in dot  # always-collective node
    assert "ctx: P-1" in dot


# -- one CFG per function ---------------------------------------------------------

_TWO_CONTEXTS = """
void helper(int r) {
    if (r == 0) {
        MPI_Barrier();
    }
}
void main() {
    int r = MPI_Comm_rank();
    helper(r);
    #pragma omp parallel
    {
        helper(r);
    }
}
"""


def test_analyze_program_builds_each_cfg_once(monkeypatch):
    """The summaries' post-dominance check and every context word's
    function analysis share one CFG per function."""
    import repro.cfg.build as cfg_build
    import repro.core.callgraph as callgraph
    import repro.core.driver as driver
    from repro.core import analyze_program

    built = []

    def counting(func, user_funcs=None):
        built.append(func.name)
        return cfg_build.build_cfg(func, user_funcs)

    monkeypatch.setattr(callgraph, "build_cfg", counting)
    monkeypatch.setattr(driver, "build_cfg", counting)
    program = parse_program(_TWO_CONTEXTS, "t")
    analysis = analyze_program(program)
    assert len(analysis.function("helper").context_words) == 2
    assert analysis.summaries["helper"].classify("MPI_Barrier") == CONDITIONAL
    assert sorted(built) == ["helper", "main"]
    # Middle-end CFGs passed in are reused by both users: no build at all.
    cfgs = cfg_build.build_program_cfgs(program)
    built.clear()
    with_cfgs = analyze_program(program, cfgs=cfgs)
    assert built == []
    assert with_cfgs.function("helper").cfg is cfgs["helper"][0]
