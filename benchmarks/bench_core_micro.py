"""Micro-benchmarks of the core operations (library performance suite).

Not tied to a paper claim — this is the operational profile a downstream
user cares about: how long the embedding, configuration, weight sweep,
separator and DFS take at a representative size.  Regressions here flag
accidental quadratic behaviour in the face machinery.

Also home of the CONGEST scheduler A/B: the active-set dispatch vs the
legacy dense (every node, every round) dispatch on a sparse-activity
workload — a single-source BFS wavefront on a long path, where at any
moment only the frontier plus a small quiet-countdown window has work —
and of the embedding A/B: the in-repo LR-planarity port against
networkx's ``check_planarity``, and of the component-pass A/B:
``induced_components`` against networkx's ``connected_components`` over
subgraph views, which checks the two agree.
Every A/B table reports the median and quartiles of alternating repeats.
The weight-sweep table checks that a face weight's cost does not grow with
the face's border (Lemma 12).  The insertion-sizing A/B replays every
``balanced_insertion`` call ``dfs_tree`` makes, building each insertion
against sizing it from the parent configuration, and fails on any call
where the two disagree.  The component-setup A/B replays every
component ``dfs_tree`` builds, restricting the rotation and then
normalizing it against one configuration build, and fails on any
component where the two disagree.  The oracle A/B times the churn
engine's two per-batch oracles on live churn states: the ``G - S``
report as an adjacency walk against networkx's subgraph view, and the
cycle certificate read from the live rotation against a configuration
build plus a slot-pair search; each pair must agree on every state.
"""

import gc
import statistics
import time

import networkx as nx

from _common import emit
from repro.applications import biconnectivity
from repro.congest import Network, RoundTrace
from repro.obs import Tracer
from repro.core.augment import balanced_insertion, insertion_variants, planar_slot_pairs
from repro.core.certify import certify_cycle
from repro.core.config import PlanarConfiguration
import repro.core.dfs as dfs_module
import repro.core.separator as separator_module
from repro.core.dfs import dfs_tree
from repro.core.faces import face_view
from repro.core.separator import cycle_separator
from repro.core.subroutines import dfs_order_phases
from repro.core.verify import separator_report
from repro.core.weights import fundamental_weights, weight
from repro.dynamic import DynamicPipeline, flap_updates
from repro.planar import RotationSystem, embed, embed_subgraph, induced_components
from repro.planar import generators as gen
from repro.trees import RootedTree, bfs_tree

N = 600
GRAPH = gen.delaunay(N, seed=7)
ROTATION = embed(GRAPH)
CONFIG = PlanarConfiguration.build(GRAPH, root=0)
EDGES = CONFIG.real_fundamental_edges()

#: Repeats per configuration of every A/B table below.
REPEATS = 15


def _alternating(configs):
    """Run each ``(name, fn)`` of ``configs`` :data:`REPEATS` times,
    alternating: repeat ``i`` runs them in an order rotated by ``i``, so
    slow and fast stretches of the host fall on all of them alike.
    Returns each name's last result and the ``(q1, median, q3)`` of its
    seconds.  Where two names' q1..q3 ranges overlap, their difference is
    below the host's noise."""
    times = {name: [] for name, _ in configs}
    results = {}
    for i in range(REPEATS):
        k = i % len(configs)
        for name, run in configs[k:] + configs[:k]:
            t0 = time.perf_counter()
            results[name] = run()
            times[name].append(time.perf_counter() - t0)
    return results, {name: statistics.quantiles(t, n=4) for name, t in times.items()}


def _timing(stats, base, unit="seconds"):
    """The median/q1/q3 columns of one row in ``unit`` (``"seconds"`` or
    ``"ms"``), plus its speedup over ``base`` seconds."""
    scale = 1e3 if unit == "ms" else 1
    q1, median, q3 = (t * scale for t in stats)
    return {"repeats": REPEATS, unit: round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "speedup": round(base * scale / median, 2)}


# -- embedding: in-repo LR port vs networkx ----------------------------------

def embed_speedup_rows():
    """``embed`` (the in-repo LR-planarity port) against networkx's
    ``check_planarity`` plus ``RotationSystem.from_networkx_embedding``,
    the pair it replaced, on ``delaunay(250)`` and the 30x30 grid.  Both
    must produce the same rotation."""
    rows = []
    for workload, graph in (("delaunay-250", gen.delaunay(250, seed=0)),
                            ("grid-30x30", gen.grid(30, 30))):
        def networkx_embed(graph=graph):
            _, embedding = nx.check_planarity(graph, counterexample=False)
            return RotationSystem.from_networkx_embedding(embedding)

        configs = [("networkx check_planarity", networkx_embed),
                   ("embed (LR port)", lambda graph=graph: embed(graph))]
        results, stats = _alternating(configs)
        rotations = [{v: r.neighbors_cw(v) for v in r.nodes} for r in results.values()]
        assert rotations[0] == rotations[1], workload
        base = stats[configs[0][0]][1]
        for name, _ in configs:
            rows.append({"embedder": name, "workload": workload, "n": len(graph),
                         "m": graph.number_of_edges(),
                         **_timing(stats[name], base, unit="ms")})
    return rows


_EMBED_TITLE = (
    "Embedding - the in-repo LR-planarity port vs networkx check_planarity "
    f"+ from_networkx_embedding (median, q1, q3 of {REPEATS} alternating repeats, "
    f"milliseconds per run)"
)


# -- per-batch oracles: adjacency walk and live-rotation certificate --------

#: The oracle rows replay live churn states of two workloads, every state
#: ``ORACLE_PASSES`` times per repeat: ``delaunay(150)`` at 8 seeds, whose
#: separators close with real edges, and the lattices, whose separators
#: need the face test (virtual edges).
ORACLE_PASSES = 10
ORACLE_WORKLOADS = (
    ("churn delaunay-150 x8", lambda: [gen.delaunay(150, seed=s) for s in range(8)]),
    ("churn grid-12/14 + tri-grid-16",
     lambda: [gen.grid(12, 12), gen.grid(14, 14), gen.triangulated_grid(16, 16)]),
)


def _churn_states(graphs):
    """``(graph, rotation, separator tree, separator path)`` of each live
    state, read from the repair engine after three flap batches."""
    states = []
    for seed, graph in enumerate(graphs):
        pipeline = DynamicPipeline(graph)
        for batch in flap_updates(graph, seed=seed, rate=0.02, rounds=3):
            pipeline.apply(batch)
        states.append((pipeline.dyn.graph, pipeline.dyn.rotation,
                       pipeline._sep_tree, list(pipeline.separator_path)))
    return states


def _view_components(graph, separator):
    """The ``G - S`` component sizes through a networkx subgraph view."""
    sep = set(separator)
    assert not sep - set(graph.nodes)
    rest = graph.subgraph(set(graph.nodes) - sep)
    return sorted((len(c) for c in nx.connected_components(rest)), reverse=True)


def _slot_pair_certificate(graph, rotation, tree, path):
    """The certificate from a configuration built on the live rotation
    and the slot enumeration augment uses."""
    cfg = PlanarConfiguration(graph, rotation, tree)
    if len(path) <= 2:
        return "trivial"
    a, b = path[0], path[-1]
    if graph.has_edge(a, b):
        return "real-edge"
    if next(planar_slot_pairs(cfg, a, b), None) is not None:
        return "virtual-edge"
    return "none"


def oracle_speedup_rows():
    """The two per-batch churn oracles, each against the construction it
    replaced, on the live states of :data:`ORACLE_WORKLOADS`: the ``G - S``
    balance report as one adjacency walk (``separator_report``) against
    networkx's connected components of a subgraph view, and the cycle
    certificate read from the live rotation's faces (``certify_cycle``)
    against a configuration build plus a slot-pair search.  Both pairs
    must agree on every state."""
    rows = []
    for workload, graphs in ORACLE_WORKLOADS:
        states = _churn_states(graphs())
        calls = ORACLE_PASSES * len(states)
        certificates = sorted({certify_cycle(g, rot, path)
                               for g, rot, tree, path in states})
        ab = (
            ("G - S report", [
                ("networkx subgraph view",
                 lambda: [_view_components(g, path)
                          for _ in range(ORACLE_PASSES) for g, _, _, path in states]),
                ("separator_report (adjacency walk)",
                 lambda: [separator_report(g, path).components
                          for _ in range(ORACLE_PASSES) for g, _, _, path in states]),
            ]),
            ("cycle certificate", [
                ("configuration + slot pairs",
                 lambda: [_slot_pair_certificate(g, rot, tree, path)
                          for _ in range(ORACLE_PASSES) for g, rot, tree, path in states]),
                ("certify_cycle (live rotation)",
                 lambda: [certify_cycle(g, rot, path)
                          for _ in range(ORACLE_PASSES) for g, rot, tree, path in states]),
            ]),
        )
        for oracle, configs in ab:
            results, stats = _alternating(configs)
            first, second = results.values()
            assert first == second, (workload, oracle)
            base = stats[configs[0][0]][1]
            for name, _ in configs:
                rows.append({"oracle": oracle, "implementation": name, "workload": workload,
                             "certificates": "/".join(certificates), "calls": calls,
                             **_timing(stats[name], base),
                             "us_per_call": round(1e6 * stats[name][1] / calls, 1)})
    return rows


_ORACLE_TITLE = (
    "Per-batch churn oracles - adjacency walk vs networkx view, live-rotation "
    "certificate vs configuration + slot pairs "
    f"(seconds per {ORACLE_PASSES} passes; median, q1, q3 of {REPEATS} alternating repeats)"
)


# -- component pass: induced_components vs networkx views -------------------

def _component_pass_inputs(graph):
    """The node sets ``dfs_tree(graph, 0)`` hands to ``induced_components``:
    one per phase start and one per JOIN re-split."""
    inputs = []

    def recording(g, nodes):
        inputs.append(nodes)
        return induced_components(g, nodes)

    dfs_module.induced_components = recording
    try:
        dfs_tree(graph, 0)
    finally:
        dfs_module.induced_components = induced_components
    return inputs


def components_speedup_rows():
    """``induced_components`` against the networkx expression it replaced,
    ``[set(c) for c in nx.connected_components(graph.subgraph(nodes))]``,
    over every node set ``dfs_tree`` splits on ``delaunay(250)`` and the
    30x30 grid.  Both must return the same sets in the same list order and
    the same iteration order within each set."""
    rows = []
    for workload, graph in (("delaunay-250", gen.delaunay(250, seed=0)),
                            ("grid-30x30", gen.grid(30, 30))):
        inputs = _component_pass_inputs(graph)

        def networkx_views(graph=graph, inputs=inputs):
            return [[set(c) for c in nx.connected_components(graph.subgraph(nodes))]
                    for nodes in inputs]

        def induced(graph=graph, inputs=inputs):
            return [induced_components(graph, nodes) for nodes in inputs]

        expected, got = networkx_views(), induced()
        assert got == expected, workload
        assert [[list(c) for c in cs] for cs in got] == \
            [[list(c) for c in cs] for cs in expected], workload
        configs = [("networkx subgraph views", networkx_views),
                   ("induced_components", induced)]
        _, stats = _alternating(configs)
        base = stats[configs[0][0]][1]
        for name, _ in configs:
            q1, median, q3 = stats[name]
            rows.append({"splitter": name, "workload": workload, "n": len(graph),
                         "node_sets": len(inputs), "repeats": REPEATS,
                         "ms": round(median * 1e3, 3), "q1": round(q1 * 1e3, 3),
                         "q3": round(q3 * 1e3, 3), "speedup": round(base / median, 2)})
    return rows


_COMPONENTS_TITLE = (
    "Component pass - induced_components vs networkx connected_components over "
    "subgraph views, on every node set dfs_tree splits "
    f"(median, q1, q3 of {REPEATS} alternating repeats, milliseconds per dfs_tree call)"
)


# -- component setup: restrict-then-normalize vs one build -------------------

def _recorded_components(graph):
    """``(rotation, subgraph, root, marked)`` for every component
    ``dfs_tree(graph, 0)`` builds: the rotation and induced copy its
    configuration is built from, the spanning tree's root, and the
    separator nodes its first JOIN iteration hangs."""
    built, marked = [], []
    separator, join = dfs_module._component_separator, dfs_module._join

    def recording_separator(rotation, subgraph, root, ledger):
        built.append((rotation, subgraph, root))
        return separator(rotation, subgraph, root, ledger)

    def recording_join(graph, component, todo, *args):
        marked.append(set(todo))
        return join(graph, component, todo, *args)

    dfs_module._component_separator = recording_separator
    dfs_module._join = recording_join
    try:
        dfs_tree(graph, 0)
    finally:
        dfs_module._component_separator, dfs_module._join = separator, join
    return [(*b, m) for b, m in zip(built, marked)]


def _two_step_setup(rotation, subgraph, root, marked):
    """The per-component setup before the single build: restrict the
    rotation (``embed_subgraph``), let the configuration normalize the
    restricted copy, and find the JOIN path on a :class:`RootedTree`."""
    parent, _ = dfs_module._attachment_spanning_tree(subgraph, root, set())
    cfg = PlanarConfiguration(subgraph, embed_subgraph(rotation, subgraph),
                              RootedTree(parent, root))
    tree = RootedTree(dfs_module._attachment_spanning_tree(subgraph, root, marked)[0], root)
    target = max(marked, key=lambda m: (tree.depth[m], repr(m)))
    return cfg, tree.path(root, target)


def _single_build_setup(rotation, subgraph, root, marked):
    """The single build: one configuration from the whole graph's
    rotation, and the JOIN path walked off the search's parent map."""
    parent, _ = dfs_module._attachment_spanning_tree(subgraph, root, set())
    cfg = PlanarConfiguration(subgraph, rotation, RootedTree(parent, root))
    return cfg, dfs_module._join_path(subgraph, root, marked)


def _same_setup(a, b):
    (cfg_a, path_a), (cfg_b, path_b) = a, b
    return (path_a == path_b and cfg_a.pi_left == cfg_b.pi_left
            and cfg_a.pi_right == cfg_b.pi_right
            and cfg_a._child_prefix == cfg_b._child_prefix
            and all(cfg_a.t(v) == cfg_b.t(v) for v in cfg_a.graph))


def component_setup_rows():
    """The per-component setup of ``dfs_tree(graph, 0)`` on ``delaunay(250)``
    and the 14x14 grid, replayed over every component it builds two ways:
    the two-step sequence (:func:`_two_step_setup`: two rotation systems
    and a second :class:`RootedTree` per component) and the single build
    (:func:`_single_build_setup`).  Both sides include the separator's
    spanning-tree search, and both run ``_attachment_spanning_tree``,
    which also records depths.  Fails unless both give the same rotation rows, DFS orders,
    child prefix sums and JOIN path on every component."""
    rows = []
    for workload, graph in (("delaunay-250", gen.delaunay(250, seed=0)),
                            ("grid-14x14", gen.grid(14, 14))):
        components = _recorded_components(graph)

        def replay(setup, components=components):
            return [setup(*c) for c in components]

        two, one = replay(_two_step_setup), replay(_single_build_setup)
        mismatches = [i for i, (a, b) in enumerate(zip(two, one)) if not _same_setup(a, b)]
        assert not mismatches, (workload, mismatches)
        configs = [("restrict, normalize, RootedTree JOIN",
                    lambda replay=replay: replay(_two_step_setup)),
                   ("single build, parent-walk JOIN",
                    lambda replay=replay: replay(_single_build_setup))]
        _, stats = _alternating(configs)
        base = stats[configs[0][0]][1]
        for name, _ in configs:
            q1, median, q3 = stats[name]
            rows.append({"setup": name, "workload": workload, "n": len(graph),
                         "components": len(components),
                         "component_nodes": sum(len(c[1]) for c in components),
                         "repeats": REPEATS, "ms": round(median * 1e3, 3),
                         "q1": round(q1 * 1e3, 3), "q3": round(q3 * 1e3, 3),
                         "speedup": round(base / median, 2)})
    return rows


_COMPONENT_SETUP_TITLE = (
    "Component setup - every component dfs_tree(graph, 0) builds, restricting the "
    "rotation, normalizing it and finding the JOIN path on a RootedTree vs one "
    "configuration build and a parent-map walk "
    f"(median, q1, q3 of {REPEATS} alternating repeats, milliseconds per dfs_tree's components)"
)


# -- weight sweep: per-face cost against border length ----------------------

def weight_sweep_rows():
    """Per-face ``face_view`` + ``weight`` cost on BFS configurations of
    ``grid(3, k)``, whose longest border grows with ``k``, and on
    ``delaunay(600)``.  Each row is the median and quartiles of
    :data:`REPEATS` sweeps over all real fundamental edges, in µs per
    face.  Lemma 12 makes a weight endpoint-local, so the cost must not
    follow the border length.  ``pass_us_per_face`` is the median of the
    same sweeps done by ``fundamental_weights``, the separator's one pass
    that builds no view."""
    workloads = [(f"grid(3, {k})", PlanarConfiguration.build(gen.grid(3, k), root=0))
                 for k in (20, 40, 80, 160)]
    workloads.append((f"delaunay({N})", CONFIG))
    rows = []
    for workload, cfg in workloads:
        edges = cfg.real_fundamental_edges()
        longest = max(len(face_view(cfg, e).border) for e in edges)  # also a warm-up
        times, pass_times = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for e in edges:
                weight(cfg, face_view(cfg, e))
            t1 = time.perf_counter()
            fundamental_weights(cfg)
            t2 = time.perf_counter()
            times.append((t1 - t0) / len(edges) * 1e6)
            pass_times.append((t2 - t1) / len(edges) * 1e6)
        q1, median, q3 = statistics.quantiles(times, n=4)
        rows.append({"workload": workload, "n": cfg.n, "faces": len(edges),
                     "longest_border": longest, "repeats": REPEATS,
                     "us_per_face": round(median, 2), "q1": round(q1, 2),
                     "q3": round(q3, 2),
                     "pass_us_per_face": round(statistics.median(pass_times), 2)})
    return rows


_WEIGHT_TITLE = (
    "Weight sweep - face_view + weight per real fundamental face, BFS trees "
    f"(median, q1, q3 of {REPEATS} repeats, microseconds per face; "
    "pass_us_per_face = the median of fundamental_weights' one pass, per face)"
)


def _check_weight_sweep(rows):
    """The k = 160 grid's per-face cost stays within 2x of k = 20's."""
    cost = {r["workload"]: r["us_per_face"] for r in rows}
    assert cost["grid(3, 160)"] <= 2 * cost["grid(3, 20)"], rows


# -- dfs_tree scaling: time per 4x nodes -----------------------------------

#: Repeats per instance of the scaling table (its 16k rows dominate).
SCALING_REPEATS = 5
#: The gate: from n ~ 4k to n ~ 16k, ``dfs_tree``'s median time per 4x
#: of the algorithm's own work may grow at most this much on every family.
#: Linear code reads 4x plus CPython's own growth (full collections over a
#: larger heap).  NOT-CONTAINED building every candidate face's node set
#: read 7.3x on the grid and 17.7x on the triangulated grid; three
#: back-to-back tables read at most 5.02 when the gate came down from 6.5.
SCALING_GATE = 6.0
_SCALING_FAMILIES = (
    ("grid", {1000: 32, 4000: 63, 16000: 126}, lambda k: gen.grid(k, k)),
    ("triangulated_grid", {1000: 32, 4000: 63, 16000: 126},
     lambda k: gen.triangulated_grid(k, k)),
    ("delaunay", {1000: 1000, 4000: 4000, 16000: 16000},
     lambda k: gen.delaunay(k, seed=0)),
)


def dfs_scaling_rows():
    """``dfs_tree(graph, 0)``, embedding included, on grid, triangulated
    grid and Delaunay at n ~ 1k, 4k and 16k: the median and quartiles of
    :data:`SCALING_REPEATS` alternating repeats (repeat ``i`` runs the
    instances in an order rotated by ``i``).  Each run gets a freshly
    generated graph, untimed, and a collected heap, so no run pays for
    another's inputs or garbage.

    ``separator_nodes`` sums the part sizes over every part of every
    phase, parts of at most two nodes (which skip the separator call)
    included: the work Theorem 2's algorithm does, about ``n`` per phase.  Its
    growth is the algorithm's, not the implementation's (Delaunay's
    phase count varies by instance), so ``ratio_per_4x`` (the median over
    the previous size's) is also given per 4x of that work, which is
    what the table reports.  ``paired_per_4x_work`` is the same ratio
    taken within each repeat (both sizes ran in the same rotated pass, so
    a slow stretch of the host falls on both), with its quartiles; its
    median is what :func:`_check_dfs_scaling` gates."""
    instances = [(family, size, make, k)
                 for family, params, make in _SCALING_FAMILIES
                 for size, k in params.items()]
    times = {(family, size): [] for family, size, _, _ in instances}
    work = {key: set() for key in times}
    shape = {}
    counted = []

    absorb = dfs_module._absorb_part

    def counting(graph, rotation, component, *args):
        counted.append(len(component))
        return absorb(graph, rotation, component, *args)

    dfs_module._absorb_part = counting
    try:
        for i in range(SCALING_REPEATS):
            shift = i % len(instances)
            for family, size, make, param in instances[shift:] + instances[:shift]:
                graph = make(param)
                shape[(family, size)] = (len(graph), graph.number_of_edges())
                counted.clear()
                gc.collect()
                t0 = time.perf_counter()
                dfs_tree(graph, 0)
                times[(family, size)].append(time.perf_counter() - t0)
                work[(family, size)].add(sum(counted))
                del graph
    finally:
        dfs_module._absorb_part = absorb
    rows = []
    for key, seconds in times.items():
        (family, size), (done,) = key, work[key]  # deterministic: one count
        q1, median, q3 = statistics.quantiles(seconds, n=4)
        row = {"family": family, "n": shape[key][0], "m": shape[key][1],
               "separator_nodes": done, "repeats": SCALING_REPEATS,
               "seconds": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3),
               "ratio_per_4x": "-", "work_ratio": "-", "ratio_per_4x_work": "-",
               "paired_per_4x_work": "-", "paired_q1": "-", "paired_q3": "-"}
        previous = (family, size // 4)
        if previous in times:
            (before,) = work[previous]
            ratio = median / statistics.median(times[previous])
            scale = 4 * before / done
            paired = [t / t_before * scale for t, t_before in zip(seconds, times[previous])]
            p_q1, p_median, p_q3 = statistics.quantiles(paired, n=4)
            row.update(ratio_per_4x=round(ratio, 2), work_ratio=round(done / before, 2),
                       ratio_per_4x_work=round(ratio * scale, 2),
                       paired_per_4x_work=round(p_median, 2), paired_q1=round(p_q1, 2),
                       paired_q3=round(p_q3, 2))
        rows.append(row)
    return rows


_SCALING_TITLE = (
    "dfs_tree scaling - grid, triangulated grid and Delaunay at n ~ 1k, 4k, 16k, "
    f"root 0 (median, q1, q3 of {SCALING_REPEATS} alternating repeats, seconds; "
    "ratio_per_4x = median / the previous size's median; work_ratio = the same "
    "for separator_nodes; ratio_per_4x_work = ratio_per_4x * 4 / work_ratio; "
    "paired_per_4x_work, paired_q1, paired_q3 = median and quartiles of the same "
    "ratio taken within each repeat)"
)


def _check_dfs_scaling(rows):
    """From n ~ 4k to n ~ 16k every family's time grows at most
    :data:`SCALING_GATE` times per 4x of separator work, in the median of
    the ratios paired within a repeat.  The ratio of two medians taken
    across repeats moves by about 1 between back-to-back runs."""
    for row in rows:
        if row["n"] > 10_000:
            assert row["paired_per_4x_work"] <= SCALING_GATE, rows


# -- insertion sizing: physical build vs from-parent sizing -----------------

_INSERTION_WORKLOADS = (
    ("grid(12, 12)", lambda: gen.grid(12, 12)),
    ("grid(14, 14)", lambda: gen.grid(14, 14)),
    ("triangulated_grid(16, 16)", lambda: gen.triangulated_grid(16, 16)),
    ("grid(63, 63)", lambda: gen.grid(63, 63)),
)


def _physical_balanced_insertion(cfg, a, b, n, prefer_a=None, prefer_b=None):
    """``balanced_insertion`` by building: every planar insertion of ``ab``
    as a full configuration, its new face's interior counted node by node."""
    path_len = cfg.tree.path_length(a, b) + 1
    for _, view in insertion_variants(cfg, a, b, prefer_a, prefer_b):
        inside = len(view.interior())
        if 3 * inside <= 2 * n and 3 * (n - inside - path_len) <= 2 * n:
            return inside
    return None


def _recorded_insertions(graph):
    """The ``(args, kwargs)`` of every ``balanced_insertion`` call
    ``dfs_tree(graph, 0)`` makes."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return balanced_insertion(*args, **kwargs)

    separator_module.balanced_insertion = recording
    try:
        dfs_tree(graph, 0)
    finally:
        separator_module.balanced_insertion = balanced_insertion
    return calls


def insertion_speedup_rows():
    """Every ``balanced_insertion`` call ``dfs_tree(graph, 0)`` makes on
    the three ``dfs-lattice`` instances and ``grid(63, 63)``, replayed two
    ways: building each planar insertion and counting its face
    (:func:`_physical_balanced_insertion`), and ``balanced_insertion``
    itself, which sizes the face from the parent configuration.  Fails
    unless both return the same value on every call."""
    rows = []
    for workload, make in _INSERTION_WORKLOADS:
        calls = _recorded_insertions(make())

        def replay(fn, calls=calls):
            return [fn(*args, **kwargs) for args, kwargs in calls]

        physical, sized = replay(_physical_balanced_insertion), replay(balanced_insertion)
        mismatches = [i for i, (p, q) in enumerate(zip(physical, sized)) if p != q]
        assert not mismatches, (workload, mismatches)
        configs = [("physical build", lambda replay=replay: replay(_physical_balanced_insertion)),
                   ("from-parent sizing", lambda replay=replay: replay(balanced_insertion))]
        results, stats = _alternating(configs)
        base = stats[configs[0][0]][1]
        for name, _ in configs:
            q1, median, q3 = stats[name]
            rows.append({"sizing": name, "workload": workload, "calls": len(calls),
                         "certified": sum(r is not None for r in results[name]),
                         "repeats": REPEATS, "ms": round(median * 1e3, 3),
                         "q1": round(q1 * 1e3, 3), "q3": round(q3 * 1e3, 3),
                         "speedup": round(base / median, 2)})
    return rows


_INSERTION_TITLE = (
    "Insertion sizing - every balanced_insertion call of dfs_tree(graph, 0), building "
    "each planar insertion vs sizing it from the parent configuration "
    f"(median, q1, q3 of {REPEATS} alternating repeats, milliseconds per dfs_tree's calls)"
)


# -- CONGEST scheduler A/B -------------------------------------------------

WAVE_N = 50_000       # path length: the ISSUE's sparse-activity workload
WAVE_ROUNDS = 60      # capped so the dense dispatch finishes in bench time


def _wavefront_program(slack: int = 4):
    """BFS wavefront (the bfs_run program, inlined for scheduler control)."""

    def init(ctx):
        ctx.state["dist"] = 0 if ctx.node == 0 else None
        ctx.state["parent"] = None
        ctx.state["announced"] = False
        ctx.state["quiet"] = 0

    def on_round(ctx, inbox):
        for sender, payload in inbox.items():
            dist = payload[0]
            if ctx.state["dist"] is None or dist + 1 < ctx.state["dist"]:
                ctx.state["dist"] = dist + 1
                ctx.state["parent"] = sender
                ctx.state["announced"] = False
        if ctx.state["dist"] is not None and not ctx.state["announced"]:
            ctx.state["announced"] = True
            ctx.state["quiet"] = 0
            ctx.wake()
            return {u: (ctx.state["dist"],) for u in ctx.neighbors}
        ctx.state["quiet"] += 1
        if ctx.state["dist"] is not None:
            if ctx.state["quiet"] >= slack:
                ctx.halt((ctx.state["dist"], ctx.state["parent"]))
            else:
                ctx.wake()
        return None

    return init, on_round


def _run_wavefront(net: Network, scheduler: str):
    init, on_round = _wavefront_program()
    return net.run(init, on_round, max_rounds=WAVE_ROUNDS, scheduler=scheduler)


def scheduler_speedup_rows(n: int = WAVE_N):
    """Time both dispatch strategies on the same wavefront; assert parity."""
    net = Network(gen.path_graph(n))
    configs = [(scheduler, lambda scheduler=scheduler: _run_wavefront(net, scheduler))
               for scheduler in ("dense", "active")]
    results, stats = _alternating(configs)
    assert results["dense"].rounds == results["active"].rounds
    assert results["dense"].messages_sent == results["active"].messages_sent
    return [
        {"scheduler": scheduler, "workload": f"path-{n}", "n": n,
         "rounds": results[scheduler].rounds,
         "messages": results[scheduler].messages_sent,
         **_timing(stats[scheduler], stats["dense"][1], unit="ms")}
        for scheduler in ("dense", "active")
    ]


_SPEEDUP_TITLE = (
    f"Scheduler A/B - BFS wavefront: dense vs active on a {WAVE_N}-node path "
    f"(median, q1, q3 of {REPEATS} alternating repeats, milliseconds per run)"
)


def test_micro_embedding(benchmark):
    benchmark(lambda: embed(GRAPH))


def test_micro_embed_speedup(benchmark):
    """The LR port must beat networkx's check_planarity on both instances
    with the same rotation (asserted inside embed_speedup_rows); the
    measurement is recorded in benchmarks/results/embed_speedup.txt."""
    rows = embed_speedup_rows()
    emit("embed_speedup.txt", rows, _EMBED_TITLE)
    assert all(r["speedup"] > 1.0 for r in rows if r["embedder"].startswith("embed")), rows
    benchmark(lambda: embed(GRAPH))


def test_micro_oracle_speedup(benchmark):
    """Both per-batch churn oracles must agree with the constructions they
    replaced and beat them (asserted/recorded in
    benchmarks/results/oracle_speedup.txt)."""
    rows = oracle_speedup_rows()
    emit("oracle_speedup.txt", rows, _ORACLE_TITLE)
    assert all(r["speedup"] > 1.0 for r in rows if "(" in r["implementation"]), rows
    states = _churn_states(ORACLE_WORKLOADS[0][1]())
    benchmark(lambda: [separator_report(g, path) for g, _, _, path in states])


def test_micro_configuration(benchmark):
    tree = bfs_tree(GRAPH, 0)
    benchmark(lambda: PlanarConfiguration(GRAPH, ROTATION, tree))


def test_micro_weight_sweep(benchmark):
    """Record the per-face weight cost against border length in
    benchmarks/results/weight_sweep.txt and bound its growth."""
    rows = weight_sweep_rows()
    emit("weight_sweep.txt", rows, _WEIGHT_TITLE)
    _check_weight_sweep(rows)

    def sweep():
        return [weight(CONFIG, face_view(CONFIG, e)) for e in EDGES]

    result = benchmark(sweep)
    assert len(result) == len(EDGES)


def test_micro_insertion_speedup(benchmark):
    """Both sizings agree on every recorded call (asserted inside
    insertion_speedup_rows), and sizing from the parent configuration
    beats building on every workload; the measurement is recorded in
    benchmarks/results/insertion_speedup.txt."""
    rows = insertion_speedup_rows()
    emit("insertion_speedup.txt", rows, _INSERTION_TITLE)
    assert all(r["speedup"] > 1.0 for r in rows if r["sizing"] == "from-parent sizing"), rows
    calls = _recorded_insertions(gen.grid(12, 12))
    benchmark(lambda: [balanced_insertion(*args, **kwargs) for args, kwargs in calls])


def test_micro_component_setup(benchmark):
    """Both setups agree on every component (asserted inside
    component_setup_rows), and the single build beats restrict-then-
    normalize on both workloads; the measurement is recorded in
    benchmarks/results/component_setup.txt."""
    rows = component_setup_rows()
    emit("component_setup.txt", rows, _COMPONENT_SETUP_TITLE)
    assert all(r["speedup"] > 1.0 for r in rows if r["setup"].startswith("single")), rows
    components = _recorded_components(gen.delaunay(250, seed=0))
    benchmark(lambda: [_single_build_setup(*c) for c in components])


def test_micro_largest_interior(benchmark):
    views = [face_view(CONFIG, e) for e in EDGES[:50]]

    def interiors():
        return max(len(v.interior()) for v in views)

    benchmark(interiors)


def test_micro_separator(benchmark):
    benchmark(lambda: cycle_separator(CONFIG))


def test_micro_dfs(benchmark):
    small = gen.delaunay(250, seed=7)
    benchmark(lambda: dfs_tree(small, 0))


def test_micro_dfs_order_phases(benchmark):
    benchmark(lambda: dfs_order_phases(CONFIG))


def test_micro_biconnectivity(benchmark):
    small = gen.random_planar(250, density=0.5, seed=7)
    benchmark(lambda: biconnectivity(small))


def test_micro_scheduler_speedup(benchmark):
    """Acceptance gate: the active-set scheduler must beat the dense
    dispatch by >= 2x on the sparse-activity wavefront; the measured ratio
    is recorded in benchmarks/results/scheduler_speedup.txt."""
    rows = scheduler_speedup_rows()
    emit("scheduler_speedup.txt", rows, _SPEEDUP_TITLE)
    active = next(r for r in rows if r["scheduler"] == "active")
    assert active["speedup"] >= 2.0, rows

    net = Network(gen.path_graph(5000))
    benchmark(lambda: _run_wavefront(net, "active"))


def tracing_overhead_rows(n: int = WAVE_N):
    """Time the wavefront bare, under RoundTrace, and under RoundTrace
    plus an attached Tracer span — the observability cost ladder.

    The configurations run alternating (:func:`_alternating`).  A row
    reports the median and the quartiles (q1, q3) of its runs, and the
    overhead as the ratio of its median to the bare row's.  Where the
    rows' q1..q3 ranges overlap, the overhead is below the host's noise.

    Tracing *off* is free by construction (``trace_span`` returns the
    shared ``NULL_SPAN`` singleton, no Span is allocated — locked by
    ``tests/test_obs.py``), so the bare row doubles as the tracing-off
    row; the deltas recorded here are the opt-in costs.
    """
    net = Network(gen.path_graph(n))
    init, on_round = _wavefront_program()

    def bare():
        return net.run(init, on_round, max_rounds=WAVE_ROUNDS, scheduler="active")

    def traced():
        return net.run(init, on_round, max_rounds=WAVE_ROUNDS, trace=RoundTrace(),
                       scheduler="active")

    def spanned():
        trace = RoundTrace()
        tracer = Tracer()
        tracer.attach(trace)
        with tracer.span("wavefront", n=n):
            res = net.run(init, on_round, max_rounds=WAVE_ROUNDS, trace=trace,
                          scheduler="active")
        assert tracer.spans[0].rounds == res.rounds  # full attribution
        return res

    configs = [("bare (tracing off)", bare), ("RoundTrace", traced),
               ("RoundTrace + Tracer span", spanned)]
    bare()  # warm-up: the first run pays allocator/cache setup
    results, stats = _alternating(configs)
    assert len({res.rounds for res in results.values()}) == 1
    base = stats[configs[0][0]][1]
    rows = []
    for name, _ in configs:
        q1, median, q3 = stats[name]
        rows.append({"config": name, "n": n, "rounds": results[name].rounds,
                     "repeats": REPEATS, "seconds": round(median, 4),
                     "q1": round(q1, 4), "q3": round(q3, 4),
                     "overhead": round(median / base, 2)})
    return rows


def test_micro_tracing_overhead_recorded(benchmark):
    """Satellite guard: record the tracing cost ladder on the 50k-path
    wavefront in benchmarks/results/ and bound the opt-in overhead."""
    rows = tracing_overhead_rows()
    emit("tracing_overhead.txt", rows,
         f"Tracing overhead - BFS wavefront on a {WAVE_N}-node path")
    for row in rows[1:]:
        assert row["seconds"] <= max(3 * rows[0]["seconds"],
                                     rows[0]["seconds"] + 0.05), rows

    net = Network(gen.path_graph(5000))
    init, on_round = _wavefront_program()
    trace = RoundTrace()
    Tracer().attach(trace)
    benchmark(lambda: net.run(init, on_round, max_rounds=WAVE_ROUNDS,
                              trace=trace, scheduler="active"))


def test_micro_trace_overhead_bounded(benchmark):
    """Tracing is opt-in; when on, it must stay within ~3x of untraced."""
    net = Network(gen.path_graph(3000))

    def traced():
        return _run_wavefront(net, "active"), RoundTrace()

    t0 = time.perf_counter()
    _run_wavefront(net, "active")
    bare = time.perf_counter() - t0
    init, on_round = _wavefront_program()
    t0 = time.perf_counter()
    net.run(init, on_round, max_rounds=WAVE_ROUNDS, trace=RoundTrace())
    with_trace = time.perf_counter() - t0
    assert with_trace <= max(3 * bare, bare + 0.05)
    benchmark(traced)


if __name__ == "__main__":
    scaling_rows = dfs_scaling_rows()
    emit("dfs_scaling.txt", scaling_rows, _SCALING_TITLE)
    _check_dfs_scaling(scaling_rows)
    weight_rows = weight_sweep_rows()
    emit("weight_sweep.txt", weight_rows, _WEIGHT_TITLE)
    _check_weight_sweep(weight_rows)
    emit("insertion_speedup.txt", insertion_speedup_rows(), _INSERTION_TITLE)
    emit("embed_speedup.txt", embed_speedup_rows(), _EMBED_TITLE)
    emit("oracle_speedup.txt", oracle_speedup_rows(), _ORACLE_TITLE)
    emit("components_speedup.txt", components_speedup_rows(), _COMPONENTS_TITLE)
    emit("component_setup.txt", component_setup_rows(), _COMPONENT_SETUP_TITLE)
    emit("scheduler_speedup.txt", scheduler_speedup_rows(), _SPEEDUP_TITLE)
    emit("tracing_overhead.txt", tracing_overhead_rows(),
         f"Tracing overhead - BFS wavefront on a {WAVE_N}-node path")
