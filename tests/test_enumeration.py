"""Generation is validated against an independent labeled-graph oracle:
every labeled graph on n vertices is generated from its adjacency bits and
bucketed by certificate, with no shared generation machinery.  The
canonical-deletion generator is also checked level by level against the
global-seen-set generator it replaced, which labels every child."""

import errno
import gc
import os
import signal
import threading
from itertools import combinations

import pytest

from turanlab import enumeration, invariants
from turanlab.canon import canonical_certificate_rows, canonical_labelling, certificate
from turanlab.cli import main
from turanlab.constructions import groetzsch_graph
from turanlab.deficiency import optimal_blowup
from turanlab.enumeration import (
    EnumerationLimitError,
    enumerate_graphs,
    levels_up_to,
)
from turanlab.graph import Graph
from turanlab.invariants import is_clique_free


def _labeled_classes(n, forbidden_clique=None):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for bits in range(1 << len(pairs)):
        g = Graph(n, [p for t, p in enumerate(pairs) if (bits >> t) & 1])
        if forbidden_clique is not None and not is_clique_free(g, forbidden_clique):
            continue
        seen.add(certificate(g))
    return seen


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_counts_match_labeled_oracle(n, expected):
    oracle = _labeled_classes(n)
    generated = enumerate_graphs(n)
    assert len(oracle) == expected
    assert {certificate(g) for g in generated} == oracle


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 7), (5, 14)])
def test_triangle_free_counts_match_labeled_oracle(n, expected):
    oracle = _labeled_classes(n, 3)
    generated = enumerate_graphs(n, 3)
    assert len(oracle) == expected
    assert {certificate(g) for g in generated} == oracle


def test_k4_free_matches_labeled_oracle_n5():
    assert {certificate(g) for g in enumerate_graphs(5, 4)} == _labeled_classes(5, 4)


def test_order_six_count():
    assert len(enumerate_graphs(6)) == 156
    assert len(enumerate_graphs(6, 3)) == 38


def test_order_seven_count():
    assert len(enumerate_graphs(7)) == 1044


def test_representatives_are_canonical_and_sorted():
    level = enumerate_graphs(5, 3)
    assert [g.rows for g in level] == sorted(g.rows for g in level)
    for g in level:
        assert certificate(g) == g.rows
        assert is_clique_free(g, 3)


def test_levels_are_cached_and_stable():
    a = levels_up_to(6, 3)
    b = levels_up_to(6, 3)
    assert a == b


def test_callers_cannot_change_the_cached_levels():
    level = enumerate_graphs(5, 3)
    with pytest.raises(AttributeError):
        level.clear()
    with pytest.raises(TypeError):
        level[0] = Graph(5)
    with pytest.raises(TypeError):
        del level[0]
    levels_up_to(6, 3).clear()  # the list of levels is the caller's own
    assert len(enumerate_graphs(5, 3)) == 14
    assert len(levels_up_to(6, 3)[-1]) == 38


def test_a_level_builds_the_graphs_of_its_keys():
    level = enumerate_graphs(6, 3)
    graphs = list(level)
    assert [level[i] for i in range(len(level))] == graphs
    assert list(level[3:9]) == graphs[3:9] and level[-1] == graphs[-1]
    assert level == enumerate_graphs(6, 3) and level != levels_up_to(6, 3)[-2]


@pytest.mark.parametrize("q", [1, 0, -3])
def test_a_forbidden_clique_below_two_is_rejected_at_every_order(q):
    for n in (0, 1, 5):
        with pytest.raises(ValueError, match="forbidden clique size must be >= 2"):
            enumerate_graphs(n, q)
    assert list(enumerate_graphs(0, 2)) == [Graph(0)]


def test_unrestricted_cap():
    with pytest.raises(EnumerationLimitError) as err:
        levels_up_to(12)
    assert "e" in str(err.value)  # size estimate included


def test_filtered_enumeration_equals_filtered_all_graphs():
    # the K2-free filter admits only the empty attachment set; K4- and
    # K5-free filters test attachment sets for K2 and K3
    for q in (2, 4, 5):
        for n in range(1, 8):
            filtered = {certificate(g) for g in enumerate_graphs(n, q)}
            by_filter = {certificate(g) for g in enumerate_graphs(n)
                         if is_clique_free(g, q)}
            assert filtered == by_filter, (q, n)


def _seen_set_next_level(parents, q):
    """The former generator: label every child and keep the first graph of
    each certificate, over one set for the whole level.  Every attachment
    set is tried, and one holding a K_{q-1} is dropped by a test over all
    (q-1)-subsets, so neither the twin rule of ``_extension_sets`` nor the
    clique search it calls is shared."""
    seen = set()
    out = []
    for parent in parents:
        k = parent.n
        for smask in range(1 << k):
            inside = [v for v in range(k) if smask >> v & 1]
            if q is not None and any(
                    all(parent.has_edge(u, v) for u, v in combinations(c, 2))
                    for c in combinations(inside, q - 1)):
                continue
            rows = [r | (smask >> v & 1) << k for v, r in enumerate(parent.rows)]
            cert = canonical_certificate_rows(rows + [smask], k + 1)
            if cert not in seen:
                seen.add(cert)
                out.append(Graph.from_rows(cert, check=False))
    out.sort(key=lambda g: g.rows)
    return out


def _brute_extension_sets(rows, q):
    """Every attachment set of ``rows`` that induces no K_{q-1}, holds a
    prefix of each twin class (u and v are twins when their rows agree off
    the pair itself) and gives the new vertex least degree in the child."""
    k = len(rows)
    deg = [r.bit_count() for r in rows]
    delta = min(deg)
    out = []
    for smask in range(1 << k):
        inside = [v for v in range(k) if smask >> v & 1]
        if q is not None and any(
                all(rows[u] >> v & 1 for u, v in combinations(c, 2))
                for c in combinations(inside, q - 1)):
            continue
        if any(rows[v] & ~(1 << u) == rows[u] & ~(1 << v) and not smask >> v & 1
               for u in inside for v in range(u)):
            continue
        size = len(inside)
        if size <= delta or size == delta + 1 and all(
                smask >> v & 1 for v in range(k) if deg[v] == delta):
            out.append(smask)
    return out


@pytest.mark.parametrize("q,max_order", [(None, 7), (3, 9), (4, 7)])
def test_extension_sets_equal_a_brute_force_filter(q, max_order):
    for level in levels_up_to(max_order - 1, q):
        for parent in level:
            got = enumeration._extension_sets(parent.rows, parent.n, q)
            assert sorted(got) == _brute_extension_sets(parent.rows, q), \
                (q, parent.rows)


@pytest.mark.parametrize("q,max_order", [(None, 7), (3, 9), (4, 7), (5, 7)])
def test_levels_equal_the_seen_set_generator(q, max_order):
    levels = levels_up_to(max_order, q)
    level = [Graph(1)]
    for n in range(2, max_order + 1):
        level = _seen_set_next_level(level, q)
        assert [g.rows for g in levels[n - 1]] == [g.rows for g in level], (q, n)


def test_triangle_free_order_nine_labels_few_children(monkeypatch):
    # the seen-set generator labels all 24,149 children of order 9;
    # canonical deletion labels 2,583, of which the 1,043 ties also ask for
    # the orbits.  The count runs in-process, since labellings in forked
    # workers would not reach this list
    levels_up_to(8, 3)
    parents = enumeration._LEVELS[3][7]
    calls = []

    def counting(label):
        def count(rows, n):
            calls.append(label)
            return label(rows, n)
        return count

    for label in (canonical_certificate_rows, canonical_labelling):
        monkeypatch.setattr(enumeration, label.__name__, counting(label))
    level = [c for p in parents for c in enumeration._children(p, 8, 3)]
    assert len(level) == 1897
    assert (calls.count(canonical_certificate_rows),
            calls.count(canonical_labelling)) == (1540, 1043)


def _counting_forks(monkeypatch, cores):
    """Give the level builder ``cores`` usable cores; return the list of
    worker pids forked from here on."""
    forked = []
    fork = enumeration.os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(enumeration, "_usable_cores", lambda: cores)
    monkeypatch.setattr(enumeration.os, "fork", counting_fork)
    return forked


@pytest.mark.parametrize("q,max_order", [(None, 8), (3, 10), (4, 8)])
def test_levels_do_not_depend_on_the_worker_count(monkeypatch, q, max_order):
    levels_up_to(max_order, q)
    keys = enumeration._LEVELS[q][:max_order]
    for cores in (1, 2, 3):
        # one share per core, with at least 64 parents each; this process
        # builds one share and forks a worker for each other share
        workers = [min(cores, len(level) // 64) for level in keys[:-1]]
        forked = _counting_forks(monkeypatch, cores)
        for n in range(2, max_order + 1):
            level = enumeration._next_level(keys[n - 2], n - 1, q)
            assert level == keys[n - 1], (cores, q, n)
        assert len(forked) == sum(max(w, 1) - 1 for w in workers)


def test_levels_are_built_in_process_while_another_thread_runs(monkeypatch):
    levels_up_to(8)
    keys = enumeration._LEVELS[None]
    forked = _counting_forks(monkeypatch, 2)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert len(keys[6]) == 1044
        assert enumeration._next_level(keys[6], 7, None) == keys[7]
    finally:
        release.set()
        waiting.join()
    assert forked == []


def _level_eight_fails(capsys, error, message, forked):
    """Building order 8 from the cached order-7 level raises ``error`` with
    ``message``, twice: through ``levels_up_to`` and through the CLI, which
    exits 2.  The cache keeps its 7 levels, and every worker in ``forked``
    has been reaped."""
    cached = enumeration._LEVELS[None][:]
    del enumeration._LEVELS[None][7:]
    try:
        with pytest.raises(error) as exc:
            levels_up_to(8)
        assert str(exc.value) == message
        assert len(enumeration._LEVELS[None]) == 7
        assert main(["enumerate", "--n", "8"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert len(enumeration._LEVELS[None]) == 7
    finally:
        enumeration._LEVELS[None][:] = cached
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_a_worker_that_cannot_be_forked_fails_the_level(monkeypatch, capsys):
    levels_up_to(7)
    forked = _counting_forks(monkeypatch, 3)
    counting_fork = enumeration.os.fork
    calls = []

    def second_fork_fails():
        # of each level's two forks, the second fails
        calls.append(len(calls) % 2)
        if calls[-1]:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return counting_fork()

    pipes = []
    pipe = enumeration.os.pipe

    def recording_pipe():
        fds = pipe()
        pipes.extend(fds)
        return fds

    monkeypatch.setattr(enumeration.os, "fork", second_fork_fails)
    monkeypatch.setattr(enumeration.os, "pipe", recording_pipe)
    message = f"enumeration workers: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
    _level_eight_fails(capsys, enumeration.EnumerationWorkerError, message, forked)
    # the one worker of each attempt that was forked has been reaped, and
    # every pipe is closed, the one made for the failed fork included
    assert calls == [0, 1, 0, 1] and len(forked) == 2
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("how,detail", [
    ("raise", "ValueError: boom"),
    ("kill", f"ended by signal {signal.SIGKILL}"),
    ("exit", "no answer, exit status 0"),
], ids=["raise", "kill", "exit"])
def test_a_failing_worker_fails_the_level(monkeypatch, capsys, how, detail):
    levels_up_to(7)
    boom = enumeration._LEVELS[None][6][501]  # the key of a parent of worker 1
    forked = _counting_forks(monkeypatch, 2)
    children = enumeration._children
    here = os.getpid()

    def failing(parent, k, q):
        # only ever in a worker
        if parent == boom and k == 7 and os.getpid() != here:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "exit":  # an exit status of 0 with no answer
                os._exit(0)
            raise ValueError("boom")
        return children(parent, k, q)

    monkeypatch.setattr(enumeration, "_children", failing)
    message = f"enumeration worker 1 of 2 failed: {detail}"
    _level_eight_fails(capsys, enumeration.EnumerationWorkerError, message, forked)
    # the one worker of each attempt has been reaped
    assert len(forked) == 2


def test_a_failure_in_this_process_share_fails_the_level(monkeypatch, capsys):
    levels_up_to(7)
    boom = enumeration._LEVELS[None][6][500]  # the key of a parent of share 0
    forked = _counting_forks(monkeypatch, 2)
    children = enumeration._children
    here = os.getpid()

    def failing(parent, k, q):
        # only ever in this process, while the worker runs or has answered
        if parent == boom and k == 7 and os.getpid() == here:
            raise ValueError("boom")
        return children(parent, k, q)

    monkeypatch.setattr(enumeration, "_children", failing)
    _level_eight_fails(capsys, ValueError, "boom", forked)
    # the one worker of each attempt has been killed and reaped
    assert len(forked) == 2


def test_the_recursive_searches_leave_no_reference_cycle(monkeypatch):
    # canon's search, the colouring and clique searches, extension-set
    # growth and the maximal-clique walk each recurse through a nested
    # function whose cell holds it; the cell is cleared when the call
    # ends, so with the collector off nothing is left for it to free
    g = groetzsch_graph()
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        canonical_labelling(g.rows, g.n)
        canonical_certificate_rows(g.rows, g.n)
        assert gc.collect() == 0
        invariants.is_r_colorable(g, 3)
        invariants.chromatic_number(g)
        invariants.max_clique(g)
        levels_up_to(7, 3)
        optimal_blowup(g, 20)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
