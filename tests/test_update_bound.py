"""Theorem 5.1's update bound for ``B_eq`` automata, asserted on counters.

When every join of an automaton is in ``B_eq``, what one tuple costs is
bounded by the compiled dispatch index alone — not by the stream's length
nor by the window.  For a tuple ``t`` with candidate transitions
``C = index.candidates_for(t)``:

* ``transitions_fired`` and ``nodes_created`` are at most ``|C|``;
* ``hash_lookups`` is at most ``Σ_{c ∈ C} |probes(c)|`` — one ``H`` probe per
  join, and none after the first miss;
* ``unions`` is at most ``Σ_{c ∈ C} |consumers(c)|`` — UpdateIndices unions
  each run created into a state at most once into each slot the state is
  read through.

The bound is checked tuple by tuple on seeded streams of the 3-arm star and
of the union storm (8 labelled variants per arm tuple), on every kernel this
build runs, and the per-tuple maxima of the counters on a stream of length
``L`` and on one of ``4L`` are the same.  A fire loop that read the window
(a scan where a hash probe belongs) breaks the ``hash_lookups`` bound.
"""

import pytest

from repro.core.evaluation import StreamingEvaluator
from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.streams.generators import HCQWorkloadGenerator

from helpers import ARENAS, union_storm_workload

COUNTERS = ("transitions_fired", "nodes_created", "hash_lookups", "unions")
LENGTH = 1_500


def star():
    """The 3-arm star HCQ and a seeded stream of ``4 * LENGTH`` tuples."""
    generator = HCQWorkloadGenerator(arms=3, key_domain=32, seed=11)
    return hcq_to_pcea(generator.query()), generator.stream(4 * LENGTH).materialise(), 256


def union_storm():
    """The union-storm automaton (one group) and a seeded stream."""
    pcea, stream = union_storm_workload(1, 4 * LENGTH, variants=8, key_domain=8, seed=11)
    return pcea, stream, 64


def static_bound(index, tup):
    """``{counter: bound}`` for ``tup``, read off the compiled index alone."""
    candidates = index.candidates_for(tup)
    return {
        "transitions_fired": len(candidates),
        "nodes_created": len(candidates),
        "hash_lookups": sum(len(c.probes) for c in candidates),
        "unions": sum(len(c.consumers) for c in candidates),
    }


def per_tuple_maxima(pcea, stream, window, kernel):
    """Run ``stream``, asserting the static bound at every tuple; returns the
    largest per-tuple step of each counter."""
    index = pcea.dispatch_index()
    engine = StreamingEvaluator(pcea, window, kernel=kernel)
    stats = engine.stats
    largest = dict.fromkeys(COUNTERS, 0)
    before = [getattr(stats, name) for name in COUNTERS]
    for position, tup in enumerate(stream):
        engine.update(tup)
        after = [getattr(stats, name) for name in COUNTERS]
        bound = static_bound(index, tup)
        for name, old, new in zip(COUNTERS, before, after):
            step = new - old
            assert step <= bound[name], (position, name, step, bound[name])
            if step > largest[name]:
                largest[name] = step
        before = after
    assert engine.nodes_scanned == 0
    return largest


@pytest.mark.parametrize("kernel", ARENAS)
@pytest.mark.parametrize("workload", [star, union_storm], ids=["star", "union_storm"])
def test_update_work_is_bounded_by_the_automaton(workload, kernel):
    pcea, stream, window = workload()
    assert pcea.uses_only_equality_predicates()
    short = per_tuple_maxima(pcea, stream[:LENGTH], window, kernel)
    long = per_tuple_maxima(pcea, stream, window, kernel)
    assert short == long
    # Every counter moved: the bound is not met vacuously.
    assert all(short.values()), short
