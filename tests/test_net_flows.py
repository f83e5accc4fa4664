"""Max-min fair allocation: examples, property-based invariants, and a
bit-exact oracle against the original progressive-filling code."""

import struct
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import FlowSpec, max_min_allocation
from tests.maxmin_reference import reference_max_min_allocation


class TestExamples:
    def test_single_flow_gets_full_link(self):
        alloc = max_min_allocation([FlowSpec("f", ("L",))], {"L": 10e6})
        assert alloc["f"] == pytest.approx(10e6)

    def test_two_flows_share_equally(self):
        alloc = max_min_allocation(
            [FlowSpec("a", ("L",)), FlowSpec("b", ("L",))], {"L": 10e6}
        )
        assert alloc["a"] == pytest.approx(5e6)
        assert alloc["b"] == pytest.approx(5e6)

    def test_ceiling_frees_capacity_for_others(self):
        alloc = max_min_allocation(
            [FlowSpec("slow", ("L",), ceiling_bps=2e6), FlowSpec("fast", ("L",))],
            {"L": 10e6},
        )
        assert alloc["slow"] == pytest.approx(2e6)
        assert alloc["fast"] == pytest.approx(8e6)

    def test_classic_triangle(self):
        # textbook: f1 on L1, f2 on L1+L2, f3 on L2; L1=10, L2=4
        alloc = max_min_allocation(
            [
                FlowSpec("f1", ("L1",)),
                FlowSpec("f2", ("L1", "L2")),
                FlowSpec("f3", ("L2",)),
            ],
            {"L1": 10.0, "L2": 4.0},
        )
        assert alloc["f2"] == pytest.approx(2.0)  # bottlenecked on L2
        assert alloc["f3"] == pytest.approx(2.0)
        assert alloc["f1"] == pytest.approx(8.0)  # takes L1's leftover

    def test_flow_with_only_ceiling(self):
        alloc = max_min_allocation([FlowSpec("f", (), ceiling_bps=3e6)], {})
        assert alloc["f"] == pytest.approx(3e6)

    def test_empty(self):
        assert max_min_allocation([], {}) == {}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            max_min_allocation([FlowSpec("f", ("L",)), FlowSpec("f", ("L",))], {"L": 1.0})

    def test_unbounded_flow_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FlowSpec("f", (), ceiling_bps=inf)

    def test_nonpositive_ceiling_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec("f", ("L",), ceiling_bps=0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_min_allocation([FlowSpec("f", ("L",))], {"L": 0.0})

    def test_missing_capacity_is_an_error(self):
        with pytest.raises(KeyError):
            max_min_allocation([FlowSpec("f", ("L",))], {})

    def test_bottleneck_fairness_with_asymmetric_paths(self):
        # a crosses both links, b only the fat one: a pinned by thin link
        alloc = max_min_allocation(
            [FlowSpec("a", ("thin", "fat")), FlowSpec("b", ("fat",))],
            {"thin": 1.0, "fat": 100.0},
        )
        assert alloc["a"] == pytest.approx(1.0)
        assert alloc["b"] == pytest.approx(99.0)


# -- property-based invariants -------------------------------------------------


@st.composite
def allocation_problems(draw):
    n_links = draw(st.integers(1, 6))
    capacities = {
        f"L{i}": draw(st.floats(min_value=0.5, max_value=100.0)) for i in range(n_links)
    }
    n_flows = draw(st.integers(1, 8))
    flows = []
    for j in range(n_flows):
        k = draw(st.integers(1, n_links))
        resources = tuple(
            sorted(draw(st.sets(st.sampled_from(sorted(capacities)), min_size=k, max_size=k)))
        )
        ceiling = draw(st.one_of(st.just(inf), st.floats(min_value=0.1, max_value=50.0)))
        flows.append(FlowSpec(f"f{j}", resources, ceiling))
    return flows, capacities


@settings(max_examples=200, deadline=None)
@given(allocation_problems())
def test_no_link_oversubscribed(problem):
    flows, capacities = problem
    alloc = max_min_allocation(flows, capacities)
    for link, cap in capacities.items():
        used = sum(alloc[f.flow_id] for f in flows if link in f.resources)
        assert used <= cap * (1 + 1e-6) + 1e-6


@settings(max_examples=200, deadline=None)
@given(allocation_problems())
def test_ceilings_respected_and_rates_nonnegative(problem):
    flows, capacities = problem
    alloc = max_min_allocation(flows, capacities)
    for f in flows:
        assert -1e-9 <= alloc[f.flow_id] <= f.ceiling_bps + 1e-6


@settings(max_examples=200, deadline=None)
@given(allocation_problems())
def test_every_flow_is_bottlenecked(problem):
    """Max-min condition: each flow is at its ceiling or crosses a
    saturated link on which no other flow gets a strictly larger rate."""
    flows, capacities = problem
    alloc = max_min_allocation(flows, capacities)
    tol = 1e-5
    for f in flows:
        rate = alloc[f.flow_id]
        if rate >= f.ceiling_bps - tol:
            continue
        ok = False
        for link in f.resources:
            used = sum(alloc[g.flow_id] for g in flows if link in g.resources)
            saturated = used >= capacities[link] * (1 - 1e-5) - tol
            if saturated:
                biggest = max(alloc[g.flow_id] for g in flows if link in g.resources)
                if rate >= biggest - max(tol, 1e-4 * biggest):
                    ok = True
                    break
        assert ok, f"flow {f.flow_id} rate {rate} not max-min bottlenecked"


@settings(max_examples=100, deadline=None)
@given(allocation_problems())
def test_work_conservation_on_shared_single_link(problem):
    """If all flows cross one common link and have no ceilings below the
    fair share, that link is fully used."""
    flows, capacities = problem
    link = sorted(capacities)[0]
    flows = [FlowSpec(f.flow_id, (link,), f.ceiling_bps) for f in flows]
    alloc = max_min_allocation(flows, capacities)
    used = sum(alloc.values())
    fair = capacities[link] / len(flows)
    if all(f.ceiling_bps >= fair for f in flows):
        assert used == pytest.approx(capacities[link], rel=1e-6)


# -- oracle: bit-identical to the original allocator ---------------------------


def _outcome(allocator, flows, capacities, epsilon):
    """What *allocator* returns — keys in order, rates as raw doubles — or
    which exception it raises, with its arguments."""
    try:
        alloc = allocator(flows, capacities, epsilon)
    except (ValueError, KeyError) as exc:
        return type(exc), exc.args
    return list(alloc), [struct.pack("d", rate) for rate in alloc.values()]


def _assert_matches_reference(flows, capacities, epsilon=1e-9):
    assert _outcome(max_min_allocation, flows, capacities, epsilon) == \
        _outcome(reference_max_min_allocation, flows, capacities, epsilon)


#: capacities and ceilings from far below the saturation epsilon up to
#: tens of Gbit/s, where ``room - (room / n) * n`` leaves float residue
#: above epsilon and no flow freezes on its own (the numerical corner).
_magnitudes = st.one_of(
    st.floats(min_value=1e-12, max_value=1e-8),
    st.floats(min_value=0.5, max_value=100.0),
    st.floats(min_value=1e6, max_value=5e10),
)


@st.composite
def oracle_problems(draw):
    names = [f"L{i}" for i in range(draw(st.integers(1, 6)))]
    capacities = {
        name: draw(st.one_of(_magnitudes, st.just(inf))) for name in names
    }
    # Occasionally an invalid capacity or a missing one: both allocators
    # must fail the same way.
    if draw(st.integers(0, 9)) == 0:
        capacities[draw(st.sampled_from(names))] = draw(st.sampled_from([0.0, -1.0]))
    if draw(st.integers(0, 9)) == 0:
        del capacities[draw(st.sampled_from(names))]
    flows = []
    for j in range(draw(st.integers(0, 8))):
        # duplicates within a flow allowed; empty means ceiling-only
        resources = tuple(draw(st.lists(st.sampled_from(names), max_size=6)))
        if resources:
            ceiling = draw(st.one_of(st.just(inf), _magnitudes))
        else:
            ceiling = draw(_magnitudes)
        # a small id pool makes duplicate flow ids (a ValueError) possible
        flow_id = draw(st.one_of(st.just(f"f{j}"), st.integers(0, 40)))
        flows.append(FlowSpec(flow_id, resources, ceiling))
    epsilon = draw(st.sampled_from([1e-9, 0.0, 1e-3]))
    return flows, capacities, epsilon


class TestMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(oracle_problems())
    def test_bit_identical_to_reference(self, problem):
        flows, capacities, epsilon = problem
        _assert_matches_reference(flows, capacities, epsilon)

    def test_numerical_corner(self):
        # 3 flows on one link of this capacity: after the first fill the
        # link keeps float residue above epsilon, so the corner branch
        # freezes the flows one at a time.
        flows = [FlowSpec(f"f{j}", ("L",)) for j in range(3)]
        _assert_matches_reference(flows, {"L": 263696906.12266728})

    def test_duplicate_resources_count_once(self):
        flows = [FlowSpec("a", ("L", "L", "M", "L")), FlowSpec("b", ("L",))]
        alloc = max_min_allocation(flows, {"L": 10.0, "M": 100.0})
        assert alloc == {"a": 5.0, "b": 5.0}
        _assert_matches_reference(flows, {"L": 10.0, "M": 100.0})

    def test_errors_match(self):
        cases = [
            ([FlowSpec("f", ("L",)), FlowSpec("f", ("M",))], {}),   # duplicate ids
            ([FlowSpec("f", ("L", "M"))], {"L": 1.0}),              # missing M
            ([FlowSpec("f", ("L", "M"))], {"L": 1.0, "M": -2.0}),   # bad capacity
            ([FlowSpec("f", ("L",))], {"L": inf}),                 # unbounded
        ]
        for flows, capacities in cases:
            new = _outcome(max_min_allocation, flows, capacities, 1e-9)
            assert new[0] in (ValueError, KeyError)
            assert new == _outcome(reference_max_min_allocation, flows,
                                   capacities, 1e-9)
