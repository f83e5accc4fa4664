"""Max-min fair allocation: examples, property-based invariants, and a
bit-exact oracle against the original progressive-filling code."""

import struct
from math import inf

import numpy as np
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

    @pytest.mark.parametrize("ceiling", [float("inf"), np.float64("inf")],
                             ids=["float", "numpy"])
    def test_any_infinite_ceiling_without_resources_rejected(self, ceiling):
        # an infinity other than the ``math.inf`` object
        with pytest.raises(ValueError, match="finite ceiling"):
            FlowSpec("a", (), ceiling)

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


@st.composite
def dense_oracle_problems(draw):
    """``oracle_problems`` over int resource ids with a dense capacity
    list: the form the engine hands the allocator."""
    capacities = draw(st.lists(st.one_of(_magnitudes, st.just(inf)),
                               min_size=1, max_size=6))
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.integers(0, len(capacities) - 1))
        capacities[bad] = draw(st.sampled_from([0.0, -1.0]))
    ids = st.integers(0, len(capacities) - 1)
    flows = []
    for j in range(draw(st.integers(0, 8))):
        resources = tuple(draw(st.lists(ids, max_size=6)))
        ceiling = draw(st.one_of(st.just(inf), _magnitudes) if resources
                       else _magnitudes)
        flows.append(FlowSpec(j, resources, ceiling))
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

    def test_infinite_capacity_and_ceiling_is_unbounded(self):
        # every share is inf, so the increment never leaves ``inf``
        flows = [FlowSpec("f", ("L",)), FlowSpec("g", ("L", "M"))]
        with pytest.raises(ValueError, match="unbounded"):
            max_min_allocation(flows, {"L": inf, "M": inf})
        _assert_matches_reference(flows, {"L": inf, "M": inf})

    def test_equal_ceilings_freeze_in_the_same_pass(self):
        # b, e share a ceiling and d sits within epsilon of it: all three
        # freeze at the level that reached b's ceiling, not one per pass
        # (d alone would otherwise take another 1e-10).
        flows = [FlowSpec("a", ("L",), 30.0), FlowSpec("b", ("L",), 10.0),
                 FlowSpec("c", ("L",)), FlowSpec("d", ("L",), 10.0 + 1e-10),
                 FlowSpec("e", ("L",), 10.0)]
        alloc = max_min_allocation(flows, {"L": 100.0})
        assert alloc == {"a": 30.0, "b": 10.0, "c": 40.0, "d": 10.0, "e": 10.0}
        _assert_matches_reference(flows, {"L": 100.0})

    def test_numerical_corner_freezes_exactly_one_flow(self):
        # After the first fill no flow is at a limit (see above); the
        # corner freezes only the first flow, and the other two split
        # the residue.
        flows = [FlowSpec(name, ("L",)) for name in ("z", "y", "x")]
        alloc = max_min_allocation(flows, {"L": 263696906.12266728})
        assert alloc["z"] < alloc["y"] == alloc["x"]
        _assert_matches_reference(flows, {"L": 263696906.12266728})

    def test_link_class_set_by_its_tightest_inner_link(self):
        # every flow crosses all four links, so they form one link class
        # whose tightest member is the third link (listed second by one
        # flow); its capacity leaves float residue, so the numerical
        # corner freezes the flows one at a time
        tight = 263696906.12266728
        caps = {"L1": 2 * tight, "L2": 3 * tight, "L3": tight, "L4": 1.5 * tight}
        chain = ("L1", "L2", "L3", "L4")
        flows = [FlowSpec("z", chain), FlowSpec("y", chain[::-1]),
                 FlowSpec("x", chain)]
        alloc = max_min_allocation(flows, caps)
        assert alloc == max_min_allocation(
            [FlowSpec(f.flow_id, ("L3",)) for f in flows], caps)
        assert alloc["z"] < alloc["y"] == alloc["x"]
        _assert_matches_reference(flows, caps)
        capped = flows[:2] + [FlowSpec("c", chain, ceiling_bps=2e7)]
        assert max_min_allocation(capped, caps)["c"] == 2e7
        _assert_matches_reference(capped, caps)

    def test_link_class_with_tied_capacities(self):
        # A and C tie for tightest in the class {A, B, C}; g, crossing B
        # and D, splits B into a class of its own
        tight = 263696906.12266728
        caps = {"A": tight, "B": 5e8, "C": tight, "D": tight}
        flows = [FlowSpec(f"f{j}", ("A", "B", "C")) for j in range(3)]
        _assert_matches_reference(flows, caps)
        _assert_matches_reference(flows + [FlowSpec("g", ("D", "B"))], caps)
        _assert_matches_reference(flows, {"A": inf, "B": inf, "C": 3.0})

    def test_dense_capacity_list_matches_mapping(self):
        flows = [FlowSpec("a", (2, 0)), FlowSpec("b", (0,)),
                 FlowSpec("c", (1, 2), ceiling_bps=1.5)]
        dense = [4.0, 9.0, 3.0, -1.0]  # an unused id may hold anything
        alloc = max_min_allocation(flows, dense)
        assert alloc == max_min_allocation(flows, dict(enumerate(dense[:3])))
        assert alloc == {"a": 1.5, "b": 2.5, "c": 1.5}
        _assert_matches_reference(flows, dense)

    @settings(max_examples=300, deadline=None)
    @given(dense_oracle_problems())
    def test_dense_capacities_bit_identical_to_reference(self, problem):
        flows, capacities, epsilon = problem
        _assert_matches_reference(flows, capacities, epsilon)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(oracle_problems(), dense_oracle_problems()))
    def test_one_flow_bit_identical_to_reference(self, problem):
        """A lone flow is solved by the same fill as many."""
        flows, capacities, epsilon = problem
        _assert_matches_reference(flows[:1], capacities, epsilon)

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
