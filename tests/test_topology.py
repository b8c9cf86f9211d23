import itertools

import pytest

import implogic as il
from implogic.topology import Polarity


def test_default_stack_shape(default_stack):
    assert sorted(default_stack.cells) == ["B1", "B2", "T1", "T2"]
    assert list(default_stack.shared_nodes) == ["M"]
    assert default_stack.shared_nodes["M"] == {"B1", "B2", "T1", "T2"}
    assert not default_stack.unusable_cells


def test_adder_stack_counts(adder_stack):
    assert len(adder_stack.cells) == 8
    assert len(adder_stack.unusable_cells) == 2
    assert len(adder_stack.usable_cells()) == 6
    assert len(adder_stack.shared_nodes) == 2


def test_same_level_pairs_parallel(default_stack):
    assert default_stack.pair_polarity("B1", "B2") is Polarity.PARALLEL
    assert default_stack.pair_polarity("T1", "T2") is Polarity.PARALLEL


def test_cross_level_pairs_anti_parallel(default_stack):
    assert default_stack.pair_polarity("B2", "T2") is Polarity.ANTI_PARALLEL
    assert default_stack.pair_polarity("T1", "B1") is Polarity.ANTI_PARALLEL


def test_polarity_symmetric(default_stack, adder_stack):
    for topo in (default_stack, adder_stack):
        usable = topo.usable_cells()
        for p, q in itertools.combinations(usable, 2):
            if not topo.are_adjacent(p, q):
                continue
            assert topo.pair_polarity(p, q) == topo.pair_polarity(q, p)


def test_self_pair_not_adjacent(default_stack):
    with pytest.raises(il.NotAdjacent):
        default_stack.pair_polarity("B1", "B1")


def test_unknown_cell_not_adjacent(default_stack):
    with pytest.raises(il.NotAdjacent):
        default_stack.common_wire("B1", "Z9")


def test_adder_stack_disjoint_pair_not_adjacent(adder_stack):
    # B1 sits on (b1, m1); T4 on (m2, t2): no shared wire
    with pytest.raises(il.NotAdjacent):
        adder_stack.common_wire("B1", "T4")


def test_adder_usable_cells_connected(adder_stack):
    usable = adder_stack.usable_cells()
    seen = {usable[0]}
    frontier = [usable[0]]
    while frontier:
        for n in adder_stack.neighbors(frontier.pop()):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    assert seen == set(usable)


def test_step_sign_orientation(default_stack):
    # bottom devices set when the shared node is high: sign -1 at the node
    assert default_stack.step_sign("B1", "M") == -1
    assert default_stack.step_sign("T1", "M") == +1
    assert default_stack.step_signs("B1", "T1") == (-1, +1)


def test_outer_wire_adjacency_in_adder_stack(adder_stack):
    # T1 (m1, t1) and T3 (m2, t1) share the top wire t1
    assert adder_stack.common_wire("T1", "T3") == "t1"
    # relative to t1 both set terminals face the common wire: parallel
    assert adder_stack.pair_polarity("T1", "T3") is Polarity.PARALLEL
    assert adder_stack.step_sign("T1", "t1") == -1
    assert adder_stack.step_signs("T1", "T3") == (-1, -1)


def test_topology_json_roundtrip(default_stack, adder_stack):
    for topo in (default_stack, adder_stack):
        again = il.StackTopology.from_json(topo.to_json())
        assert again.cells == topo.cells
        assert again.unusable_cells == topo.unusable_cells


def test_topology_json_rejects_bad_node_map(default_stack):
    obj = default_stack.to_json()
    obj["nodes"] = {"M": ["B1", "B2"]}
    with pytest.raises(ValueError):
        il.StackTopology.from_json(obj)


def test_topology_json_accepts_node_map_in_any_order(default_stack):
    obj = default_stack.to_json()
    obj["nodes"] = {"M": ["T2", "T1", "B2", "B1"]}
    assert il.StackTopology.from_json(obj).cells == default_stack.cells


@pytest.mark.parametrize("members, match", [
    (["T2", "B1", "B2"], "disagrees with cell wiring"),
    (["T2", 1, "B2", "B1"], "must be a string"),
], ids=["missing cell", "non-string member"])
def test_topology_json_rejects_node_map_members(default_stack, members, match):
    obj = default_stack.to_json()
    obj["nodes"] = {"M": members}
    with pytest.raises(ValueError, match=match):
        il.StackTopology.from_json(obj)


def test_unusable_must_exist():
    with pytest.raises(ValueError):
        il.StackTopology(cells=il.build_default_stack().cells,
                         unusable_cells=frozenset({"Z1"}))


def test_resistive_load_requires_positive_conductance():
    with pytest.raises(ValueError):
        il.ResistiveLoad(g_l=0.0, v_l=-1.0)


def test_imp_config_json_roundtrip():
    for cfg in (il.ImpConfig(v_p=-0.9, load=il.CurrentSourceLoad(-30e-6)),
                il.ImpConfig(v_p=0.25, load=il.ResistiveLoad(33e-6, -2.7),
                             pulse_s=1e-3)):
        assert il.ImpConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("pulse_s", [0.0, -1.0, -1e-3])
def test_imp_config_rejects_non_positive_pulse(pulse_s):
    with pytest.raises(ValueError, match="pulse_s must be > 0"):
        il.ImpConfig(0.1, il.CurrentSourceLoad(0.0), pulse_s=pulse_s)
    obj = il.ImpConfig(0.1, il.CurrentSourceLoad(0.0)).to_json()
    obj["pulse_s"] = pulse_s
    with pytest.raises(ValueError, match="pulse_s must be > 0"):
        il.ImpConfig.from_json(obj)


def test_topology_json_default_orientation():
    obj = {"cells": [
        {"id": "B1", "level": "bottom", "spec": "d", "node": "M", "outer": "b1"},
        {"id": "T1", "level": "top", "spec": "d", "node": "M", "outer": "t1"},
    ]}
    topo = il.StackTopology.from_json(obj)
    assert topo.cells["B1"].orientation is il.Orientation.ACTIVE_TOWARD_NODE
    assert topo.cells["T1"].orientation is il.Orientation.ACTIVE_AWAY_FROM_NODE


def test_imp_config_json_rejects_unknown_load():
    with pytest.raises(ValueError):
        il.ImpConfig.from_json({"v_p": 0.1, "load": {"kind": "inductive"}})


def test_topology_rejects_shorted_cell():
    cell = il.Cell(id="X", level=il.Level.BOTTOM, spec_ref="d", node="M",
                   outer="M", orientation=il.Orientation.ACTIVE_TOWARD_NODE)
    with pytest.raises(ValueError):
        il.StackTopology(cells={"X": cell})


def test_topology_rejects_mismatched_key():
    cell = il.Cell(id="X", level=il.Level.BOTTOM, spec_ref="d", node="M",
                   outer="b1", orientation=il.Orientation.ACTIVE_TOWARD_NODE)
    with pytest.raises(ValueError):
        il.StackTopology(cells={"Y": cell})


def test_topology_json_rejects_duplicate_id(default_stack):
    obj = default_stack.to_json()
    obj["cells"].append(dict(obj["cells"][0]))
    del obj["nodes"]
    with pytest.raises(ValueError):
        il.StackTopology.from_json(obj)
