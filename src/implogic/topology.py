"""The 3D circuit graph: cells on two stacked levels, wire sharing, device
orientation, and the per-step bias configuration.

Wires come in two flavors: shared middle electrodes (one per crossbar
column) and outer terminals (bottom or top electrodes, which may themselves
be shared between cells of one level in the larger stacks). Two cells can
run an implication step iff they share a wire; that wire acts as the common
node of the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .device import _check_json, check_finite

__all__ = [
    "Level",
    "Orientation",
    "Polarity",
    "Cell",
    "StackTopology",
    "ResistiveLoad",
    "CurrentSourceLoad",
    "ImpConfig",
    "NotAdjacent",
    "build_default_stack",
    "build_adder_stack",
]


class NotAdjacent(Exception):
    """The two cells do not share a wire (or are the same cell)."""


class Level(Enum):
    BOTTOM = "bottom"
    TOP = "top"


class Orientation(Enum):
    """Which way the set-polarity terminal of a device faces its middle
    electrode. Bottom-level devices set when the middle electrode is driven
    positive relative to their outer terminal (set terminal toward the
    node); top-level devices are the mirror image."""

    ACTIVE_TOWARD_NODE = "active_toward_node"
    ACTIVE_AWAY_FROM_NODE = "active_away_from_node"


class Polarity(Enum):
    PARALLEL = "parallel"
    ANTI_PARALLEL = "anti_parallel"


_DEFAULT_ORIENTATION = {
    Level.BOTTOM: Orientation.ACTIVE_TOWARD_NODE,
    Level.TOP: Orientation.ACTIVE_AWAY_FROM_NODE,
}


@dataclass(frozen=True)
class Cell:
    """One memristor position: its middle-electrode node, outer terminal,
    device spec reference, and set-polarity orientation."""

    id: str
    level: Level
    spec_ref: str
    node: str
    outer: str
    orientation: Orientation

    def set_terminal_wire(self) -> str:
        """The wire that must be driven positive (relative to the other
        terminal) to set this device."""
        if self.orientation is Orientation.ACTIVE_TOWARD_NODE:
            return self.node
        return self.outer


@dataclass(frozen=True)
class ResistiveLoad:
    """Load conductance g_l tied to a voltage source v_l at the common node."""

    g_l: float
    v_l: float

    def __post_init__(self):
        check_finite(self)
        if self.g_l <= 0.0:
            raise ValueError("resistive load requires g_l > 0")


@dataclass(frozen=True)
class CurrentSourceLoad:
    """Current i_l injected into the common node; the g_l -> 0 limit of a
    resistive load with i_l = g_l * v_l."""

    i_l: float

    def __post_init__(self):
        check_finite(self)


@dataclass(frozen=True)
class ImpConfig:
    """Bias scheme for one implication step: drive voltage on the
    conditioning device's outer terminal plus the common-node load.
    Pulse duration is bookkeeping only; switching is quasi-static."""

    v_p: float
    load: ResistiveLoad | CurrentSourceLoad
    pulse_s: float = 10e-3

    def __post_init__(self):
        check_finite(self)
        if self.pulse_s <= 0.0:
            raise ValueError(f"ImpConfig.pulse_s must be > 0, got {self.pulse_s!r}")

    def to_json(self) -> dict:
        if isinstance(self.load, ResistiveLoad):
            load = {"kind": "resistive", "g_l": self.load.g_l, "v_l": self.load.v_l}
        else:
            load = {"kind": "current_source", "i_l": self.load.i_l}
        return {"v_p": self.v_p, "load": load, "pulse_s": self.pulse_s}

    @classmethod
    def from_json(cls, obj: dict) -> "ImpConfig":
        obj = _check_json(obj, dict, "config")
        load = _check_json(obj["load"], dict, "load")
        if load["kind"] == "resistive":
            ld: ResistiveLoad | CurrentSourceLoad = ResistiveLoad(
                g_l=_check_json(load["g_l"], float, "g_l"),
                v_l=_check_json(load["v_l"], float, "v_l"))
        elif load["kind"] == "current_source":
            ld = CurrentSourceLoad(i_l=_check_json(load["i_l"], float, "i_l"))
        else:
            raise ValueError(f"unknown load kind {load.get('kind')!r}")
        return cls(v_p=_check_json(obj["v_p"], float, "v_p"), load=ld,
                   pulse_s=_check_json(obj.get("pulse_s", 10e-3), float, "pulse_s"))


@dataclass(frozen=True)
class StackTopology:
    """Immutable device graph: cells keyed by id plus the set of positions
    that are never formed (or parked OFF) and must not be operated on."""

    cells: dict[str, Cell]
    unusable_cells: frozenset[str] = frozenset()

    def __post_init__(self):
        for cid, cell in self.cells.items():
            if cid != cell.id:
                raise ValueError(f"cell keyed {cid!r} carries id {cell.id!r}")
            if cell.node == cell.outer:
                raise ValueError(f"cell {cid!r} shorts its two terminals")
        for cid in self.unusable_cells:
            if cid not in self.cells:
                raise ValueError(f"unusable cell {cid!r} not in topology")

    @property
    def shared_nodes(self) -> dict[str, set[str]]:
        """Middle-electrode node -> attached cell ids."""
        nodes: dict[str, set[str]] = {}
        for cell in self.cells.values():
            nodes.setdefault(cell.node, set()).add(cell.id)
        return nodes

    def usable_cells(self) -> list[str]:
        return sorted(set(self.cells) - self.unusable_cells)

    def is_usable(self, cell_id: str) -> bool:
        return cell_id in self.cells and cell_id not in self.unusable_cells

    def common_wire(self, p: str, q: str) -> str:
        """The wire shared by cells p and q; the common node of an
        implication step between them. Raises NotAdjacent if none."""
        if p == q:
            raise NotAdjacent(f"{p} cannot pair with itself")
        try:
            cp, cq = self.cells[p], self.cells[q]
        except KeyError as exc:
            raise NotAdjacent(f"unknown cell {exc.args[0]!r}") from None
        if cp.node == cq.node:
            return cp.node
        if cp.outer == cq.outer:
            return cp.outer
        raise NotAdjacent(f"{p} and {q} share no wire")

    def are_adjacent(self, p: str, q: str) -> bool:
        try:
            self.common_wire(p, q)
        except NotAdjacent:
            return False
        return True

    def step_sign(self, cell_id: str, common: str) -> int:
        """+1 if the cell's set drop is (far terminal minus common node),
        -1 if it is (common node minus far terminal)."""
        cell = self.cells[cell_id]
        if common not in (cell.node, cell.outer):
            raise NotAdjacent(f"{cell_id} does not attach to wire {common!r}")
        return -1 if cell.set_terminal_wire() == common else +1

    def step_signs(self, p: str, q: str) -> tuple[int, int]:
        """The ``step_sign`` of p and of q on their common wire: the drop
        signs of an implication step between them. Raises NotAdjacent if
        they share no wire."""
        common = self.common_wire(p, q)
        return self.step_sign(p, common), self.step_sign(q, common)

    def pair_polarity(self, p: str, q: str) -> Polarity:
        """PARALLEL iff both devices present the same set polarity toward
        their common node. Same-level pairs are parallel by the stack
        construction; bottom-top pairs are anti-parallel."""
        s_p, s_q = self.step_signs(p, q)
        if s_p == s_q:
            return Polarity.PARALLEL
        return Polarity.ANTI_PARALLEL

    def neighbors(self, cell_id: str) -> set[str]:
        """The usable cells that share a wire with ``cell_id``."""
        out = set()
        for other in self.usable_cells():
            if other != cell_id and self.are_adjacent(cell_id, other):
                out.add(other)
        return out

    def to_json(self) -> dict:
        return {
            "cells": [
                {"id": c.id, "level": c.level.value, "spec": c.spec_ref,
                 "node": c.node, "outer": c.outer,
                 "orientation": c.orientation.value}
                for _, c in sorted(self.cells.items())
            ],
            "nodes": {n: sorted(m) for n, m in sorted(self.shared_nodes.items())},
            "unusable": sorted(self.unusable_cells),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StackTopology":
        obj = _check_json(obj, dict, "circuit")
        cells = {}
        for c in _check_json(obj["cells"], list, "cells"):
            c = _check_json(c, dict, "cell")
            cid, spec, node, outer = (_check_json(c[k], str, f"cell {k}")
                                      for k in ("id", "spec", "node", "outer"))
            if cid in cells:
                raise ValueError(f"duplicate cell id {cid!r}")
            level = Level(c["level"])
            orientation = (Orientation(c["orientation"]) if "orientation" in c
                           else _DEFAULT_ORIENTATION[level])
            cells[cid] = Cell(id=cid, level=level, spec_ref=spec, node=node,
                              outer=outer, orientation=orientation)
        unusable = _check_json(obj.get("unusable", []), list, "unusable")
        topo = cls(cells=cells, unusable_cells=frozenset(
            _check_json(cid, str, "unusable cell") for cid in unusable))
        declared = obj.get("nodes")
        if declared is not None:
            # a node lists its cells in any order
            listed = {node: sorted(_check_json(cid, str, f"nodes {node!r} member")
                                   for cid in _check_json(members, list, f"nodes {node!r}"))
                      for node, members in _check_json(declared, dict, "nodes").items()}
            actual = {n: sorted(m) for n, m in topo.shared_nodes.items()}
            if listed != actual:
                raise ValueError("declared node map disagrees with cell wiring")
        return topo


def _cell(cid: str, level: Level, spec_ref: str, node: str, outer: str) -> Cell:
    return Cell(id=cid, level=level, spec_ref=spec_ref, node=node, outer=outer,
                orientation=_DEFAULT_ORIENTATION[level])


def build_default_stack(bottom_spec: str = "bottom", top_spec: str = "top") -> StackTopology:
    """The demonstrated four-device circuit: two bottom and two top cells
    all sharing a single middle electrode."""
    cells = {
        "B1": _cell("B1", Level.BOTTOM, bottom_spec, "M", "b1"),
        "B2": _cell("B2", Level.BOTTOM, bottom_spec, "M", "b2"),
        "T1": _cell("T1", Level.TOP, top_spec, "M", "t1"),
        "T2": _cell("T2", Level.TOP, top_spec, "M", "t2"),
    }
    return StackTopology(cells=cells)


def build_adder_stack(bottom_spec: str = "bottom", top_spec: str = "top",
                      unusable: tuple[str, str] = ("B3", "B4")) -> StackTopology:
    """Two stacked 2x2 crossbars sharing the middle electrodes: eight
    positions over six wires, two of which are never formed, leaving the
    six cells a full adder needs."""
    cells = {
        "B1": _cell("B1", Level.BOTTOM, bottom_spec, "m1", "b1"),
        "B2": _cell("B2", Level.BOTTOM, bottom_spec, "m1", "b2"),
        "B3": _cell("B3", Level.BOTTOM, bottom_spec, "m2", "b1"),
        "B4": _cell("B4", Level.BOTTOM, bottom_spec, "m2", "b2"),
        "T1": _cell("T1", Level.TOP, top_spec, "m1", "t1"),
        "T2": _cell("T2", Level.TOP, top_spec, "m1", "t2"),
        "T3": _cell("T3", Level.TOP, top_spec, "m2", "t1"),
        "T4": _cell("T4", Level.TOP, top_spec, "m2", "t2"),
    }
    return StackTopology(cells=cells, unusable_cells=frozenset(unusable))
