"""The circuit container: nodes, elements and unknown layout."""

from __future__ import annotations

from ..errors import NetlistError

#: Names that resolve to the ground node.
GROUND_NAMES = frozenset({"0", "gnd", "GND", "vss", "VSS"})

#: Unknown index of the ground node (excluded from the unknown vector).
GROUND = -1


class Circuit:
    """A flat netlist: named nodes plus a list of elements.

    Nodes are created implicitly the first time an element references
    them.  The unknown vector of the MNA system is laid out as all node
    voltages (in registration order) followed by one branch current per
    branch-bearing element (voltage sources), in element order.
    """

    def __init__(self, title: str = "") -> None:
        self.title = title
        self._node_index: dict[str, int] = {}
        self.elements: list = []
        self._names: set[str] = set()

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        """Return the unknown index of a node, registering it if new.

        Ground names return :data:`GROUND`.  Elements call this while
        binding their terminals; analyses use :meth:`lookup`, which
        never registers.
        """
        if not name:
            raise NetlistError("empty node name")
        if name in GROUND_NAMES:
            return GROUND
        if name not in self._node_index:
            self._node_index[name] = len(self._node_index)
        return self._node_index[name]

    def lookup(self, name: str) -> int:
        """Return the unknown index of an existing node (or :data:`GROUND`).

        Raises
        ------
        NetlistError
            If no element references a node of that name.
        """
        if name in GROUND_NAMES:
            return GROUND
        try:
            return self._node_index[name]
        except KeyError:
            raise NetlistError(
                f"no node named {name!r} in {self.summary()}") from None

    @property
    def node_names(self) -> list[str]:
        """Non-ground node names in unknown order."""
        return sorted(self._node_index, key=self._node_index.get)

    @property
    def n_nodes(self) -> int:
        return len(self._node_index)

    def has_node(self, name: str) -> bool:
        return name in self._node_index or name in GROUND_NAMES

    # ------------------------------------------------------------------
    # Elements
    # ------------------------------------------------------------------
    def add(self, element) -> None:
        """Register an element (its nodes were bound at construction)."""
        if element.name in self._names:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        self.elements.append(element)

    def element(self, name: str):
        """Look up an element by name."""
        for candidate in self.elements:
            if candidate.name == name:
                return candidate
        raise NetlistError(f"no element named {name!r}")

    def remove(self, name: str) -> None:
        """Remove an element by name (nodes stay registered)."""
        element = self.element(name)
        self.elements.remove(element)
        self._names.remove(name)

    # ------------------------------------------------------------------
    # Unknown layout
    # ------------------------------------------------------------------
    def assign_branches(self) -> int:
        """Assign branch-current indices; return the unknown count.

        Called by the analyses before assembling; idempotent.
        """
        offset = self.n_nodes
        for element in self.elements:
            if element.num_branches:
                element.branch_index = offset
                offset += element.num_branches
        return offset

    def branch_names(self) -> list[str]:
        """Names of branch-current unknowns, in unknown order."""
        return [f"i({element.name})" for element in self.elements
                if element.num_branches]

    def summary(self) -> str:
        """One-line description for logs and reports."""
        kinds: dict[str, int] = {}
        for element in self.elements:
            kind = type(element).__name__
            kinds[kind] = kinds.get(kind, 0) + 1
        parts = ", ".join(f"{count} {kind}" for kind, count in
                          sorted(kinds.items()))
        return (f"Circuit({self.title!r}: {self.n_nodes} nodes, "
                f"{len(self.elements)} elements [{parts}])")
