"""Figure 1 — the TitanCFI architecture diagram, as a checked graph.

The paper's only figure is the block diagram of the modified SoC.  The
reproduction builds it as a :mod:`networkx` digraph whose nodes are the
blocks this repository implements and whose edges are the connections
the co-simulator actually exercises — then *verifies* the figure's
load-bearing paths (commit stage → filters → queue → log writer → AXI →
CFI mailbox → PLIC → Ibex, and the completion wire back to the commit
stage) and exports Graphviz DOT.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx

#: (source, destination, wire label) — every edge of the figure.
EDGES: List[Tuple[str, str, str]] = [
    # CVA6 pipeline (paper Fig. 1, right).
    ("frontend", "decode", "instr"),
    ("decode", "issue", "instr"),
    ("issue", "execute", "uops"),
    ("execute", "commit", "scoreboard"),
    # CFI stage tap.
    ("commit", "cfi-filter0", "instr0"),
    ("commit", "cfi-filter1", "instr1"),
    ("cfi-filter0", "queue-controller", "log0"),
    ("cfi-filter1", "queue-controller", "log1"),
    ("queue-controller", "cfi-queue", "push"),
    ("queue-controller", "commit", "stall"),
    ("cfi-queue", "log-writer", "pop/log"),
    ("log-writer", "axi-xbar", "AXI"),
    ("log-writer", "commit", "fault"),
    # Host domain (paper Fig. 1, left).
    ("cva6-subsystem", "axi-xbar", "AXI"),
    ("axi-xbar", "cfi-mailbox", "AXI"),
    ("axi-xbar", "scmi-mailbox", "AXI"),
    ("cfi-mailbox", "ot-plic", "doorbell-cfi"),
    ("scmi-mailbox", "ot-plic", "doorbell-scmi"),
    ("cfi-mailbox", "log-writer", "completion-cfi"),
    ("scmi-mailbox", "host-plic", "completion-scmi"),
    ("host-plic", "cva6-subsystem", "ext-irq"),
    # Root of Trust.
    ("ot-plic", "ibex", "ext-irq"),
    ("ibex", "tlul-xbar", "TL-UL"),
    ("tlul-xbar", "ot-sram", "TL-UL"),
    ("tlul-xbar", "ot-flash", "TL-UL"),
    ("tlul-xbar", "ot-hmac", "TL-UL"),
    ("tlul-xbar", "tl2axi", "TL-UL"),
    ("tl2axi", "axi-xbar", "AXI"),
]

#: Which subsystem each block belongs to (Fig. 1's three boxes).
DOMAINS: Dict[str, str] = {
    "frontend": "cva6", "decode": "cva6", "issue": "cva6",
    "execute": "cva6", "commit": "cva6",
    "cfi-filter0": "cfi-stage", "cfi-filter1": "cfi-stage",
    "queue-controller": "cfi-stage", "cfi-queue": "cfi-stage",
    "log-writer": "cfi-stage",
    "cva6-subsystem": "host", "axi-xbar": "host",
    "cfi-mailbox": "host", "scmi-mailbox": "host", "host-plic": "host",
    "ot-plic": "rot", "ibex": "rot", "tlul-xbar": "rot",
    "ot-sram": "rot", "ot-flash": "rot", "ot-hmac": "rot", "tl2axi": "rot",
}

#: The round-trip every CFI check takes (the figure's main story).
CHECK_ROUND_TRIP = [
    "commit", "cfi-filter0", "queue-controller", "cfi-queue",
    "log-writer", "axi-xbar", "cfi-mailbox", "ot-plic", "ibex",
]


def build_graph() -> nx.DiGraph:
    """The architecture as a typed digraph."""
    graph = nx.DiGraph()
    for node, domain in DOMAINS.items():
        graph.add_node(node, domain=domain)
    for source, destination, label in EDGES:
        graph.add_edge(source, destination, label=label)
    return graph


def verify(graph: nx.DiGraph) -> List[str]:
    """Check the figure's load-bearing properties; returns problems."""
    problems: List[str] = []
    for earlier, later in zip(CHECK_ROUND_TRIP, CHECK_ROUND_TRIP[1:]):
        if not nx.has_path(graph, earlier, later):
            problems.append(f"no path {earlier} -> {later}")
    # The completion wire must close the loop back to the commit stage.
    if not nx.has_path(graph, "cfi-mailbox", "commit"):
        problems.append("completion wire does not reach the commit stage")
    # Ibex must reach the mailbox through the bridge (read path).
    if not nx.has_path(graph, "ibex", "cfi-mailbox"):
        problems.append("ibex cannot read the CFI mailbox")
    # The CFI mailbox must NOT interrupt the host PLIC (§IV-A: the
    # completion register bypasses the host interrupt controller).
    if graph.has_edge("cfi-mailbox", "host-plic"):
        problems.append("CFI completion wrongly routed to the host PLIC")
    return problems


def to_dot(graph: nx.DiGraph) -> str:
    """Graphviz DOT export with one cluster per Fig. 1 box."""
    clusters: Dict[str, List[str]] = {}
    for node, data in graph.nodes(data=True):
        clusters.setdefault(data["domain"], []).append(node)
    lines = ["digraph titancfi {", "  rankdir=LR;"]
    for domain, nodes in sorted(clusters.items()):
        lines.append(f'  subgraph "cluster_{domain}" {{')
        lines.append(f'    label="{domain}";')
        for node in sorted(nodes):
            lines.append(f'    "{node}";')
        lines.append("  }")
    for source, destination, data in graph.edges(data=True):
        lines.append(f'  "{source}" -> "{destination}" [label="{data["label"]}"];')
    lines.append("}")
    return "\n".join(lines)


def compute() -> Dict[str, object]:
    """Graph + verification outcome."""
    graph = build_graph()
    return {"graph": graph, "problems": verify(graph), "dot": to_dot(graph)}


def main() -> None:
    """CLI entry point (``python -m repro.eval.figure1``): prints DOT + verdicts."""
    data = compute()
    print(data["dot"])
    problems = data["problems"]
    if problems:
        print("\n// ARCHITECTURE PROBLEMS:")
        for problem in problems:
            print(f"//  - {problem}")
    else:
        print("\n// architecture verified: all Figure 1 paths present")


if __name__ == "__main__":
    main()
