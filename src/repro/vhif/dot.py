"""Graphviz DOT export for VHIF designs (documentation / debugging)."""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.instrument.explog import decision_tree
from repro.vhif.design import VhifDesign
from repro.vhif.fsm import Fsm, START_STATE
from repro.vhif.sfg import SignalFlowGraph

#: fill colors of the Figure-6 decision-tree statuses
_STATUS_COLORS = {
    "open": "#f0efec",
    "pruned": "#eb6834",
    "complete": "#1baf7a",
    "infeasible": "#e34948",
    "dead-end": "#c3c2b7",
}


def sfg_to_dot(sfg: SignalFlowGraph) -> str:
    """Render one signal-flow graph as a DOT digraph."""
    lines: List[str] = [f'digraph "{sfg.name}" {{', "  rankdir=LR;"]
    for block in sorted(sfg.blocks, key=lambda b: b.block_id):
        shape = "box"
        if block.kind.is_io():
            shape = "ellipse"
        elif block.kind.has_control():
            shape = "diamond"
        label = block.kind.value
        if "gain" in block.params:
            label += f"\\ngain={block.params['gain']}"
        if "value" in block.params:
            label += f"\\n{block.params['value']}"
        if "threshold" in block.params:
            label += f"\\nth={block.params['threshold']}"
        lines.append(
            f'  b{block.block_id} [label="{block.name}\\n{label}", shape={shape}];'
        )
    for net in sfg.nets:
        for sink in net.sinks:
            style = ' [style=dashed, label="ctrl"]' if sink.is_control else ""
            lines.append(f"  b{net.driver} -> b{sink.block_id}{style};")
    for signal, endpoints in sfg.control_bindings.items():
        node = f'ctrl_{signal.replace("-", "_")}'
        lines.append(f'  {node} [label="{signal}", shape=cds];')
        for endpoint in endpoints:
            lines.append(f"  {node} -> b{endpoint.block_id} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def fsm_to_dot(fsm: Fsm) -> str:
    """Render one FSM as a DOT digraph."""
    lines: List[str] = [f'digraph "{fsm.name}" {{']
    for state in fsm.states:
        shape = "doublecircle" if state.name == START_STATE else "circle"
        ops = "\\n".join(str(op) for op in state.operations)
        label = state.name if not ops else f"{state.name}\\n{ops}"
        lines.append(f'  "{state.name}" [label="{label}", shape={shape}];')
    for transition in fsm.transitions:
        label = str(transition.condition)
        lines.append(
            f'  "{transition.source}" -> "{transition.target}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def decision_tree_to_dot(events: Iterable[Dict[str, object]]) -> str:
    """Render a Figure-6 decision tree as a status-colored DOT digraph.

    ``events`` is an exploration log (or its events, e.g. read back
    from JSONL); the tree of its last mapper search is rebuilt by
    :func:`repro.instrument.explog.decision_tree`.  Nodes are colored
    by search outcome: pruned orange, complete green, infeasible red,
    dead-end gray.
    """
    lines: List[str] = [
        'digraph "decision_tree" {',
        "  rankdir=TB;",
        '  node [shape=box, style="rounded,filled", fontsize=10];',
    ]
    tree = decision_tree(events)
    for node in tree:
        status = node["status"]
        color = _STATUS_COLORS.get(status, _STATUS_COLORS["open"])
        label = f"{node['decision']}\\n{node['opamps']} op amps"
        if node["detail"]:
            label += f"\\n{node['detail']}"
        if status not in ("open", "complete"):
            label += f"\\n[{status}]"
        label = label.replace('"', "'")
        lines.append(
            f'  n{node["node"]} [label="{label}", fillcolor="{color}"];'
        )
    for node in tree:
        if node["parent"] is not None:
            lines.append(f"  n{node['parent']} -> n{node['node']};")
    lines.append("}")
    return "\n".join(lines)


def design_to_dot(design: VhifDesign) -> str:
    """Render a whole design as one DOT document with subgraph clusters."""
    parts = [f"// VHIF design {design.name}"]
    for sfg in design.sfgs:
        parts.append(sfg_to_dot(sfg))
    for fsm in design.fsms:
        parts.append(fsm_to_dot(fsm))
    return "\n\n".join(parts)
