"""Graphviz DOT export for trees and block digraphs.

The evaluation environment is text-only, but downstream users can render
these with ``dot -Tpng``:

* :func:`tree_to_dot` — broadcast/summation trees with delay labels;
* :func:`digraph_to_dot` — the Figure-3 block transmission digraph with
  thick (active) edges drawn bold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.tree import BroadcastTree

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["tree_to_dot", "digraph_to_dot", "automaton_to_dot"]


def _quote(value: object) -> str:
    return '"' + str(value).replace('"', r"\"") + '"'


def tree_to_dot(tree: BroadcastTree, name: str = "broadcast_tree") -> str:
    """DOT source for a broadcast tree; node label ``P<i>@<delay>``."""
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=circle];"]
    for node in tree.nodes:
        label = f"P{node.index}\\n@{node.delay}"
        shape = "doublecircle" if node.parent is None else "circle"
        lines.append(f"  n{node.index} [label={_quote(label)}, shape={shape}];")
    for node in tree.nodes:
        for child in node.children:
            lines.append(f"  n{node.index} -> n{child};")
    lines.append("}")
    return "\n".join(lines)


def digraph_to_dot(graph: nx.MultiDiGraph, name: str = "block_digraph") -> str:
    """DOT source for a block transmission digraph (Figure 3 style).

    Active edges render bold (the paper's thick edges); inactive edges
    carry their weight as the edge label; block vertices are labeled with
    their size ``r``; the receive-only vertex is labeled 0.
    """
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    ids: dict = {}
    for i, (node, data) in enumerate(graph.nodes(data=True)):
        ids[node] = f"v{i}"
        if node == "src":
            label, shape = "src", "box"
        elif data["size"] == 0:
            label, shape = "0", "doublecircle"
        else:
            label, shape = str(data["size"]), "circle"
        lines.append(f"  v{i} [label={_quote(label)}, shape={shape}];")
    for u, v, data in graph.edges(data=True):
        if data["kind"] == "active":
            attrs = 'style=bold, penwidth=2.5'
        else:
            attrs = f'label={_quote(data["weight"])}'
        lines.append(f"  {ids[u]} -> {ids[v]} [{attrs}];")
    lines.append("}")
    return "\n".join(lines)


def automaton_to_dot(graph: nx.DiGraph, name: str = "word_automaton") -> str:
    """DOT source for the legal-word automaton (Figure 2c style).

    Start states render as double circles, matching the paper's figure.
    """
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    ids = {}
    for i, (node, data) in enumerate(graph.nodes(data=True)):
        ids[node] = f"s{i}"
        shape = "doublecircle" if data.get("start") else "circle"
        lines.append(
            f"  s{i} [label={_quote(data.get('label', node))}, shape={shape}];"
        )
    for u, v in graph.edges():
        lines.append(f"  {ids[u]} -> {ids[v]};")
    lines.append("}")
    return "\n".join(lines)
