"""Text rendering of the block transmission digraph (Figure 3)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["render_digraph"]


def _vertex_label(graph: nx.MultiDiGraph, node) -> str:
    if node == "src":
        return "src"
    size = graph.nodes[node]["size"]
    if size == 0:
        return "recv-only(0)"
    return f"{node[1]}:r={size}"


def render_digraph(graph: nx.MultiDiGraph) -> str:
    """One line per edge, thick (active) edges marked ``==>``::

        src          ==> 0:r=9
        0:r=9        --> 0:r=9   (w=3)
        ...
    """
    lines: list[str] = []
    for u, v, data in sorted(
        graph.edges(data=True),
        key=lambda e: (str(e[0]), str(e[1]), e[2]["kind"]),
    ):
        arrow = "==>" if data["kind"] == "active" else "-->"
        weight = "" if data["kind"] == "active" else f"   (w={data['weight']})"
        lines.append(
            f"{_vertex_label(graph, u):<14} {arrow} "
            f"{_vertex_label(graph, v):<14}{weight}"
        )
    return "\n".join(lines)
