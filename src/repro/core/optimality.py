"""Independent optimality certification by exhaustive search.

The constructions elsewhere in this library *achieve* the paper's bounds;
this module certifies — without using any of the paper's structural
insight — that the bounds cannot be beaten, by exploring the space of
*all* legal postal-model schedules on small instances:

* :func:`max_informed_dp` — exact dynamic program over per-step send
  counts for single-item broadcast.  Theorem 2.2 (``P(t) = f_t``) falls
  out of an optimization over *every* send-count sequence, not the greedy
  argument.
* :func:`max_items_by_counting` — the Theorem 3.1 counting bound on how
  many items can be fully broadcast by a deadline, and
  :func:`counting_kitem_lower_bound`, its inversion.
* :func:`min_kitem_time_exhaustive` — a complete IDA* search over k-item
  broadcast schedules (tiny instances only): states are item-holdings
  plus in-flight messages, with item- and processor-symmetry reduction.
  The returned makespan is the true optimum, so comparing it with the
  library's schedules certifies them exactly optimal on those instances.

Everything here is postal-model (``o = 0, g = 1``), the setting of the
paper's Sections 2-3 lower bounds.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.fib import broadcast_time_postal, fib, fib_sequence

__all__ = [
    "max_informed_dp",
    "broadcast_time_certified",
    "max_items_by_counting",
    "counting_kitem_lower_bound",
    "min_kitem_time_exhaustive",
]


def max_informed_dp(t: int, L: int) -> int:
    """Maximum processors informable in ``t`` steps, by exact DP.

    A schedule is abstracted by its per-step send counts ``x_0..x_{t-L}``
    (sends after ``t - L`` cannot land).  The abstraction is sound and
    complete in the postal model: processors are interchangeable, a send
    is only useful toward an uninformed processor, and ``x_s`` is capped
    by the number informed at ``s`` (each may send one message per step,
    receiving never blocks sending).  The DP maximizes over *all* count
    sequences — no greedy assumption.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")

    # The future of a prefix depends only on how many processors hold
    # the item now and on the sends still in flight (issued in the last
    # L - 1 steps), so that is the whole state: distinct histories that
    # agree on it share one entry.  Bounded so a pathological (t, L)
    # cannot pin unbounded memory for the call's duration; eviction
    # costs recomputation, never correctness.
    @lru_cache(maxsize=1 << 16)
    def best(step: int, informed: int, inflight: tuple[int, ...]) -> int:
        # inflight[j] = sends issued at step - (L - 1) + j, still in transit
        if step > t - L:
            # no further useful sends; final informed count at time t
            return informed + sum(inflight)
        best_value = 0
        for x in range(informed + 1):
            # the oldest in-flight batch (or x itself when L == 1) lands
            # at step + 1
            window = (*inflight, x)
            best_value = max(
                best_value, best(step + 1, informed + window[0], window[1:])
            )
        return best_value

    if t < L:
        return 1
    return best(0, 1, (0,) * (L - 1))


def broadcast_time_certified(P: int, L: int, t_max: int = 30) -> int:
    """The exact single-item broadcast optimum found by the DP.

    Certifies ``B(P)`` from first principles (agrees with
    :func:`repro.core.fib.broadcast_time_postal` — that agreement is the
    test-suite's independent confirmation of Theorems 2.1/2.2).
    """
    for t in range(t_max + 1):
        if max_informed_dp(t, L) >= P:
            return t
    raise RuntimeError(f"no broadcast of {P} processors within {t_max} steps")


def max_items_by_counting(P: int, L: int, deadline: int) -> int:
    """Theorem 3.1's counting argument, forward direction (re-exported
    from :func:`repro.core.fib.kitem_items_by_deadline`)."""
    from repro.core.fib import kitem_items_by_deadline

    return kitem_items_by_deadline(P, L, deadline)


def counting_kitem_lower_bound(P: int, L: int, k: int) -> int:
    """Smallest deadline whose counting capacity reaches ``k`` items.

    For ``k > k*`` this equals Theorem 3.1's closed form
    ``B(P-1) + L + (k-1) - k*`` (asserted across a grid by the test
    suite — an independent check of the algebra in the paper's proof);
    for ``k <= k*`` it is strictly smaller, which is the correct general
    bound (see :func:`repro.core.fib.kitem_lower_bound`).
    """
    deadline = 0
    while max_items_by_counting(P, L, deadline) < k:
        deadline += 1
    return deadline


# --------------------------------------------------------------------------
# exhaustive k-item search (tiny instances)
# --------------------------------------------------------------------------


def _canonical(holdings: tuple[frozenset, ...], inflight: frozenset) -> tuple:
    """Canonicalize a state under relabeling of non-source processors.

    Items are *not* relabeled (they become distinguishable once partially
    delivered), but non-source processors with identical situations are
    interchangeable, so we sort their (holding, incoming) signatures.
    """
    P = len(holdings)
    incoming: dict[int, list] = {p: [] for p in range(P)}
    for arrival, dst, item in inflight:
        incoming[dst].append((arrival, item))
    signature = sorted(
        (tuple(sorted(holdings[p])), tuple(sorted(incoming[p])))
        for p in range(1, P)
    )
    return (
        tuple(sorted(holdings[0])),
        tuple(sorted(incoming[0])),
        tuple(signature),
    )


def min_kitem_time_exhaustive(
    P: int,
    L: int,
    k: int,
    upper_bound: int | None = None,
    node_limit: int = 2_000_000,
) -> int:
    """Exact optimal k-item broadcast time by complete search.

    Iterative-deepening DFS over full system states.  Only meant for tiny
    instances (``P <= 4, k <= 3, L <= 3``-ish); raises ``RuntimeError``
    when the node budget is exhausted.  The source is processor 0 and is
    *not* restricted to single-sending — the returned value is the true
    optimum over all schedules, making it a valid referee for both the
    lower bounds and the constructions.
    """
    if P < 2 or k < 1:
        return 0
    from repro.core.fib import kitem_lower_bound

    all_items = frozenset(range(k))
    start_holdings = (all_items,) + (frozenset(),) * (P - 1)
    target = tuple([all_items] * P)

    if upper_bound is None:
        upper_bound = broadcast_time_postal(P - 1, L) + 2 * L + k - 2 + L

    nodes = [0]

    def finished(holdings: tuple[frozenset, ...]) -> bool:
        return all(h == all_items for h in holdings)

    def remaining_receptions(holdings, inflight) -> int:
        have = sum(len(h) for h in holdings) + len(inflight)
        return P * k - have

    def search(t: int, holdings, inflight, deadline: int, seen: dict) -> bool:
        if finished(holdings):
            return True
        nodes[0] += 1
        if nodes[0] > node_limit:
            raise RuntimeError("node limit exhausted in exhaustive search")
        # admissible pruning: every missing reception needs >= L steps, and
        # at most P receptions can land per step
        missing = remaining_receptions(holdings, inflight)
        pending_latest = max((a for a, _d, _i in inflight), default=t)
        eta = max(
            pending_latest,
            t + L if missing > 0 else t,
            t + (missing + P - 1) // P,
        )
        if eta > deadline:
            return False
        key = _canonical(holdings, inflight)
        prior = seen.get(key)
        if prior is not None and prior <= t:
            return False
        seen[key] = t

        # deliveries landing at t+1 .. handled when stepping: step to t+1
        # after choosing this step's sends.
        # enumerate send choices per processor: None or (dst, item)
        choices: list[list[tuple[int, int] | None]] = []
        for p in range(P):
            opts: list[tuple[int, int] | None] = [None]
            for item in sorted(holdings[p]):
                for dst in range(P):
                    if dst == p or item in holdings[dst]:
                        continue
                    if any(d == dst and i == item for _a, d, i in inflight):
                        continue
                    opts.append((dst, item))
            choices.append(opts)

        def assign(p: int, chosen: list[tuple[int, int] | None]) -> bool:
            if p == P:
                # collision check: one arrival per (dst, step)
                arrivals = [c for c in chosen if c is not None]
                landing = {}
                for dst, item in arrivals:
                    if dst in landing:
                        return False
                    landing[dst] = item
                for a, d, _i in inflight:
                    if a == t + L and d in landing:
                        return False
                new_inflight = set(inflight)
                for dst, item in arrivals:
                    new_inflight.add((t + L, dst, item))
                # advance to t+1: deliver messages with arrival == t+1
                new_holdings = list(holdings)
                remaining = set()
                for a, d, i in new_inflight:
                    if a == t + 1:
                        new_holdings[d] = new_holdings[d] | {i}
                    else:
                        remaining.add((a, d, i))
                return search(
                    t + 1,
                    tuple(new_holdings),
                    frozenset(remaining),
                    deadline,
                    seen,
                )
            for choice in choices[p]:
                if choice is not None:
                    # avoid two processors targeting the same (dst,item)
                    if any(
                        c is not None and c == choice for c in chosen
                    ):
                        continue
                if assign(p + 1, chosen + [choice]):
                    return True
            return False

        return assign(0, [])

    lb = kitem_lower_bound(P, L, k)
    for deadline in range(lb, upper_bound + 1):
        nodes[0] = 0
        if search(0, start_holdings, frozenset(), deadline, {}):
            return deadline
    raise RuntimeError(f"no schedule within {upper_bound} steps (?)")
