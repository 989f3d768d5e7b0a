"""Legal reception words and the word automaton (Section 3.2, Lemma 3.1).

A processor in a block of size ``r`` has a periodic reception pattern of
period ``r``: the uppercase letter ``R_r`` (offset ``r + L - 1``) at phase
0, and a *word* of ``r - 1`` lowercase letters (offsets ``0 .. L-1``) at
phases ``1 .. r-1``.

**Correctness** requires the processor never receive the same item twice.
Under relative addressing, receptions at steps ``tau`` and ``tau + s``
(``s >= 1``) with offsets ``m1`` and ``m2`` are the same item iff
``m1 - m2 == s``; for a pattern of period ``n`` this becomes the purely
combinatorial test of :func:`is_legal_pattern`.

**Send non-interference** requires an uppercase holder (busy sending for
``r`` consecutive steps) not to be handed another uppercase meanwhile; for
the standard one-uppercase block this holds automatically, and
:func:`is_legal_general_pattern` checks it for the mixed patterns used by
the ``L = 2`` constructions.

Lemma 3.1's key word family (letters written as offsets, ``a=0, b=1,
c=2``) is ``F1(p, q) = a^{L-2} (ca)^p b^q``, the normal form the Section
3.3 induction appends ``b`` to.  (The published text lists further
families, but its typography is ambiguous and the literal readings fail
the legality check, so the solvers pair F1 with exhaustive enumeration
instead.)  Every family word is re-verified by :func:`is_legal_word` at
generation time, so a misremembered family fails loudly rather than
corrupting a schedule.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.continuous.relative import letter_name, uppercase_offset

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "is_legal_pattern",
    "is_legal_word",
    "is_legal_general_pattern",
    "family_f1",
    "family_words",
    "enumerate_legal_words",
    "word_automaton",
    "word_to_str",
]

Word = tuple[int, ...]


def is_legal_pattern(pattern: Sequence[int]) -> bool:
    """Correctness check for a cyclic reception pattern of offsets.

    ``pattern[j]`` is the offset received at phases ``j (mod n)``.  The
    pattern is legal iff no two receptions ever name the same item:
    for all phases ``j1, j2`` the difference ``pattern[j1] - pattern[j2]``
    must not be a positive integer congruent to ``j2 - j1`` modulo ``n``.
    """
    n = len(pattern)
    if n == 0:
        return True
    for j1 in range(n):
        for j2 in range(n):
            diff = pattern[j1] - pattern[j2]
            if diff >= 1 and (j2 - j1) % n == diff % n:
                return False
    return True


def is_legal_word(r: int, word: Sequence[int], L: int) -> bool:
    """Check a lowercase word of length ``r - 1`` for a standard block of
    size ``r`` (uppercase ``R_r`` at phase 0)."""
    if len(word) != r - 1:
        return False
    if any(not 0 <= m < L for m in word):
        return False
    return is_legal_pattern((uppercase_offset(r, L), *word))


def is_legal_general_pattern(
    entries: Sequence[tuple[int, int]],
) -> bool:
    """Check a mixed pattern of ``(offset, out_degree)`` entries.

    ``out_degree == 0`` marks a leaf reception.  Verifies correctness
    (offset injectivity) *and* send non-interference: an entry with degree
    ``r`` occupies the processor's send port for ``r`` consecutive steps,
    so the next internal-node reception (cyclically) must be at least ``r``
    phases away, and ``r`` must not exceed the period.
    """
    offsets = [m for m, _r in entries]
    if not is_legal_pattern(offsets):
        return False
    n = len(entries)
    internal_phases = [(j, r) for j, (_m, r) in enumerate(entries) if r > 0]
    for j, r in internal_phases:
        if r > n:
            return False
        for j2, _r2 in internal_phases:
            gap = (j2 - j - 1) % n + 1  # smallest positive phase distance
            if (j2, _r2) == (j, r):
                gap = n
            if gap < r and (j2 != j):
                return False
    return True


def _checked(r: int, word: Word, L: int) -> Word:
    if not is_legal_word(r, word, L):
        raise AssertionError(
            f"family produced illegal word {word_to_str(word)} for r={r}, L={L}"
        )
    return word


def family_f1(r: int, L: int) -> Iterator[Word]:
    """All ``a^{L-2}(ca)^p b^q`` words of length exactly ``r - 1``."""
    base = L - 2
    length = r - 1
    if length < base:
        return
    for p in range((length - base) // 2 + 1):
        q = length - base - 2 * p
        word = (0,) * base + (2, 0) * p + (1,) * q
        yield _checked(r, word, L)


def family_words(r: int, L: int) -> list[Word]:
    """All Lemma-3.1 family-F1 words for a block of size ``r``.

    The paper's other families could not be reconstructed unambiguously
    from the published text (our legality checker refutes the literal
    readings), so the solvers pair F1 — whose role in the Section 3.3
    induction is essential and machine-verified — with exhaustive
    enumeration for the remaining blocks.
    """
    return list(family_f1(r, L))


def enumerate_legal_words(
    r: int,
    L: int,
    census: Counter | None = None,
    limit: int | None = None,
) -> list[Word]:
    """Exhaustively enumerate legal words of length ``r - 1``.

    Optionally restricted to words whose letter multiset fits within
    ``census``.  Exponential in ``r``; intended for ``r - 1 <= ~8`` (the
    DFS solver's fallback) and for validating the automaton construction.
    """
    upper = uppercase_offset(r, L)
    results: list[Word] = []

    def extend(prefix: list[int], remaining: Counter | None) -> None:
        if limit is not None and len(results) >= limit:
            return
        if len(prefix) == r - 1:
            results.append(tuple(prefix))
            return
        for m in range(L):
            if remaining is not None and remaining[m] <= 0:
                continue
            prefix.append(m)
            # incremental legality: check full cyclic pattern only at the
            # end is wasteful; the partial linear check prunes most branches
            if _partial_ok(upper, prefix):
                if remaining is not None:
                    remaining[m] -= 1
                extend(prefix, remaining)
                if remaining is not None:
                    remaining[m] += 1
            prefix.pop()

    def _partial_ok(upper_offset: int, word: list[int]) -> bool:
        pattern = [upper_offset, *word]
        n = r  # final period; partial entries occupy phases 0..len(word)
        for j1 in range(len(pattern)):
            for j2 in range(len(pattern)):
                diff = pattern[j1] - pattern[j2]
                if diff >= 1 and (j2 - j1) % n == diff % n:
                    return False
        return True

    extend([], Counter(census) if census is not None else None)
    return [w for w in results if is_legal_word(r, w, L)]


def word_automaton(L: int) -> nx.DiGraph:
    """The automaton of legal letter adjacencies (Figure 2, bottom-left).

    States are windows of ``L - 1`` consecutive lowercase offsets that are
    internally collision-free; an edge ``u -> v`` exists when ``u``'s tail
    equals ``v``'s head and appending ``v``'s last letter keeps the window
    collision-free.  Closed walks of length ``r`` through the automaton
    correspond to the cyclically-legal lowercase cores of words (the
    paper's three-step recipe).  Start states (the paper's double circles)
    are marked with the ``start`` node attribute: windows that may follow
    the uppercase letter, i.e. remain legal when the window is preceded by
    an uppercase reception.
    """
    import networkx as nx

    if L < 2:
        raise ValueError("the automaton needs L >= 2")
    window = L - 1

    def window_ok(win: tuple[int, ...]) -> bool:
        for i in range(len(win)):
            for j in range(i + 1, len(win)):
                if win[i] - win[j] == j - i:
                    return False
        return True

    def start_ok(win: tuple[int, ...]) -> bool:
        # Within a window of width L-1, the uppercase letter R_r behaves
        # exactly like the top lowercase letter (offset L-1): a letter m
        # at distance s <= L-1 after the uppercase collides iff
        # s ≡ (r + L - 1) - m (mod r), whose only representative in
        # [1, L-1] for r >= L is s = L - 1 - m — the same rule as for the
        # letter L-1.  The paper's start states (double circles) are thus
        # the windows that BEGIN with the top letter: the walk's first
        # letter stands in for the uppercase duty.
        return win[0] == L - 1

    graph = nx.DiGraph()
    states = [
        win
        for win in _all_windows(L, window)
        if window_ok(win)
    ]
    for win in states:
        graph.add_node(win, start=start_ok(win), label="".join(letter_name(m, L) for m in win))
    for u in states:
        for m in range(L):
            v = u[1:] + (m,)
            if v in graph and window_ok(u + (m,)):
                graph.add_edge(u, v)
    return graph


def _all_windows(L: int, width: int) -> Iterator[tuple[int, ...]]:
    if width == 0:
        yield ()
        return
    for rest in _all_windows(L, width - 1):
        for m in range(L):
            yield (m, *rest)


def words_from_automaton(r: int, L: int) -> set[Word]:
    """The paper's three-step recipe (Figure 2c) for legal words.

    "Start at one of the start states … follow a directed path with ``r``
    edges that ends in the same state.  This yields a word of length
    ``r + 2``, including the two letters of the start state.  Delete the
    first letter and the last two letters of this word to obtain a word
    of length ``r - 1``."

    Implemented over the window automaton of :func:`word_automaton`
    (window width ``L - 1``; the recipe as printed is for ``L = 3``).
    The test suite cross-validates the produced set against the exact
    enumerator — agreement for ``L = 3`` confirms the automaton encodes
    precisely the correctness constraints the paper derives.
    """
    if L != 3:
        raise ValueError(
            "the paper's printed recipe is specific to the L=3 automaton"
        )
    auto = word_automaton(L)
    results: set[Word] = set()

    def walks(state, remaining: int, path: list[int]) -> Iterator[list[int]]:
        if remaining == 0:
            yield path
            return
        for _u, v in auto.out_edges(state):
            yield from walks(v, remaining - 1, path + [v[-1]])

    for start, data in auto.nodes(data=True):
        if not data["start"]:
            continue
        for walk in walks(start, r, list(start)):
            # cyclically closed: the path's final window is again a start
            # window whose second letter matches the word's first letter
            # (the deleted first/last letters are the uppercase, which the
            # automaton represents by the top letter)
            if tuple(walk[-2:]) != start:
                continue
            word = tuple(walk[1 : 1 + (r - 1)])  # drop first, last two
            if len(word) == r - 1:
                results.add(word)
    return results


def word_to_str(word: Sequence[int]) -> str:
    """Render a word of offsets as letters, e.g. ``(0,2,0,1) -> 'acab'``."""
    return "".join(chr(ord("a") + m) for m in word)
