"""Walk-enumeration oracle for the tree-walk moment formula.

``brute_force_tree_walks`` literally counts the closed walks that
``trochoid.moments.tree_walk_prediction`` is supposed to count, on the
universal cover of a graph built from cycles (a tree of directed m-gons; for
m = 2 that degenerates to the ordinary infinite tree).
"""

from __future__ import annotations

from functools import lru_cache

from trochoid.errors import InvalidSpecError

_BRUTE_FORCE_MAX_L = 4


def brute_force_tree_walks(m_kind: int, l: int, d: int, branching: int) -> int:
    """Exact count of closed walks of length m_kind * l on a cycle tree.

    The structure is the universal cover of a graph built from directed
    m_kind-cycles: the root belongs to ``d`` cycles and every other node to
    ``branching`` + 1 (one inherited from its parent cycle plus ``branching``
    fresh ones).  A walk state is the stack of positions inside the cycles
    entered and not yet completed; moves either advance one step around the
    innermost cycle (popping it on completion) or enter a fresh cycle.

    Walks are enumerated by depth-first search with memoization on the
    (steps left, position stack) state, which visits every distinct walk
    shape exactly once and weights it by its number of cycle choices.
    """
    if m_kind < 2:
        raise InvalidSpecError(f"cycle length must be >= 2, got {m_kind}")
    if l < 1:
        raise InvalidSpecError(f"order must be >= 1, got {l}")
    if l > _BRUTE_FORCE_MAX_L:
        raise InvalidSpecError(
            f"enumeration is exponential; l must be <= {_BRUTE_FORCE_MAX_L}, got {l}"
        )
    if d < 0 or branching < 0:
        raise InvalidSpecError("degrees must be nonnegative")
    total_steps = m_kind * l

    @lru_cache(maxsize=None)
    def count(steps_left: int, stack: tuple[int, ...]) -> int:
        if steps_left == 0:
            return 1 if not stack else 0
        # completing every open cycle needs sum of remaining steps
        need = sum(m_kind - p for p in stack)
        if need > steps_left:
            return 0
        total = 0
        if stack:
            p = stack[-1]
            if p + 1 == m_kind:
                total += count(steps_left - 1, stack[:-1])
            else:
                total += count(steps_left - 1, stack[:-1] + (p + 1,))
            total += branching * count(steps_left - 1, stack + (1,))
        else:
            total += d * count(steps_left - 1, (1,))
        return total

    return count(total_steps, ())
