"""Generic truncated continuous-time Markov chain solver.

States are arbitrary hashable objects; transitions are given by a callback
returning ``(next_state, rate)`` pairs.  The stationary distribution of the
truncated chain is found by solving ``pi Q = 0`` with the normalization
``sum(pi) = 1`` as a sparse linear system.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Hashable, Iterable, List, Tuple, TypeVar

import numpy as np
import numpy.typing as npt

from repro.errors import ModelError

#: State type of a chain.  Bounding on ``Hashable`` keeps the solver generic
#: while letting callers (the fluid model uses ``Tuple[int, int]``) pass
#: transition callbacks typed against their concrete state.
S = TypeVar("S", bound=Hashable)

TransitionFn = Callable[[S], Iterable[Tuple[S, float]]]


class MarkovChain(Generic[S]):
    """A finite CTMC built by exploring reachable states.

    Parameters
    ----------
    initial:
        Seed state for reachability exploration.
    transitions:
        Callback mapping a state to its outgoing ``(state, rate)`` pairs.
        Rates must be non-negative; zero rates are ignored.
    max_states:
        Safety bound on the explored state space.
    """

    def __init__(
        self,
        initial: S,
        transitions: TransitionFn[S],
        max_states: int = 200_000,
    ) -> None:
        self.transitions = transitions
        self.index: Dict[S, int] = {}
        self.states: List[S] = []
        self._edges: List[Tuple[int, int, float]] = []
        self._explore(initial, max_states)

    def _explore(self, initial: S, max_states: int) -> None:
        stack = [initial]
        self.index[initial] = 0
        self.states.append(initial)
        while stack:
            state = stack.pop()
            i = self.index[state]
            for nxt, rate in self.transitions(state):
                if rate < 0:
                    raise ModelError(f"negative rate {rate!r} from state {state!r}")
                if rate == 0:
                    continue
                j = self.index.get(nxt)
                if j is None:
                    if len(self.states) >= max_states:
                        raise ModelError(
                            f"state space exceeds max_states={max_states}"
                        )
                    j = len(self.states)
                    self.index[nxt] = j
                    self.states.append(nxt)
                    stack.append(nxt)
                self._edges.append((i, j, rate))

    def stationary_distribution(self) -> npt.NDArray[np.float64]:
        """Stationary probabilities aligned with :attr:`states`."""
        n = len(self.states)
        if n == 1:
            return np.ones(1, dtype=np.float64)
        # The one place scipy is needed, so the one place it is imported:
        # the simulation run path stays stdlib + numpy (DESIGN.md §11).
        from scipy.sparse import coo_matrix
        from scipy.sparse.linalg import spsolve

        # Solve pi Q = 0, sum(pi) = 1 as A x = b with A = Q^T built from
        # (row, col, value) triplets: edge i -> j at rate r adds r to
        # A[j, i] and -r to A[i, i]; COO sums the duplicates.  The last
        # balance equation is replaced with the normalization condition.
        i, j, r = zip(*self._edges)
        src, dst, rate = np.array(i), np.array(j), np.array(r, dtype=np.float64)
        rows = np.concatenate([dst, src])
        cols = np.concatenate([src, src])
        vals = np.concatenate([rate, -rate])
        keep = rows != n - 1
        rows = np.append(rows[keep], np.full(n, n - 1))
        cols = np.append(cols[keep], np.arange(n))
        vals = np.append(vals[keep], np.ones(n))
        a = coo_matrix((vals, (rows, cols)), shape=(n, n))
        b = np.zeros(n)
        b[n - 1] = 1.0
        raw = spsolve(a.tocsr(), b)
        pi: npt.NDArray[np.float64] = np.asarray(raw, dtype=np.float64).ravel()
        # Numerical cleanup: clip tiny negatives, renormalize.
        pi = np.clip(pi, 0.0, None)
        total = float(pi.sum())
        if total <= 0:
            raise ModelError("stationary solve produced a zero vector")
        return pi / total

    def expectation(
        self, pi: npt.NDArray[np.float64], fn: Callable[[S], float]
    ) -> float:
        """E[fn(state)] under a distribution aligned with :attr:`states`."""
        return float(sum(p * fn(s) for s, p in zip(self.states, pi) if p > 0))
