"""Vectorized consistency kernel: dense boolean adjacency matrices.

Checking a candidate execution reduces to *is this int edge list
acyclic?* (see :func:`repro.consistency.checker.check_edges`).  This
module answers it with dense numpy boolean adjacency matrices over the
execution's contiguous event ids (:class:`~repro.consistency.execution.
ExecutionGraph`):

- **bulk edge construction**: all edges land in the matrix with one
  fancy-indexed assignment (:meth:`MatrixRelation.from_edges` /
  :meth:`MatrixRelation.add_edges`);
- **union** is elementwise ``|=`` (:meth:`MatrixRelation.__ior__`,
  :meth:`MatrixRelation.union`);
- **transitive closure** is a Warshall-style *blocked* sweep: each
  pivot block is closed locally, then propagated with three boolean
  matrix products (:meth:`MatrixRelation.transitive_closure`);
- **cycle detection** is either the ``closure & closure.T`` diagonal
  (:meth:`MatrixRelation.cycle_nodes`) or — the fast path the checker
  uses — Kahn's algorithm peeling zero-in-degree nodes off an ``int32``
  in-degree array (:meth:`MatrixRelation.is_acyclic`);
- **batch witness evaluation** stacks the edge matrices of many
  candidate executions into one ``(batch, n, n)`` array and runs a
  single batched Kahn elimination over all of them
  (:func:`batch_is_acyclic` / :func:`batch_check_executions`), so one
  call verdicts a whole set of executions against a model.

The module itself imports without numpy (``HAVE_NUMPY`` is then False)
so the pure-python backend keeps working; constructing any matrix
object without numpy raises a clear error.  Backend selection lives in
:func:`repro.consistency.checker.resolve_backend`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consistency.execution import CandidateExecution
    from repro.consistency.models import MemoryModel

#: True when numpy imported; the matrix backend is only offered then.
HAVE_NUMPY = np is not None

#: Pivot-block width of the blocked Warshall closure.  64 keeps each
#: pivot's local fixpoint tiny while the propagation steps stay big
#: enough to amortize as full-width boolean matrix products.
CLOSURE_BLOCK = 64


def require_numpy() -> None:
    """Raise a clear error when the vectorized kernel is unavailable."""
    if np is None:
        raise ModuleNotFoundError(
            "the matrix checker backend needs numpy; install the "
            "optional extra (pip install 'mcversi-repro[matrix]') or "
            "select backend='python'")


class MatrixRelation:
    """A dense boolean adjacency matrix over contiguous node indices.

    ``adjacency[i, j]`` is True iff the edge ``i -> j`` is present.
    Node identity is external: callers number their nodes (the checker
    uses the execution graph's event ids) in the contiguous index range
    ``0..size-1`` once, then talk to the matrix purely in indices.
    """

    __slots__ = ("size", "adjacency")

    def __init__(self, size: int, adjacency=None) -> None:
        require_numpy()
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self.size = size
        if adjacency is None:
            adjacency = np.zeros((size, size), dtype=bool)
        else:
            adjacency = np.asarray(adjacency, dtype=bool)
            if adjacency.shape != (size, size):
                raise ValueError(
                    f"adjacency shape {adjacency.shape} != ({size}, {size})")
        self.adjacency = adjacency

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, size: int, sources: Sequence[int],
                   targets: Sequence[int]) -> "MatrixRelation":
        """Bulk-build from parallel source/target index arrays."""
        relation = cls(size)
        relation.add_edges(sources, targets)
        return relation

    def add_edges(self, sources: Sequence[int],
                  targets: Sequence[int]) -> None:
        """Set every ``sources[k] -> targets[k]`` edge in one assignment."""
        if len(sources) != len(targets):
            raise ValueError("sources and targets must have equal length")
        if len(sources):
            self.adjacency[np.asarray(sources, dtype=np.intp),
                           np.asarray(targets, dtype=np.intp)] = True

    # -- set algebra ----------------------------------------------------

    def __ior__(self, other: "MatrixRelation") -> "MatrixRelation":
        if other.size != self.size:
            raise ValueError(
                f"cannot union size {other.size} into size {self.size}")
        self.adjacency |= other.adjacency
        return self

    @staticmethod
    def union(*relations: "MatrixRelation") -> "MatrixRelation":
        """Elementwise union of same-size matrix relations."""
        require_numpy()
        if not relations:
            return MatrixRelation(0)
        merged = MatrixRelation(relations[0].size,
                                relations[0].adjacency.copy())
        for relation in relations[1:]:
            merged |= relation
        return merged

    def __contains__(self, edge: tuple[int, int]) -> bool:
        src, dst = edge
        return bool(self.adjacency[src, dst])

    def edge_count(self) -> int:
        return int(self.adjacency.sum())

    def __len__(self) -> int:
        return self.edge_count()

    # -- closure and cycles ---------------------------------------------

    def transitive_closure(self) -> "MatrixRelation":
        """Warshall-style blocked transitive closure.

        Classic Floyd–Warshall pivots one node at a time; here pivots
        advance a ``CLOSURE_BLOCK``-wide block at a time: the pivot
        block is closed locally (boolean squaring to a fixpoint —
        at most ``log2(block)`` products over a tiny matrix), then its
        effect is propagated to the pivot rows/columns and the whole
        matrix with three full-width boolean matrix products.  All the
        heavy lifting is inside numpy's matmul kernel.
        """
        closure = self.adjacency.copy()
        for start in range(0, self.size, CLOSURE_BLOCK):
            pivot_slice = slice(start, min(start + CLOSURE_BLOCK, self.size))
            pivot = closure[pivot_slice, pivot_slice].copy()
            while True:
                grown = pivot | (pivot @ pivot)
                if (grown == pivot).all():
                    break
                pivot = grown
            closure[pivot_slice, pivot_slice] = pivot
            closure[:, pivot_slice] |= closure[:, pivot_slice] @ pivot
            closure[pivot_slice, :] |= pivot @ closure[pivot_slice, :]
            closure |= closure[:, pivot_slice] @ closure[pivot_slice, :]
        return MatrixRelation(self.size, closure)

    def is_acyclic(self) -> bool:
        """Kahn's algorithm on an ``int32`` in-degree array.

        Repeatedly peels *every* currently-zero-in-degree node in one
        vectorized step (mask, boolean row-gather, column sum); the
        relation is acyclic iff everything gets peeled.  This is the
        checker's hot path — it never materializes the closure.
        """
        adjacency = self.adjacency
        in_degree = adjacency.sum(axis=0, dtype=np.int32)
        active = np.ones(self.size, dtype=bool)
        while True:
            removable = active & (in_degree == 0)
            if not removable.any():
                break
            active &= ~removable
            in_degree -= adjacency[removable].sum(axis=0, dtype=np.int32)
        return not active.any()

    def cycle_nodes(self) -> list[int]:
        """Indices of every node on some cycle, via the closure diagonal.

        A node sits on a cycle iff the transitive closure reaches it
        from itself — equivalently iff the ``closure & closure.T``
        co-reachability matrix has a True diagonal entry there.
        """
        closure = self.transitive_closure().adjacency
        mutual = closure & closure.T
        return [int(node) for node in np.flatnonzero(np.diagonal(mutual))]


# -- batched evaluation -------------------------------------------------


def batch_is_acyclic(stack) -> "np.ndarray":
    """Acyclicity verdict for every matrix in a ``(batch, n, n)`` stack.

    One batched Kahn elimination: a ``(batch, n)`` int32 in-degree
    array is peeled simultaneously across the whole batch, so checking
    B witness graphs costs about as much as checking the slowest one.
    Returns a ``(batch,)`` boolean array.
    """
    require_numpy()
    stack = np.asarray(stack, dtype=bool)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a (batch, n, n) stack, got {stack.shape}")
    in_degree = stack.sum(axis=1, dtype=np.int32)
    active = np.ones(in_degree.shape, dtype=bool)
    while True:
        removable = active & (in_degree == 0)
        if not removable.any():
            break
        active &= ~removable
        # Each removed node's outgoing row is gathered exactly once over
        # the whole elimination (total O(batch * n^2), not per level);
        # np.nonzero yields rows grouped by batch index, so one
        # add.reduceat folds them into per-batch decrements.
        batch_index, node_index = np.nonzero(removable)
        rows = stack[batch_index, node_index].astype(np.int32)
        present, starts = np.unique(batch_index, return_index=True)
        in_degree[present] -= np.add.reduceat(rows, starts, axis=0)
    return ~active.any(axis=1)


def batch_check_executions(executions: Sequence["CandidateExecution"],
                           model: "MemoryModel") -> list[bool]:
    """Pass/fail verdicts for many candidate executions, in one sweep.

    Stacks every execution's coherence and global-happens-before edge
    matrices (zero-padded to the widest execution — padding nodes are
    isolated and never affect acyclicity) and runs one batched Kahn
    elimination over the whole pile; the per-address RMW-atomicity scan
    stays in plain python (it is a short chain walk, not graph search).
    The verdict list agrees element-for-element with
    ``Checker(model).check(execution).passed``.
    """
    require_numpy()
    if not executions:
        return []
    from repro.consistency.checker import atomicity_violations, check_edges
    edge_sets = [(execution.graph.size,
                  *check_edges(execution.graph, model))
                 for execution in executions]
    width = max(size for size, _, _ in edge_sets)
    stack = np.zeros((2 * len(edge_sets), width, width), dtype=bool)
    for position, (_, coherence_edges, ghb_edges) in enumerate(edge_sets):
        stack[2 * position, coherence_edges[0], coherence_edges[1]] = True
        stack[2 * position + 1, ghb_edges[0], ghb_edges[1]] = True
    acyclic = batch_is_acyclic(stack)
    verdicts = []
    for position, execution in enumerate(executions):
        passed = bool(acyclic[2 * position] and acyclic[2 * position + 1])
        if passed and atomicity_violations(execution):
            passed = False
        verdicts.append(passed)
    return verdicts


class MatrixBackend:
    """The vectorized :class:`~repro.consistency.checker.CheckerBackend`.

    Each acyclicity question becomes a dense ``size x size`` boolean
    matrix (:meth:`MatrixRelation.from_edges`) peeled by the vectorized
    Kahn elimination (:meth:`MatrixRelation.is_acyclic`).
    """

    name = "matrix"

    def __init__(self) -> None:
        require_numpy()

    def is_acyclic(self, size: int, sources: Sequence[int],
                   targets: Sequence[int]) -> bool:
        return MatrixRelation.from_edges(size, sources, targets).is_acyclic()
