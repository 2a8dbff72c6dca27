"""The exploratory step ``Q = (D_in, q, d_out)``.

An :class:`ExploratoryStep` bundles the input dataframe(s), the operation,
and the resulting output dataframe — the unit of explanation in FEDEX.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..dataframe.frame import DataFrame
from ..errors import OperationError
from .operations import Operation


class ExploratoryStep:
    """One step of a notebook EDA session.

    Parameters
    ----------
    inputs:
        The input dataframe(s) ``D_in`` (two for join/union, one otherwise).
    operation:
        The EDA operation ``q``.
    output:
        The output dataframe ``d_out``.  When omitted the step is *derived*:
        its output is ``operation.apply(inputs)``, computed on first access
        of :attr:`output` and kept.  Operations are pure, so a derived step
        is fully identified by its lineage (operation + inputs) and the
        session layer can serve its memoized report without ever computing
        the output (see :func:`repro.core.signatures.step_signature`).
        Passing the output explicitly lets callers reuse an
        already-materialised result; such a step is keyed by the output's
        content as well.
    label:
        Optional human-readable label (e.g. the workload query number).
    """

    __slots__ = ("inputs", "operation", "label", "_output", "_derived", "_lineage")

    def __init__(self, inputs: Sequence[DataFrame] | DataFrame, operation: Operation,
                 output: Optional[DataFrame] = None, label: str | None = None) -> None:
        if isinstance(inputs, DataFrame):
            inputs = [inputs]
        self.inputs: List[DataFrame] = list(inputs)
        if not self.inputs:
            raise OperationError("an exploratory step requires at least one input dataframe")
        self.operation = operation
        operation.validate_inputs(self.inputs)
        self._output = output
        self._derived = output is None
        # Lineage (operation signature + input fingerprints) the derived
        # output is, or will be, computed from; recorded by
        # lineage_matches() while the output is pending.
        self._lineage: Optional[Tuple] = None
        self.label = label

    # ------------------------------------------------------------------ output
    @property
    def output(self) -> DataFrame:
        """The output dataframe, applying the operation on first access.

        Threads racing on the first access may each apply the operation;
        it is pure, so they compute equal frames and either is kept.
        """
        if self._output is None:
            self._output = self.operation.apply(self.inputs)
        return self._output

    def lineage_matches(self, lineage: Tuple) -> bool:
        """Whether the output is what this lineage computes.

        ``lineage`` identifies the operation and the inputs as they are now
        (see :func:`repro.core.signatures.step_signature`).  True for a
        derived step whose output is still pending (the lineage is
        recorded: the output will be computed from it) or was computed
        after such a check under the same lineage.  False for an explicit
        output, and for a derived output materialised before any check —
        its inputs or operation may have been mutated in place since, so
        only its own content can identify it.
        """
        if not self._derived:
            return False
        if self._output is None:
            self._lineage = lineage
            return True
        return self._lineage == lineage

    # ------------------------------------------------------------------ helpers
    @property
    def primary_input(self) -> DataFrame:
        """The first input dataframe (the only one for unary operations)."""
        return self.inputs[0]

    @property
    def is_multi_input(self) -> bool:
        """True for join/union steps with more than one input dataframe."""
        return len(self.inputs) > 1

    def rerun(self, new_inputs: Sequence[DataFrame]) -> DataFrame:
        """Apply the step's operation to different inputs (intervention primitive)."""
        self.operation.validate_inputs(new_inputs)
        return self.operation.apply(new_inputs)

    def with_inputs_replaced(self, input_index: int, new_input: DataFrame) -> List[DataFrame]:
        """The input list with the dataframe at ``input_index`` swapped out."""
        if not 0 <= input_index < len(self.inputs):
            raise OperationError(
                f"input index {input_index} out of range for step with {len(self.inputs)} inputs"
            )
        inputs = list(self.inputs)
        inputs[input_index] = new_input
        return inputs

    def describe(self) -> str:
        """Readable description (label + operation + shapes)."""
        label = f"[{self.label}] " if self.label else ""
        shapes = " + ".join(f"{frame.num_rows}x{frame.num_columns}" for frame in self.inputs)
        return (
            f"{label}{self.operation.describe()} on {shapes} -> "
            f"{self.output.num_rows}x{self.output.num_columns}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExploratoryStep({self.describe()})"
