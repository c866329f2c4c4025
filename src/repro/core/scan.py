"""The tie-batched reverse-chronological scan shared by every IRS index.

Algorithms 2 and 3 of the paper have one control flow: scan the log from
the latest interaction to the earliest and, for each ``(u, v, t)``, fold
the summary ϕ(v) into ϕ(u).  By Lemma 1 only ϕ(u) can change, so each
step touches one summary.  :class:`ReverseScan` is that loop, written
once; an index supplies its summary type (an exact λ-map, a versioned
HLL, a bottom-k sketch, a Pareto frontier) and the per-interaction
update ``_apply``.

The tie rule (beyond the paper, which assumes distinct stamps): a channel
needs strictly increasing times, so two interactions sharing a stamp must
never chain.  Interactions with equal stamps are therefore applied as one
batch, each merging from a *snapshot* of its target's summary taken
before the batch — no edge of the batch can see another's effect.
:meth:`ReverseScan.process` refuses ties outright, since a lone
interaction cannot know whether more of its stamp follow;
:meth:`ReverseScan.process_tied` lets a caller that owns the snapshots
(the live streaming indexes) apply ties one at a time.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, Optional, Protocol, TypeVar

from repro.core.interactions import Interaction, InteractionLog
from repro.utils.validation import require_int

__all__ = ["ReverseScan"]

Node = Hashable

S = TypeVar("S", bound="_Copyable")


class _Copyable(Protocol):
    def copy(self: S) -> S: ...


class ReverseScan(Generic[S]):
    """Per-node summaries built by one tie-batched reverse scan.

    Subclasses implement :meth:`_new_summary` (an empty summary) and
    :meth:`_apply` (fold one interaction into the source's summary, given
    the target's summary as it stood before the interaction's stamp), and
    override :meth:`_copy` when ``summary.copy()`` is not a deep enough
    snapshot.
    """

    def __init__(self) -> None:
        self._summaries: Dict[Node, S] = {}
        self._last_time: Optional[int] = None

    def _new_summary(self) -> S:
        raise NotImplementedError

    def _apply(
        self, source: Node, target: Node, time: int, target_summary: Optional[S]
    ) -> None:
        raise NotImplementedError

    def _copy(self, summary: S) -> S:
        return summary.copy()

    def _scan(self, log: InteractionLog) -> None:
        """One reverse pass over ``log``, ties batched; then every node of
        the log gets a (possibly empty) summary, so pure sinks answer
        queries too."""
        batch: list[Interaction] = []
        for record in log.reverse_time_order():
            if batch and record.time != batch[0].time:
                self._process_batch(batch)
                batch = []
            batch.append(record)
        if batch:
            self._process_batch(batch)
        summaries = self._summaries
        for node in log.nodes:
            if node not in summaries:
                summaries[node] = self._new_summary()

    def _process_batch(self, records: list[Interaction]) -> None:
        """Apply interactions sharing one stamp against pre-batch snapshots."""
        if len(records) == 1:
            # A lone interaction cannot chain with itself: read the live
            # target summary, no copy needed.
            source, target, time = records[0]
            self._apply(source, target, time, self._summaries.get(target))
        else:
            snapshots: Dict[Node, Optional[S]] = {}
            for record in records:
                target = record.target
                if target not in snapshots:
                    snapshots[target] = self.snapshot(target)
            for record in records:
                target = record.target
                self._apply(record.source, target, record.time, snapshots[target])
        self._last_time = records[0].time

    def process(self, source: Node, target: Node, time: int) -> None:
        """Process one interaction; times must be strictly decreasing.

        Equal stamps are rejected — their merges would chain tied edges;
        ``from_log`` batches ties correctly.
        """
        require_int(time, "time")
        if self._last_time is not None and time >= self._last_time:
            raise ValueError(
                f"interactions must be processed in strictly decreasing time "
                f"order: got t={time} after t={self._last_time} "
                "(use from_log for logs with tied time stamps)"
            )
        self._last_time = time
        self._apply(source, target, time, self._summaries.get(target))

    def process_tied(
        self,
        source: Node,
        target: Node,
        time: int,
        target_summary: Optional[S],
    ) -> None:
        """One interaction of a tied batch, merged from an explicit snapshot.

        The incremental face of the batch tie rule: the caller owns the
        pre-stamp snapshots (taken with :meth:`snapshot`) and the stamp may
        equal the current frontier — it must not move it forward.
        """
        require_int(time, "time")
        if self._last_time is not None and time > self._last_time:
            raise ValueError(
                f"tied processing cannot move the frontier forward: got "
                f"t={time} after t={self._last_time}"
            )
        self._last_time = time
        self._apply(source, target, time, target_summary)

    def snapshot(self, node: Node) -> Optional[S]:
        """An isolated copy of the node's summary (None when unseen)."""
        existing = self._summaries.get(node)
        return self._copy(existing) if existing is not None else None

    def _summary_for(self, node: Node) -> S:
        summary = self._summaries.get(node)
        if summary is None:
            summary = self._new_summary()
            self._summaries[node] = summary
        return summary

    @property
    def nodes(self) -> Iterable[Node]:
        """All nodes with a (possibly empty) summary."""
        return self._summaries.keys()
