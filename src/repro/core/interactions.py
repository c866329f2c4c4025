"""The interaction-network data model.

An *interaction network* ``G(V, E)`` (paper §2) is a set of nodes ``V``
together with a set ``E`` of directed, timestamped **interactions**
``(u, v, t)`` — node ``u`` interacted with node ``v`` at integer time ``t``
(e.g. ``u`` sent ``v`` an email).  The same pair of nodes may interact many
times; it is exactly this repetition that distinguishes interaction networks
from the static graphs classical influence maximization runs on.

:class:`InteractionLog` is the container every algorithm in this library
consumes.  It validates and time-sorts its input once at construction, after
which iteration in forward or reverse chronological order is free — the
paper's one-pass algorithms scan in *reverse* order (its Lemma 1), while the
TCIC cascade simulator scans forward.
"""

from __future__ import annotations

import io
from typing import (
    Hashable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Union,
)

__all__ = ["Interaction", "InteractionLog"]

Node = Hashable


class Interaction(NamedTuple):
    """A single directed, timestamped interaction ``source → target``."""

    source: Node
    target: Node
    time: int

    def reversed(self) -> "Interaction":
        """The same event with source and target swapped."""
        return Interaction(self.target, self.source, self.time)


RawInteraction = Union[Interaction, tuple]


class InteractionLog:
    """An immutable, time-sorted sequence of :class:`Interaction` records.

    Parameters
    ----------
    interactions:
        Any iterable of ``(source, target, time)`` triples or
        :class:`Interaction` objects.  Times must be integers.  The input
        need not be sorted — it is sorted (stably) by time at construction.
    allow_self_loops:
        When ``False`` (default) an interaction with ``source == target``
        raises :class:`ValueError`; self-messages carry no influence and the
        paper's datasets do not contain them.

    Example
    -------
    >>> log = InteractionLog([("a", "b", 1), ("b", "c", 3), ("a", "c", 2)])
    >>> log.num_nodes, log.num_interactions
    (3, 3)
    >>> [i.time for i in log]
    [1, 2, 3]
    """

    __slots__ = ("_interactions", "_nodes", "_min_time", "_max_time")

    def __init__(
        self,
        interactions: Iterable[RawInteraction],
        allow_self_loops: bool = False,
    ) -> None:
        records: list[Interaction] = []
        nodes: set[Node] = set()
        for raw in interactions:
            record = self._coerce(raw)
            if record.source == record.target and not allow_self_loops:
                raise ValueError(
                    f"self-loop interaction {record!r} (pass allow_self_loops=True "
                    "to keep them)"
                )
            records.append(record)
            nodes.add(record.source)
            nodes.add(record.target)
        records.sort(key=lambda r: r.time)
        self._interactions: tuple[Interaction, ...] = tuple(records)
        self._nodes: frozenset[Node] = frozenset(nodes)
        if records:
            self._min_time: Optional[int] = records[0].time
            self._max_time: Optional[int] = records[-1].time
        else:
            self._min_time = None
            self._max_time = None

    @staticmethod
    def _coerce(raw: RawInteraction) -> Interaction:
        if isinstance(raw, Interaction):
            record = raw
        else:
            try:
                source, target, time = raw
            except (TypeError, ValueError) as exc:
                raise TypeError(
                    f"interaction must be a (source, target, time) triple, got {raw!r}"
                ) from exc
            record = Interaction(source, target, time)
        if isinstance(record.time, bool) or not isinstance(record.time, int):
            raise TypeError(
                f"interaction time must be an int, got {record.time!r} in {record!r}"
            )
        return record

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._interactions)

    def __iter__(self) -> Iterator[Interaction]:
        """Iterate in forward (increasing-time) order."""
        return iter(self._interactions)

    def __getitem__(self, index: int) -> Interaction:
        return self._interactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionLog):
            return NotImplemented
        return self._interactions == other._interactions

    def __hash__(self) -> int:
        return hash(self._interactions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InteractionLog(nodes={self.num_nodes}, "
            f"interactions={self.num_interactions}, span={self.time_span})"
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def reverse_time_order(self) -> Iterator[Interaction]:
        """Iterate in decreasing-time order (the one-pass algorithms' order)."""
        return reversed(self._interactions)

    def forward(self) -> Iterator[Interaction]:
        """Alias of ``iter(self)`` for symmetry with :meth:`reverse_time_order`."""
        return iter(self._interactions)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[Node]:
        """All nodes appearing as source or target of some interaction."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        """``n = |V|``."""
        return len(self._nodes)

    @property
    def num_interactions(self) -> int:
        """``m = |E|``."""
        return len(self._interactions)

    @property
    def min_time(self) -> Optional[int]:
        """Earliest interaction time, or ``None`` when empty."""
        return self._min_time

    @property
    def max_time(self) -> Optional[int]:
        """Latest interaction time, or ``None`` when empty."""
        return self._max_time

    @property
    def time_span(self) -> int:
        """``max_time − min_time + 1`` — the number of time ticks covered.

        Zero for an empty log.  Window lengths expressed as a percentage of
        the dataset's span (as the paper's experiments do) are derived from
        this via :meth:`window_from_percent`.
        """
        if self._min_time is None or self._max_time is None:
            return 0
        return self._max_time - self._min_time + 1

    def window_from_percent(self, percent: float) -> int:
        """Convert a window length in percent of the time span to ticks.

        The paper expresses every ω as a percentage of the dataset's total
        span ("we express the window length as a percentage of the total
        time span", §6.1).  The result is at least 1 tick for a non-empty
        log so that a non-zero percentage never degenerates to ω = 0.
        """
        if not isinstance(percent, (int, float)) or isinstance(percent, bool):
            raise TypeError("percent must be a number")
        if not 0 <= percent <= 100:
            raise ValueError(f"percent must be in [0, 100], got {percent}")
        window = int(self.time_span * percent / 100.0)
        if percent > 0 and self.time_span > 0:
            window = max(window, 1)
        return window

    def has_distinct_times(self) -> bool:
        """True when every interaction carries a unique time stamp.

        The paper assumes distinct time stamps (§2).  All algorithms in this
        library tolerate ties (ties simply cannot be chained into a single
        channel, matching the strict ``t1 < t2 < …`` of Definition 1), but
        generators produce distinct stamps to stay close to the paper.
        """
        return len({r.time for r in self._interactions}) == len(self._interactions)

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def static_edges(self) -> set[tuple[Node, Node]]:
        """The distinct ``(source, target)`` pairs — the flattened graph.

        This is the preprocessing the paper applies before handing the data
        to the static baselines (SKIM, PageRank, degree heuristics):
        "we convert the interaction network data into the required static
        graph format by removing repeated interactions and the time stamp".
        """
        return {(r.source, r.target) for r in self._interactions}

    def out_degrees(self) -> dict[Node, int]:
        """Distinct out-neighbour counts in the flattened graph."""
        neighbours: dict[Node, set[Node]] = {}
        for source, target, _ in self._interactions:
            neighbours.setdefault(source, set()).add(target)
        degrees = {node: 0 for node in self._nodes}
        for node, outs in neighbours.items():
            degrees[node] = len(outs)
        return degrees

    def restricted_to_window(self, start: int, end: int) -> "InteractionLog":
        """A new log with only interactions whose time lies in ``[start, end]``."""
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        return InteractionLog(
            (r for r in self._interactions if start <= r.time <= end),
            allow_self_loops=True,
        )

    def time_reversed(self) -> "InteractionLog":
        """The time-and-direction dual: ``(u, v, t) → (v, u, −t)``.

        Information channels are self-dual under this transform: ``u``
        reaches ``z`` through a channel of duration d ending at time e in
        the original log **iff** ``z`` reaches ``u`` through a channel of
        duration d in the reversed log (ending at −(e − d + 1)).  The dual
        turns "who can u influence" questions into "who could have
        influenced u" questions — see
        :func:`repro.core.streaming.influencers_of`.
        """
        return InteractionLog(
            (
                Interaction(r.target, r.source, -r.time)
                for r in self._interactions
            ),
            allow_self_loops=True,
        )

    def relabelled(self) -> tuple["InteractionLog", dict[Node, int]]:
        """A copy with nodes renamed to dense integers ``0 … n−1``.

        Returns ``(new_log, mapping)`` where ``mapping[original] = integer``.
        Integer labels make hashing and dict operations measurably faster for
        the large benchmark runs.
        """
        mapping = {node: i for i, node in enumerate(sorted(self._nodes, key=repr))}
        relabelled = InteractionLog(
            (
                Interaction(mapping[r.source], mapping[r.target], r.time)
                for r in self._interactions
            ),
            allow_self_loops=True,
        )
        return relabelled, mapping

    # ------------------------------------------------------------------
    # IO
    # ------------------------------------------------------------------
    def write(self, path_or_file: Union[str, io.TextIOBase]) -> None:
        """Write as whitespace-separated ``source target time`` lines."""
        if isinstance(path_or_file, str):
            with open(path_or_file, "w", encoding="utf-8") as handle:
                self._write_lines(handle)
        else:
            self._write_lines(path_or_file)

    def _write_lines(self, handle: io.TextIOBase) -> None:
        for source, target, time in self._interactions:
            handle.write(f"{source} {target} {time}\n")

    @classmethod
    def read(
        cls,
        path_or_file: Union[str, io.TextIOBase],
        int_nodes: bool = False,
    ) -> "InteractionLog":
        """Parse a whitespace-separated ``source target time`` file.

        Lines that are empty or start with ``#`` are skipped (SNAP-style
        comments).  When ``int_nodes`` is true, node columns are parsed as
        integers rather than kept as strings.
        """
        if isinstance(path_or_file, str):
            with open(path_or_file, "r", encoding="utf-8") as handle:
                return cls._read_lines(handle, int_nodes)
        return cls._read_lines(path_or_file, int_nodes)

    @classmethod
    def _read_lines(cls, handle: Iterable[str], int_nodes: bool) -> "InteractionLog":
        records = []
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ValueError(
                    f"line {line_number}: expected 'source target time', got {line!r}"
                )
            source: Node = int(parts[0]) if int_nodes else parts[0]
            target: Node = int(parts[1]) if int_nodes else parts[1]
            records.append(Interaction(source, target, int(parts[2])))
        return cls(records, allow_self_loops=True)
