"""Runtime invariant contracts for the IRS data structures.

The paper's correctness argument leans on structural invariants that
live between the lines of the code:

* **λ-map minimality/monotonicity** (Definition 4, Lemma 2): the exact
  summary ``ϕω(u)`` maps each reachable node to the *minimal* channel
  end time, and during the reverse scan every stored λ is ≥ the time
  stamp currently being processed.
* **vHLL dominance pruning** (§3.2.2, Lemma 4): every sketch cell is a
  Pareto frontier — ``(t, ρ)`` pairs sorted by strictly increasing ``t``
  *and* strictly increasing ρ.
* **time-sortedness** (Definition 2): interaction sequences are scanned
  in strict time order; channels never chain tied stamps.

This module provides checkers for those invariants plus an
:func:`invariant` decorator that wires them into the update paths of
:class:`~repro.core.summary.IRSSummary`,
:class:`~repro.core.exact.ExactIRS`,
:class:`~repro.sketch.vhll.VersionedHLL` and the streaming indexes.

Cost model
----------
Contracts are **zero-cost unless** the environment variable
``REPRO_DEBUG_CONTRACTS`` is set to a non-empty value other than ``0``
*at import time*: the decorator then returns the wrapped function; with
contracts disabled it returns the original function object unchanged
(identity fast-path), so production call sites pay nothing — not even
an attribute lookup.  Flip the flag on for test and debugging runs::

    REPRO_DEBUG_CONTRACTS=1 python -m pytest

The checkers themselves are plain functions and can always be called
directly, regardless of the flag.

This module must stay dependency-free (standard library only): the
algorithm modules import it, so importing anything from ``repro.core``
or ``repro.sketch`` here would create a cycle.  Checkers therefore duck
-type against the documented internal layout of the structures they
verify.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Iterable, Optional, TypeVar

__all__ = [
    "CONTRACTS_ENV",
    "ContractViolation",
    "contracts_enabled",
    "invariant",
    "check_lambda_map",
    "check_summary_merge_bound",
    "check_vhll_dominance",
    "check_time_sorted",
    "post_summary_add",
    "post_summary_merge",
    "post_vhll_mutation",
    "post_exact_apply",
    "post_approx_apply",
    "post_streaming_process",
    "post_live_dual_apply",
]

CONTRACTS_ENV = "REPRO_DEBUG_CONTRACTS"

FuncT = TypeVar("FuncT", bound=Callable[..., Any])


class ContractViolation(AssertionError):
    """An internal invariant of an IRS data structure was broken."""


def contracts_enabled() -> bool:
    """True when ``REPRO_DEBUG_CONTRACTS`` requests runtime checking."""
    return os.environ.get(CONTRACTS_ENV, "") not in ("", "0")


#: Snapshot taken at import time; the identity fast-path of
#: :func:`invariant` keys off this so that decorated methods carry no
#: wrapper at all in production processes.
_ENABLED_AT_IMPORT = contracts_enabled()


def invariant(post: Callable[..., None]) -> Callable[[FuncT], FuncT]:
    """Attach a post-condition checker to a method.

    ``post(instance, args, kwargs, result)`` runs after every call when
    contracts are enabled; with contracts disabled the decorator is the
    identity and returns the undecorated function object.
    """
    def decorate(func: FuncT) -> FuncT:
        if not _ENABLED_AT_IMPORT:
            return func

        @functools.wraps(func)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = func(self, *args, **kwargs)
            post(self, args, kwargs, result)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


# ----------------------------------------------------------------------
# Checkers (callable directly, flag or no flag)
# ----------------------------------------------------------------------


def _fail(message: str) -> None:
    raise ContractViolation(message)


def check_lambda_map(summary: Any, min_time: Optional[int] = None) -> None:
    """Verify an :class:`IRSSummary`'s ``{node → λ}`` map is well-formed.

    Every λ must be a plain int, and — during a reverse scan that has
    advanced to ``min_time`` — no stored channel can end before the
    interaction currently being processed (monotonicity: entries only
    ever shrink towards, never below, the scan frontier).
    """
    entries = summary._entries
    for node, end_time in entries.items():
        if isinstance(end_time, bool) or not isinstance(end_time, int):
            _fail(f"λ-map value for node {node!r} is {end_time!r}, expected int")
        if min_time is not None and end_time < min_time:
            _fail(
                f"λ-map monotonicity violated: entry ({node!r}, {end_time}) ends "
                f"before the scan frontier t={min_time}"
            )


def check_summary_merge_bound(
    summary: Any,
    other: Any,
    start_time: int,
    window: int,
    skip: Any = None,
) -> None:
    """Verify λ-minimality after ``Merge(ϕ(u), ϕ(v), t, ω)``.

    Every entry of ``other`` that fits the duration budget must now be
    present in ``summary`` with an equal-or-smaller λ — the ``↓``
    operator of Lemma 2 keeps per-target minima, so merging can never
    *raise* a λ or drop an in-budget channel.
    """
    deadline = start_time + window
    for node, end_time in other._entries.items():
        if end_time >= deadline or node == skip:
            continue
        kept = summary._entries.get(node)
        if kept is None:
            _fail(
                f"merge dropped in-budget channel to {node!r} "
                f"(λ={end_time}, deadline={deadline})"
            )
        elif kept > end_time:
            _fail(
                f"λ-minimality violated for {node!r}: kept λ={kept} although the "
                f"merged summary offered λ={end_time}"
            )


def check_vhll_dominance(sketch: Any) -> None:
    """Verify every vHLL cell is a dominance-pruned Pareto frontier.

    In list order the ``(t, ρ)`` pairs must have strictly increasing
    ``t`` *and* strictly increasing ρ (paper §3.2.2): equal or decreasing
    values in either coordinate mean a dominated pair survived pruning
    or the time sort broke.  The sparse cell map must hold only filled
    cells: a stored empty list or a key outside ``[0, β)`` is corruption.
    """
    for index, cell in sketch._cells.items():
        if not isinstance(index, int) or not 0 <= index < sketch._m:
            _fail(f"vHLL cell key {index!r} is outside [0, {sketch._m})")
        if not cell:
            _fail(f"vHLL cell {index} is stored as an empty list")
        previous_t: Optional[int] = None
        previous_r: Optional[int] = None
        for t, r in cell:
            if previous_t is not None:
                if t <= previous_t:
                    _fail(
                        f"vHLL cell {index} is not time-sorted: "
                        f"t={t} follows t={previous_t}"
                    )
                if r <= previous_r:
                    _fail(
                        f"vHLL cell {index} keeps a dominated pair: "
                        f"(t={t}, ρ={r}) after (t={previous_t}, ρ={previous_r})"
                    )
            previous_t, previous_r = t, r


def check_time_sorted(times: Iterable[int], strict: bool = False) -> None:
    """Verify a time sequence is non-decreasing (or strictly increasing)."""
    previous: Optional[int] = None
    for time in times:
        if previous is not None and (time <= previous if strict else time < previous):
            order = "strictly increasing" if strict else "non-decreasing"
            _fail(f"time sequence is not {order}: {time} follows {previous}")
        previous = time


# ----------------------------------------------------------------------
# Post-condition hooks wired into the update paths
# ----------------------------------------------------------------------


def _argument(args: tuple, kwargs: dict, position: int, name: str, default: Any = None) -> Any:
    if position < len(args):
        return args[position]
    return kwargs.get(name, default)


def post_summary_add(self: Any, args: tuple, kwargs: dict, result: Any) -> None:
    """After ``Add(ϕ(u), (v, t))`` the stored λ is minimal w.r.t. ``t``."""
    node = _argument(args, kwargs, 0, "node")
    end_time = _argument(args, kwargs, 1, "end_time")
    kept = self._entries.get(node)
    if kept is None or kept > end_time:
        _fail(
            f"Add(ϕ, ({node!r}, {end_time})) left λ={kept!r}; expected a "
            f"stored minimum ≤ {end_time}"
        )


def post_summary_merge(self: Any, args: tuple, kwargs: dict, result: Any) -> None:
    """After ``Merge(ϕ(u), ϕ(v), t, ω)`` minimality holds for the budget."""
    other = _argument(args, kwargs, 0, "other")
    start_time = _argument(args, kwargs, 1, "start_time")
    window = _argument(args, kwargs, 2, "window")
    skip = _argument(args, kwargs, 3, "skip")
    check_summary_merge_bound(self, other, start_time, window, skip)


def post_vhll_mutation(self: Any, args: tuple, kwargs: dict, result: Any) -> None:
    """After any sketch update, every cell is still a Pareto frontier."""
    check_vhll_dominance(self)


def post_exact_apply(self: Any, args: tuple, kwargs: dict, result: Any) -> None:
    """After ``ExactIRS._apply(u, v, t, ϕ(v))`` (Algorithm 2 body).

    The updated ϕ(u) never contains u itself, all channels end at or
    after the scan frontier t, and the direct hop was recorded with the
    minimal end time λ(u, v) = t.
    """
    source = _argument(args, kwargs, 0, "source")
    target = _argument(args, kwargs, 1, "target")
    time = _argument(args, kwargs, 2, "time")
    summary = self._summaries.get(source)
    if summary is None:
        return
    if source in summary._entries:
        _fail(f"ϕ({source!r}) contains its own node after processing ({source!r}, {target!r}, {time})")
    check_lambda_map(summary, min_time=time)
    if source != target and self._window > 0:
        direct = summary._entries.get(target)
        if direct != time:
            _fail(
                f"direct hop ({source!r}, {target!r}, {time}) recorded λ={direct!r}; "
                f"expected the minimal end time {time}"
            )


def post_approx_apply(self: Any, args: tuple, kwargs: dict, result: Any) -> None:
    """After ``ApproxIRS._apply`` the touched sketch keeps its invariants."""
    source = _argument(args, kwargs, 0, "source")
    time = _argument(args, kwargs, 2, "time")
    sketch = self._summaries.get(source)
    if sketch is None:
        return
    check_vhll_dominance(sketch)
    for index, cell in sketch._cells.items():
        if cell[0][0] < time:
            _fail(
                f"sketch of {source!r} cell {index} holds a pair ending at "
                f"t={cell[0][0]}, before the scan frontier t={time}"
            )


def post_streaming_process(self: Any, args: tuple, kwargs: dict, result: Any) -> None:
    """After a streaming ``process(u, v, t)`` the dual frontier equals −t."""
    time = _argument(args, kwargs, 2, "time")
    dual_last = self._dual._last_time
    if dual_last != -time:
        _fail(
            f"streaming dual frontier is {dual_last!r} after processing t={time}; "
            f"expected {-time}"
        )


def post_live_dual_apply(self: Any, args: tuple, kwargs: dict, result: Any) -> None:
    """After the live dual's ``_apply`` (:mod:`repro.core.streaming`).

    Algorithm 2's post-condition holds, every reported change is stored
    as reported (a start is a negated dual λ), and the source's λ bound
    still covers its whole summary.
    """
    post_exact_apply(self, args, kwargs, result)
    source = _argument(args, kwargs, 0, "source")
    summary = self._summaries.get(source)
    if summary is None or not summary._entries:
        return
    entries = summary._entries
    for influencer, start, _ in self.changes or ():
        if entries.get(influencer) != -start:
            _fail(
                f"live dual reported ({influencer!r}, start={start}) but ϕ({source!r}) "
                f"holds λ={entries.get(influencer)!r}"
            )
    ceiling = self._ceilings.get(source)
    highest = max(entries.values())
    if ceiling is None or ceiling < highest:
        _fail(
            f"live dual λ bound of {source!r} is {ceiling!r}, below its "
            f"largest stored λ {highest}"
        )
