"""Synthetic interaction-network generators.

The paper evaluates on six real logs (email: Enron, Lkml; social: Facebook,
Higgs, Slashdot; Twitter: US-2016).  Those require network access and, for
the largest, tens of gigabytes — neither available here — so this module
generates *statistically analogous* streams (the substitution is documented
in DESIGN.md §2).  What the algorithms are sensitive to, and what the
generators therefore reproduce, is:

* heavy-tailed activity — a few prolific senders, many occasional ones;
* community structure — most interactions stay inside a cluster;
* repeated interactions between the same pairs (the defining feature of
  interaction networks vs. static graphs);
* reply dynamics / cascades — interactions that *answer* recent
  interactions, which is what creates long time-respecting channels;
* a fixed total time span with strictly increasing integer timestamps
  (the paper assumes distinct stamps, §2).

Three shapes are provided: :func:`email_network` (Enron/Lkml/Facebook-like),
:func:`cascade_network` (Higgs/US-2016-like retweet bursts) and
:func:`forum_network` (Slashdot-like threaded replies), plus a structureless
:func:`uniform_network` control.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from repro.core.interactions import Interaction, InteractionLog
from repro.utils.rng import RngLike, resolve_rng
from repro.utils.validation import require_positive, require_probability

__all__ = [
    "email_network",
    "cascade_network",
    "forum_network",
    "uniform_network",
]


def _validate_common(num_nodes: int, num_interactions: int, time_span: int) -> None:
    for name, value in (
        ("num_nodes", num_nodes),
        ("num_interactions", num_interactions),
        ("time_span", time_span),
    ):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int")
        require_positive(value, name)
    if num_nodes < 2:
        raise ValueError("num_nodes must be at least 2")


def _distinct_times(raw: Sequence[float], time_span: int) -> List[int]:
    """Map raw (possibly duplicated) float times to strictly increasing ints.

    Relative order and approximate spacing are preserved; output values live
    in ``[0, ~time_span + len(raw))``.
    """
    if not raw:
        return []
    low = min(raw)
    high = max(raw)
    width = high - low
    scale = (time_span - 1) / width if width > 0 else 0.0
    order = sorted(range(len(raw)), key=lambda i: raw[i])
    times = [0] * len(raw)
    previous = -1
    for position in order:
        value = int(round((raw[position] - low) * scale))
        if value <= previous:
            value = previous + 1
        times[position] = value
        previous = value
    return times


def _zipf_weights(count: int, exponent: float) -> List[float]:
    """Unnormalised Zipf weights ``1/rank**exponent``."""
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def _zipf_cumulative(count: int, exponent: float) -> List[float]:
    """Cumulative Zipf weights — lets ``random.choices`` draw in O(log n)
    instead of recomputing the O(n) prefix sums on every call."""
    return list(accumulate(_zipf_weights(count, exponent)))


def email_network(
    num_nodes: int,
    num_interactions: int,
    time_span: int,
    num_communities: int = 8,
    internal_probability: float = 0.8,
    reply_probability: float = 0.3,
    activity_exponent: float = 1.1,
    rng: RngLike = None,
) -> InteractionLog:
    """An email-like interaction stream (Enron/Lkml/Facebook analogue).

    Users belong to communities; each message picks a Zipf-active sender,
    then either replies to one of the sender's recently *received* messages
    (with ``reply_probability`` — this is what builds long time-respecting
    chains) or mails a member of its community (w.p.
    ``internal_probability``) or anyone.

    Parameters mirror the visible statistics of the paper's email datasets:
    long spans, many repeated pairs, heavy-tailed out-degree.
    """
    _validate_common(num_nodes, num_interactions, time_span)
    require_probability(internal_probability, "internal_probability")
    require_probability(reply_probability, "reply_probability")
    require_positive(activity_exponent, "activity_exponent")
    if isinstance(num_communities, bool) or not isinstance(num_communities, int):
        raise TypeError("num_communities must be an int")
    require_positive(num_communities, "num_communities")
    generator = resolve_rng(rng)

    communities = [generator.randrange(num_communities) for _ in range(num_nodes)]
    members: List[List[int]] = [[] for _ in range(num_communities)]
    for node, community in enumerate(communities):
        members[community].append(node)
    # Guarantee no community is a singleton pool for recipient choice.
    cum_weights = _zipf_cumulative(num_nodes, activity_exponent)
    population = list(range(num_nodes))

    # Recent inbox per node (most recent senders), bounded.
    inbox: List[List[int]] = [[] for _ in range(num_nodes)]
    inbox_cap = 8

    raw_times = sorted(generator.random() for _ in range(num_interactions))
    times = _distinct_times(raw_times, time_span)

    records: List[Interaction] = []
    for index in range(num_interactions):
        sender = generator.choices(population, cum_weights=cum_weights, k=1)[0]
        recipient: Optional[int] = None
        if inbox[sender] and generator.random() < reply_probability:
            recipient = generator.choice(inbox[sender])
        if recipient is None or recipient == sender:
            pool = members[communities[sender]]
            if len(pool) > 1 and generator.random() < internal_probability:
                recipient = generator.choice(pool)
            else:
                recipient = generator.randrange(num_nodes)
        attempts = 0
        while recipient == sender and attempts < 8:
            recipient = generator.randrange(num_nodes)
            attempts += 1
        if recipient == sender:
            recipient = (sender + 1) % num_nodes
        records.append(Interaction(sender, recipient, times[index]))
        box = inbox[recipient]
        box.append(sender)
        if len(box) > inbox_cap:
            del box[0]
    return InteractionLog(records)


def cascade_network(
    num_nodes: int,
    num_interactions: int,
    time_span: int,
    num_hubs: int = 0,
    burst_size_mean: float = 20.0,
    hop_decay: float = 0.7,
    rng: RngLike = None,
) -> InteractionLog:
    """A retweet-cascade stream (Higgs/US-2016 analogue).

    A scale-free follower base graph is grown by preferential attachment;
    activity arrives as *bursts*: a hub posts, a geometric number of
    followers re-share within a tight time window, and their followers may
    re-share in turn (probability decaying by ``hop_decay`` per hop).  The
    resulting log is short-spanned and extremely bursty, like the Higgs
    dataset (7 days, half a million interactions).

    ``num_hubs = 0`` derives a default of ``max(4, num_nodes // 100)``.
    """
    _validate_common(num_nodes, num_interactions, time_span)
    require_probability(hop_decay, "hop_decay")
    require_positive(burst_size_mean, "burst_size_mean")
    generator = resolve_rng(rng)
    if num_hubs == 0:
        num_hubs = max(4, num_nodes // 100)

    # Preferential-attachment follower lists: followers[v] = who re-shares v.
    followers: List[List[int]] = [[] for _ in range(num_nodes)]
    attachment: List[int] = []
    for node in range(num_nodes):
        links = min(3, node)
        for _ in range(links):
            target = attachment[generator.randrange(len(attachment))]
            if target != node:
                followers[target].append(node)
        attachment.extend([node] * (links + 1))

    hubs = sorted(
        range(num_nodes), key=lambda node: len(followers[node]), reverse=True
    )[:num_hubs]

    raw_events: List[Tuple[float, int, int]] = []  # (raw time, source, target)
    while len(raw_events) < num_interactions:
        root = hubs[generator.randrange(len(hubs))]
        burst_start = generator.random()
        # (node, hop, share time); re-share edges point child -> parent
        # (the Higgs convention: a retweet is an interaction from the
        # retweeter towards the original author).
        frontier = [(root, 0, burst_start)]
        share_probability = 1.0
        while frontier and len(raw_events) < num_interactions:
            node, hop, at = frontier.pop()
            share_probability = hop_decay**hop
            for follower in followers[node]:
                if generator.random() > share_probability:
                    continue
                delay = generator.expovariate(burst_size_mean) / 50.0
                follower_time = at + 1e-6 + delay
                raw_events.append((follower_time, follower, node))
                if len(raw_events) >= num_interactions:
                    break
                frontier.append((follower, hop + 1, follower_time))
        if not followers[root]:
            # Degenerate hub: emit a single post to a random node.
            other = generator.randrange(num_nodes)
            if other != root:
                raw_events.append((burst_start, other, root))

    raw_events = raw_events[:num_interactions]
    times = _distinct_times([event[0] for event in raw_events], time_span)
    records = [
        Interaction(source, target, times[index])
        for index, (_, source, target) in enumerate(raw_events)
    ]
    return InteractionLog(records)


def forum_network(
    num_nodes: int,
    num_interactions: int,
    time_span: int,
    thread_length_mean: float = 6.0,
    activity_exponent: float = 1.0,
    rng: RngLike = None,
) -> InteractionLog:
    """A threaded-reply stream (Slashdot analogue).

    Discussions are threads: a starter posts, then a geometric number of
    repliers join over time, each reply directed at an earlier participant
    of the same thread (usually a recent one).  Reply edges naturally chain
    backwards in conversation order, which yields moderate numbers of
    time-respecting channels between frequent posters.
    """
    _validate_common(num_nodes, num_interactions, time_span)
    require_positive(thread_length_mean, "thread_length_mean")
    generator = resolve_rng(rng)

    cum_weights = _zipf_cumulative(num_nodes, activity_exponent)
    population = list(range(num_nodes))

    raw_events: List[Tuple[float, int, int]] = []
    while len(raw_events) < num_interactions:
        thread_start = generator.random()
        participants = [generator.choices(population, cum_weights=cum_weights, k=1)[0]]
        length = 1 + min(
            int(generator.expovariate(1.0 / thread_length_mean)), num_nodes
        )
        at = thread_start
        for _ in range(length):
            if len(raw_events) >= num_interactions:
                break
            replier = generator.choices(population, cum_weights=cum_weights, k=1)[0]
            # Prefer replying to a recent participant.
            target_pool = participants[-4:]
            target = target_pool[generator.randrange(len(target_pool))]
            if replier == target:
                continue
            at += generator.random() * 1e-3
            raw_events.append((at, replier, target))
            participants.append(replier)

    raw_events = raw_events[:num_interactions]
    times = _distinct_times([event[0] for event in raw_events], time_span)
    records = [
        Interaction(source, target, times[index])
        for index, (_, source, target) in enumerate(raw_events)
    ]
    return InteractionLog(records)


def uniform_network(
    num_nodes: int,
    num_interactions: int,
    time_span: int,
    rng: RngLike = None,
) -> InteractionLog:
    """Structureless control: uniformly random pairs, uniform times."""
    _validate_common(num_nodes, num_interactions, time_span)
    generator = resolve_rng(rng)
    raw_times = [generator.random() for _ in range(num_interactions)]
    times = _distinct_times(raw_times, time_span)
    records: List[Interaction] = []
    for index in range(num_interactions):
        source = generator.randrange(num_nodes)
        target = generator.randrange(num_nodes)
        while target == source:
            target = generator.randrange(num_nodes)
        records.append(Interaction(source, target, times[index]))
    return InteractionLog(records)
