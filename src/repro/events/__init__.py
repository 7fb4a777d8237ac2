"""Asynchronous event infrastructure: pub/sub bus, batching, fan-out.

The paper's "network as repository" architecture runs on continuous
background dissemination — federation gossip, metrics — none of which
needs request/reply semantics.  This package gives wide fan-outs a
batched asynchronous spine above the ORB's oneway pipeline:

- :class:`~repro.events.bus.EventBus` — per-node topic pub/sub with
  per-subscriber worker pools and bounded, drop-oldest buffers;
- :class:`~repro.events.batch_writer.BatchWriter` — size/age-threshold
  batching used by subscriptions and remote forwarders;
- :class:`~repro.events.worker.WorkerPool` — bounded asynchronous
  handler execution;
- :class:`~repro.events.remote.BatchForwarder` — batches become single
  oneway calls (stacking on the ORB's GIOP pipelining underneath);
- :mod:`~repro.events.export` — metrics snapshots over the bus to a
  central collector.
"""

from repro.events.batch_writer import BatchWriter
from repro.events.bus import Event, EventBus, Subscription
from repro.events.remote import BatchForwarder, FanoutForwarder
from repro.events.worker import WorkerPool

__all__ = [
    "BatchForwarder",
    "BatchWriter",
    "Event",
    "EventBus",
    "FanoutForwarder",
    "Subscription",
    "WorkerPool",
]
