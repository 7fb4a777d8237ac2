"""Soft-consistency reporting (§2.4.3).

"Instead of maintaining a 'strong' network consistency ... the nodes
can send to the MRM periodical updates of their resource availability
which also serve as a 'keep-alive' mechanism.  ...  This soft
consistency protocol leads to lower bandwidth utilization and better
scalability."

Each node runs one reporter process: every ``update_interval`` (with a
per-host phase offset so the fleet doesn't synchronize) it pushes its
:class:`~repro.registry.view.NodeView` to every replica of its group's
MRM as a oneway call.  Loss is tolerated — the next report repairs the
view; silence beyond the MRM's timeout means "down".
"""

from __future__ import annotations

from typing import Sequence

from repro.orb.ior import IOR
from repro.registry.mrm import MRM_IFACE, MrmConfig
from repro.registry.view import NodeView
from repro.sim.kernel import Interrupt

METER = "registry.soft"


class SoftStateReporter:
    """Periodic, unacknowledged view reports from one node."""

    def __init__(self, node, mrm_iors: Sequence[IOR],
                 config: MrmConfig, phase: float = 0.0,
                 meter: str = METER) -> None:
        self.node = node
        self.mrm_iors = list(mrm_iors)
        self.config = config
        self.phase = phase % config.update_interval
        self.meter = meter
        self.reports_sent = 0
        self._proc = None
        self._start()
        node.host.on_crash.append(self._on_crash)
        node.host.on_restart.append(self._on_restart)

    def _start(self) -> None:
        self._proc = self.node.env.process(self._loop())

    def _on_crash(self, _host) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("host crashed")
        self._proc = None

    def _on_restart(self, _host) -> None:
        # A reconnecting node must re-register with the MRM *now*, not
        # one phase offset later: the paper requires graceful
        # re-connections, and until the first report lands the MRM still
        # believes the node is down.  Report immediately, then resume
        # the periodic loop.
        self.send_now()
        self._start()

    def send_now(self) -> None:
        """One immediate report (used on startup and reconnection).

        Reports are true fire-and-forget: sent with
        ``response_expected=False`` and no pending-reply entry, so a
        reporter never accumulates client-side state no matter how many
        reports it sends to how many dead replicas.
        """
        view = NodeView.collect(self.node).to_value()
        report_op = MRM_IFACE.operations["report"]
        for mrm in self.mrm_iors:
            self.node.orb.send_oneway(mrm, report_op,
                                      (self.node.host_id, view),
                                      meter=self.meter)
        self.reports_sent += 1

    def _loop(self):
        try:
            if self.phase:
                yield self.node.env.timeout(self.phase)
            while True:
                self.send_now()
                yield self.node.env.timeout(self.config.update_interval)
        except Interrupt:
            return

    def retarget(self, mrm_iors: Sequence[IOR]) -> None:
        """Point reports at a new MRM replica set (after promotion)."""
        self.mrm_iors = list(mrm_iors)
