"""The persistent worker pool of parallel capacity probes.

A :class:`CapacityProbePool` runs the speculative probes of
:func:`repro.serving.capacity.max_capacity_under_slo`
(``parallel_probes > 1``) in worker processes that share one warm
memoized device model.  It lives apart from the search so that a
sequential search never loads the process-pool machinery; it is also
importable from :mod:`repro.serving.capacity`.
"""

from __future__ import annotations

from repro.analysis.sweep import SweepPool
from repro.perf.baselines import DeviceModel
from repro.serving.capacity import _install_worker_device


class CapacityProbePool(SweepPool):
    """A :class:`~repro.analysis.sweep.SweepPool` for capacity probes.

    The workers are initialized once with a shared memoized device
    model, so probe tasks ship only the (small) per-search context and
    every probe of every search warms the same cache.  Reusable across
    the searches of a whole capacity study as long as they target the
    same device.
    """

    def __init__(self, device: DeviceModel, workers: int = 3) -> None:
        super().__init__(workers, initializer=_install_worker_device,
                         initargs=(device,))
        # the unwrapped device the workers were initialized with: probes
        # for any other device must be rejected, not silently run on
        # this one
        self._device = getattr(device, "inner", device)

    def check_device(self, device: DeviceModel) -> None:
        """Reject probes whose device differs from the workers'."""
        if getattr(device, "inner", device) is not self._device:
            raise ValueError(
                "this CapacityProbePool was initialized for a different "
                "device; build the pool with probe_pool(device) from the "
                "same device object the search uses")


def probe_pool(device: DeviceModel, workers: int = 3) -> CapacityProbePool:
    """A persistent probe pool sharing one warm device model."""
    return CapacityProbePool(device, workers)
