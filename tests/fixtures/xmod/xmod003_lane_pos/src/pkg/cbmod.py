"""Wall clock reachable only through lane-scheduled callbacks (XMOD003).

``Lane.call(fn, *args)`` has the callback *first*; nothing else in this
package calls ``_tick`` or ``Ticker._fire``, so both findings depend on the
lane form being read as scheduling.
"""

from pkg import helpers


def register(sim) -> None:
    sim.lane(0.5).call(_tick, 1)


def _tick(count):
    return helpers.stamp()  # violation: wall clock two modules away


class Ticker:
    def __init__(self, sim) -> None:
        self._lane = sim.lane(0.25)
        self._epoch = 0

    def start(self) -> None:
        self._lane.call(self._fire, self._epoch)

    def _fire(self, epoch):
        return helpers.stamp()  # violation: same, via a stored lane
