"""Absolute pins: ring + gfence on multi-edge fabrics.

Every rank puts 4 KB to its right neighbour between two global fences
(the ``--scale`` workload) on 90 nodes of each fabric, sized so that
the runs span several SP groups, fat-tree pods and dragonfly groups
(including partial ones) and take multipath, jitter and gateway hops.
The final clock, kernel event count and routed packets are pinned as
absolute numbers: routing may be restructured freely, but any change
to route choice, RNG draws or link occupancy order moves them.
"""

import pytest

from repro.machine import Cluster
from repro.machine.config import SP_1998

NODES = 90
NBYTES = 4096

FABRICS = {
    # 23 leaves of 4 nodes, 12 pods of 2 leaves; 4 cores over 2 aggs.
    "fattree": SP_1998.replace(topology="fattree", fattree_leaf_size=4,
                               fattree_pod_leaves=2, fattree_agg_count=2,
                               fattree_core_count=4),
    # 45 routers of 2 nodes, 15 groups of 3 routers.
    "dragonfly": SP_1998.replace(topology="dragonfly",
                                 dragonfly_router_nodes=2,
                                 dragonfly_group_routers=3),
    # 23 groups of 4 nodes, 4 middle switches.
    "sp": SP_1998,
}

#: (virtual_us, events, packets_routed) per fabric.
PINS = {
    "fattree": (870.5910753796437, 30189, 4678),
    "dragonfly": (898.4531910038568, 30144, 4679),
    "sp": (784.4183725975771, 29935, 4679),
}


def _ring(task):
    lapi, mem = task.lapi, task.memory
    window = mem.malloc(NBYTES)
    src = mem.malloc(NBYTES)
    yield from lapi.gfence()
    yield from lapi.put((task.rank + 1) % task.size, NBYTES, window, src)
    yield from lapi.fence()
    yield from lapi.gfence()


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_ring_gfence_pins(fabric):
    cluster = Cluster(NODES, config=FABRICS[fabric], seed=7)
    cluster.run_job(_ring, stacks=("lapi",))
    observed = (cluster.sim.now, cluster.sim.events_processed,
                cluster.switch.packets_routed)
    assert observed == PINS[fabric]
