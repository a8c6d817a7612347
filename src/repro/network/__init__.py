"""Flow-level network + processor-sharing host simulator.

Our substitute for the paper's physical CMU testbed: hosts execute work
under processor sharing (yielding honest UNIX-style load averages), and
transfers are flows whose instantaneous rates follow max-min fair sharing
across directional link channels.  See DESIGN.md §2 for why this
substitution preserves the quantities the selection algorithms consume.
"""

from .cluster import Cluster
from .fabric import ChannelId, Fabric, Flow
from .fairshare import max_min_fair, routed_fair_rates
from .host import ComputeTask, Host, HostDownError

__all__ = [
    "ChannelId",
    "Cluster",
    "ComputeTask",
    "Fabric",
    "Flow",
    "Host",
    "HostDownError",
    "max_min_fair",
    "routed_fair_rates",
]
