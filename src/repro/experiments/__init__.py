"""One module per paper table/figure, plus shared harnesses.

Each module exposes ``run_spec(spec) -> TrialResult`` — the unified
spec→result contract defined in :mod:`repro.experiments.api` — as its one
entry point; ``python -m repro <name>`` is the one command line.  Results
are structured data with a ``render()`` method that prints the same
rows/series the paper reports, plus the summary lines that check the
paper's claims; specs carry the shared vocabulary (seeds, duration, town,
workers, transport, contention) so the benchmark harness and the CLI can
trade accuracy for time uniformly.  Experiments that tabulate a shared set
of drives (the Table 2 configuration suite, the join-timeout grid) expose
that step as a classmethod on their result, e.g.
``Table2Result.from_suite(suite)``, so one set of drives can feed several
artifacts.

Importing this package registers every experiment in
:data:`repro.experiments.api.REGISTRY` (registration happens at module
import, in the order below).
"""

from . import api
from . import (
    ap_density,
    appendix_knapsack,
    common,
    dense_town,
    fig2_join_validation,
    fig3_beta_sensitivity,
    fig4_optimal_schedule,
    fig5_association,
    fig6_dhcp,
    fig7_tcp_fraction,
    fig8_tcp_dwell,
    fig10_micro,
    fig11_13_cdfs,
    fig14_join_timeouts,
    fig15_join_policies,
    fig16_17_usability,
    fault_sweep,
    fleet,
    speed_sweep,
    table1_switch_latency,
    table2_configs,
    table3_dhcp_failures,
    table4_channels,
    timeout_grid,
    town_runs,
    transport_matrix,
)
from . import channel_assign  # last, so `python -m repro list` ends with it

__all__ = [
    "api",
    "ap_density",
    "appendix_knapsack",
    "channel_assign",
    "common",
    "dense_town",
    "fig2_join_validation",
    "fig3_beta_sensitivity",
    "fig4_optimal_schedule",
    "fig5_association",
    "fig6_dhcp",
    "fig7_tcp_fraction",
    "fig8_tcp_dwell",
    "fig10_micro",
    "fig11_13_cdfs",
    "fig14_join_timeouts",
    "fig15_join_policies",
    "fig16_17_usability",
    "fault_sweep",
    "fleet",
    "speed_sweep",
    "table1_switch_latency",
    "table2_configs",
    "table3_dhcp_failures",
    "table4_channels",
    "timeout_grid",
    "town_runs",
    "transport_matrix",
]
