"""Full verification sweep over H3 (order 120).

Runs the P1, P2, P3 and unimodality checks, the strategy cross-validation
and the longest-element identity, printing each report.  This is the
desk-scale version of the batch run the CLI performs with checkpointing:

    klbasis positivity --group H3 --outdir out/
"""

import time

from klbasis.checks import (
    check_p1,
    check_p2,
    check_p3,
    check_strategy_invariance,
    check_w0_identity,
)
from klbasis.coxeter import group_from_name
from klbasis.klbase import KLStore, build_wgraph

start = time.perf_counter()
g = group_from_name("H3")
store = KLStore(g)
wg = build_wgraph(store)
print(f"built {g.name} and its W-graph in {time.perf_counter()-start:.2f}s "
      f"({wg.edge_count()} edges)\n")

for report in (
    check_p1(store),
    check_p2(store),
    check_p3(wg),
    check_w0_identity(store, wg),
    check_strategy_invariance(wg),
):
    print(report.to_text())

print(f"\ntotal {time.perf_counter()-start:.1f}s")
