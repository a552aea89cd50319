"""The paper's experiments: one table of rows, one module per cell or view.

:mod:`repro.experiments.catalog` holds one ``Experiment`` row per paper
view and the one driver, ``run(name, base, campaign=...)``: the row's
``cells`` span the grid, a :class:`~repro.runner.Campaign` runs it (one
:class:`~repro.runner.RunSpec` per cell), the row's ``view`` folds the
results into an object with ``format()``.  What the rows point at:

Cell functions with their configs/results (testbed / torus / fabric):

* :mod:`repro.experiments.fig1_convergence` — Fig. 1
* :mod:`repro.experiments.fig4_traffic_shifting` — Fig. 4
* :mod:`repro.experiments.fig6_fairness` — Fig. 6
* :mod:`repro.experiments.fig7_rate_compensation` — Fig. 7
* :mod:`repro.experiments.fattree_eval` — the §5.2 fat-tree cell
* :mod:`repro.experiments.workload_matrix` — workload and incast-sweep cells

Each figure cell is a scene constructor, ``build_scene(config)``, plus
the reduction of its series: :mod:`repro.experiments.scene` holds the
frozen ``Scene`` (topology, flows, a script of timed actions, sampled
columns, horizon) and the one ``play(scene)`` that runs it.  The
fat-tree and workload cells drive :mod:`repro.traffic` instead.

Views over the shared fat-tree grid (``view(grid, CampaignResult)``):

* :mod:`repro.experiments.table1_goodput`, :mod:`...fig8_goodput_dist`,
  :mod:`...table2_coexistence`, :mod:`...fig9_jct_cdf` (Fig. 9 and
  Table 3), :mod:`...fig10_rtt`, :mod:`...fig11_utilization`

Every config carries a ``time_scale`` or ``duration`` knob so tests can
run seconds-long versions while benches run the paper-scaled ones; see
DESIGN.md §4 for the scaling rules and §7 for the runner contract.
"""

from repro.experiments import reporting

__all__ = ["reporting"]
