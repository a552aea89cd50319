"""The experiment table: one row per paper view, one path that runs them.

The §5.2 evaluation is one fat-tree grid read seven ways, plus the
testbed/torus figures and the workload/fluid extensions.  Each reading
is an :class:`Experiment` row: the runner ``kind`` and config dataclass
of its cells, how a base config spans the grid (``cells``) and how the
results fold into the printed table (``view``).  :func:`run` is the
only driver::

    from repro.experiments.catalog import run
    from repro.runner import Campaign

    table = run("table1", FatTreeScenario(duration=0.3),
                campaign=Campaign(jobs=4), patterns=("permutation",))
    print(table.format())

The CLI (:mod:`repro.cli`) builds its subcommands, ``list`` and dispatch
from the same rows: a flag whose dest is a field of the row's config
feeds the base config, any other dest is a sweep axis of ``cells``, and
a value of ``None`` means "not given".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import (
    fig8_goodput_dist,
    fig9_jct_cdf,
    fig10_rtt,
    fig11_utilization,
    table1_goodput,
    table2_coexistence,
    workload_matrix,
)
from repro.experiments.fattree_eval import PATTERNS, FatTreeScenario
from repro.experiments.fig1_convergence import Fig1Config
from repro.experiments.fig4_traffic_shifting import Fig4Config
from repro.experiments.fig6_fairness import Fig6Config
from repro.experiments.fig7_rate_compensation import Fig7Config
from repro.experiments.fig10_rtt import FIG10_SCHEMES
from repro.experiments.table1_goodput import TABLE1_SCHEMES, scenarios_for
from repro.fluid.backend import TOPOLOGIES as FLUID_TOPOLOGIES, FluidScenario
from repro.fluid.laws import FLUID_SCHEMES
from repro.fluid.solver import SOLVERS as FLUID_SOLVERS
from repro.mptcp.coupling import parse_scheme_spec
from repro.runner import Campaign, CampaignResult, RunSpec
from repro.workloads.arrivals import ARRIVAL_NAMES
from repro.workloads.cdf import WORKLOAD_NAMES
from repro.workloads.partition_aggregate import DEFAULT_RESPONSE_BYTES

#: One CLI flag: the option string and its ``add_argument`` keywords.
Flag = Tuple[str, Dict[str, Any]]
Schemes = Sequence[Tuple[str, int]]


def flag(option: str, **kwargs: Any) -> Flag:
    return option, kwargs


def dest_of(flag: Flag) -> str:
    """The namespace attribute argparse stores a flag under."""
    option, kwargs = flag
    return kwargs.get("dest", option.lstrip("-").replace("-", "_"))


def _one_cell(base: Any) -> List[Any]:
    return [base]


def _the_cell(configs: Sequence[Any], outcome: CampaignResult) -> Any:
    return outcome.values[0]


@dataclass(frozen=True)
class Experiment:
    """One paper view: a grid of same-kind cells and the table they fold into."""

    name: str
    help: str
    #: Runner kind of every cell (:mod:`repro.runner.registry`).
    kind: str
    #: The frozen config dataclass of a cell; ``config()`` is the default base.
    config: type
    flags: Tuple[Flag, ...]
    #: ``cells(base, **axes)`` -> the grid's configs, in table order
    #: (default: the base config is the one cell).
    cells: Callable[..., List[Any]] = _one_cell
    #: ``view(configs, CampaignResult)`` -> an object with ``format()``
    #: (default: the one cell's own result).
    view: Callable[[Sequence[Any], CampaignResult], Any] = _the_cell

    def grid(self, base: Any = None, **axes: Any) -> List[Any]:
        return self.cells(self.config() if base is None else base, **axes)

    def parse(self, values: Mapping[str, Any]) -> Tuple[Any, Dict[str, Any]]:
        """Split parsed flag values into (base config, sweep axes)."""
        dests = map(dest_of, self.flags)
        given = {d: values[d] for d in dests if values[d] is not None}
        fields = {field.name for field in dataclasses.fields(self.config)}
        base = self.config(**{d: v for d, v in given.items() if d in fields})
        return base, {d: v for d, v in given.items() if d not in fields}

    def run(
        self, configs: Sequence[Any], campaign: Campaign
    ) -> Tuple[Any, CampaignResult]:
        """The :meth:`grid`'s configs -> campaign -> view; also returns the
        per-cell metrics."""
        outcome = campaign.run(RunSpec(self.kind, config) for config in configs)
        return self.view(configs, outcome), outcome


def run(
    name: str, base: Any = None, campaign: Optional[Campaign] = None, **axes: Any
) -> Any:
    """Run experiment ``name`` and return its view (a result with ``format()``).

    ``base`` defaults to the row's default config, ``campaign`` to
    ``Campaign()`` (serial, process-wide cache); ``axes`` are the
    keywords of the row's ``cells`` (``schemes=``, ``patterns=``, ...).
    """
    row = EXPERIMENTS[name]
    return row.run(row.grid(base, **axes), campaign or Campaign())[0]


def _scheme_cells(
    base: FatTreeScenario, schemes: Schemes = FIG10_SCHEMES
) -> List[FatTreeScenario]:
    """The shared grid's slice at the base's own pattern (Figs. 8/10/11)."""
    return scenarios_for(base, schemes, (base.pattern,))


# ----------------------------------------------------------------------
# Flags shared between rows
# ----------------------------------------------------------------------


def pattern_flag(option: str = "--pattern", **kwargs: Any) -> Flag:
    """The one ``--pattern(s)`` definition: values checked at parse time."""
    return flag(option, choices=PATTERNS, **kwargs)


K = flag("--k", type=int, default=4, help="fat-tree arity")
SEED = flag("--seed", type=int, default=1)
BETA = flag("--beta", type=float, default=4.0)
PATTERN = pattern_flag(default="permutation")


def _threshold(default: int) -> Flag:
    return flag("--threshold", dest="marking_threshold", metavar="THRESHOLD",
                type=int, default=default, help="marking K")


def _schemes(help: str) -> Flag:
    return flag("--schemes", nargs="+", type=parse_scheme_spec,
                metavar="SCHEME[-N]", default=list(workload_matrix.MATRIX_SCHEMES), help=help)


def _fattree(name: str, help: str, cells, view, *flags: Flag) -> Experiment:
    """A §5.2 row: one more reading of the shared fat-tree grid."""
    shared = (flag("--duration", type=float, default=0.4), K, SEED)
    return Experiment(name, help, "fattree", FatTreeScenario, shared + flags, cells, view)


_ROWS = (
    Experiment(
        "fig1", "Fig. 1: convergence on one bottleneck", "fig1", Fig1Config,
        (
            flag("--scheme", choices=("dctcp", "bos"), default="dctcp"),
            _threshold(10),
            flag("--beta", type=float, default=2.0),
            flag("--interval", type=float, default=1.0,
                 help="seconds between joins/leaves (paper: 5)"),
        ),
    ),
    Experiment(
        "fig4", "Fig. 4: traffic shifting testbed", "fig4", Fig4Config,
        (BETA, flag("--time-scale", type=float, default=0.2)),
    ),
    Experiment(
        "fig6", "Fig. 6: fairness vs subflow count", "fig6", Fig6Config,
        (BETA, flag("--time-scale", type=float, default=0.2)),
    ),
    Experiment(
        "fig7", "Fig. 7: torus rate compensation", "fig7", Fig7Config,
        (BETA, _threshold(20), flag("--time-scale", type=float, default=0.05)),
    ),
    _fattree(
        "table1", "Table 1: goodput per scheme per pattern",
        scenarios_for, table1_goodput.view,
        pattern_flag("--patterns", nargs="+", default=list(PATTERNS)),
    ),
    _fattree(
        "table2", "Table 2: XMP coexistence",
        table2_coexistence.cells, table2_coexistence.view,
    ),
    _fattree(
        "fig8", "Fig. 8: goodput distribution by category",
        partial(_scheme_cells, schemes=TABLE1_SCHEMES), fig8_goodput_dist.view,
        PATTERN,
    ),
    _fattree(
        "jct", "Fig. 9 / Table 3: incast job completion times",
        partial(scenarios_for, patterns=("incast",)), fig9_jct_cdf.view,
    ),
    _fattree(
        "rtt", "Fig. 10: RTT by category",
        _scheme_cells, fig10_rtt.view, PATTERN,
    ),
    _fattree(
        "utilization", "Fig. 11: utilization by layer",
        _scheme_cells, fig11_utilization.view, PATTERN,
    ),
    Experiment(
        "workload",
        "workload matrix: empirical flow sizes, open-loop arrivals, "
        "FCT/queue-depth by load 0.1-0.9",
        "workload", workload_matrix.WorkloadScenario,
        (
            flag("--workload", default="websearch", choices=WORKLOAD_NAMES,
                 help="flow-size distribution (default: websearch)"),
            flag("--arrival", default="poisson", choices=ARRIVAL_NAMES,
                 help="interarrival process (default: poisson)"),
            flag("--loads", nargs="+", type=float, default=list(workload_matrix.MATRIX_LOADS),
                 metavar="LOAD",
                 help="offered loads as a fraction of fabric capacity "
                      "(default: 0.1 .. 0.9)"),
            _schemes("schemes with subflow counts, e.g. xmp-2 dctcp "
                     "lia-2 (default: xmp-2 dctcp-1 lia-2)"),
            flag("--duration", type=float, default=0.1),
            flag("--size-scale", type=float, default=1.0,
                 help="multiplier on sampled flow sizes"),
            flag("--elephants", dest="background_elephants", metavar="ELEPHANTS",
                 type=int, default=0, help="long-lived background bulk flows"),
            K, SEED,
        ),
        cells=workload_matrix.matrix_cells, view=workload_matrix.matrix_view,
    ),
    Experiment(
        "incast",
        "incast sweep: partition-aggregate fan-in vs JCT and goodput "
        "collapse",
        "incast_sweep", workload_matrix.IncastSweepScenario,
        (
            flag("--fan-ins", nargs="+", type=int, default=list(workload_matrix.SWEEP_FAN_INS),
                 metavar="N",
                 help="workers per partition-aggregate round "
                      "(default: 2 4 8 12)"),
            _schemes("response-flow schemes, e.g. xmp-2 dctcp lia-2"),
            flag("--response-bytes", type=int, default=DEFAULT_RESPONSE_BYTES,
                 help=f"bytes each worker sends back (default: {DEFAULT_RESPONSE_BYTES})"),
            flag("--concurrent", dest="concurrent_jobs", metavar="CONCURRENT",
                 type=int, default=4,
                 help="partition-aggregate jobs in flight at once"),
            flag("--duration", type=float, default=0.1), K, SEED,
        ),
        cells=workload_matrix.sweep_cells, view=workload_matrix.sweep_view,
    ),
    Experiment(
        "fluid",
        "fluid ODE backend: steady-state windows/goodput/queues; "
        "--crosscheck validates fluid against the packet engine",
        "fluid", FluidScenario,
        (
            flag("--scheme", default="xmp", choices=FLUID_SCHEMES),
            flag("--topology", default="bottleneck", choices=FLUID_TOPOLOGIES),
            flag("--flows", type=int, default=4,
                 help="long-lived flows (default 4)"),
            flag("--subflows", type=int, default=1),
            flag("--duration", type=float, default=None,
                 help="horizon in seconds (default 0.2; crosscheck 0.3)"),
            flag("--dt", type=float, default=2e-5,
                 help="Euler step in seconds (default 2e-5)"),
            BETA,
            flag("--k", type=int, default=4,
                 help="fat-tree arity (fattree topology only)"),
            SEED,
            flag("--solver", default="reference", choices=FLUID_SOLVERS,
                 help="reference (pure python) or vector (numpy)"),
        ),
    ),
)

#: name -> row, in ``python -m repro list`` order.
EXPERIMENTS: Dict[str, Experiment] = {row.name: row for row in _ROWS}

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Flag",
    "PATTERN",
    "K",
    "SEED",
    "dest_of",
    "flag",
    "pattern_flag",
    "run",
]
