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

Rows are built on demand: ``ROWS`` maps each name to a small function
that imports the row's own driver module and builds the row,
:func:`experiment` builds and memoises one row and :func:`experiments`
all of them, so running one row never imports the drivers of the other
twelve.

The CLI (:mod:`repro.cli`) builds its subcommands, ``list`` and dispatch
from the same rows: a flag whose dest is a field of the row's config
feeds the base config, any other dest is a sweep axis of ``cells``, and
a value of ``None`` means "not given".
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.fattree_eval import PATTERNS, FatTreeScenario
from repro.experiments.table1_goodput import TABLE1_SCHEMES, scenarios_for
from repro.mptcp.coupling import parse_scheme_spec
from repro.runner import Campaign, CampaignResult, RunSpec

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
    row = experiment(name)
    return row.run(row.grid(base, **axes), campaign or Campaign())[0]


def _scheme_cells(
    base: FatTreeScenario, schemes: Optional[Schemes] = None
) -> List[FatTreeScenario]:
    """The shared grid's slice at the base's own pattern (Figs. 8/10/11);
    ``schemes`` defaults to Fig. 10's."""
    from repro.experiments.fig10_rtt import FIG10_SCHEMES

    return scenarios_for(base, FIG10_SCHEMES if schemes is None else schemes, (base.pattern,))


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
    from repro.experiments.workload_matrix import MATRIX_SCHEMES

    return flag("--schemes", nargs="+", type=parse_scheme_spec,
                metavar="SCHEME[-N]", default=list(MATRIX_SCHEMES), help=help)


def _driver(name: str) -> Any:
    """The driver module ``repro.experiments.<name>``, imported on first use."""
    return importlib.import_module(f"repro.experiments.{name}")


def _figure(name: str, help: str, driver: str, config: str, *flags: Flag) -> Experiment:
    """A testbed/torus/bottleneck row: one cell of kind ``name`` whose
    config class is ``config`` in its driver module."""
    return Experiment(name, help, name, getattr(_driver(driver), config), flags)


def _fattree(
    name: str, help: str, driver: str, cells: Optional[Callable[..., List[Any]]], *flags: Flag
) -> Experiment:
    """A §5.2 row: one more reading of the shared fat-tree grid, folded by
    its driver module's ``view`` (``cells=None``: the driver's own)."""
    module = _driver(driver)
    cells, view = cells or module.cells, module.view
    shared = (flag("--duration", type=float, default=0.4), K, SEED)
    return Experiment(name, help, "fattree", FatTreeScenario, shared + flags, cells, view)


def _workload() -> Experiment:
    from repro.experiments import workload_matrix
    from repro.workloads.arrivals import ARRIVAL_NAMES
    from repro.workloads.cdf import WORKLOAD_NAMES

    return Experiment(
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
    )


def _incast() -> Experiment:
    from repro.experiments import workload_matrix
    from repro.workloads.partition_aggregate import DEFAULT_RESPONSE_BYTES

    return Experiment(
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
    )


def _fluid() -> Experiment:
    from repro.fluid.backend import TOPOLOGIES, FluidScenario
    from repro.fluid.laws import FLUID_SCHEMES
    from repro.fluid.solver import SOLVERS

    return Experiment(
        "fluid",
        "fluid ODE backend: steady-state windows/goodput/queues; "
        "--crosscheck validates fluid against the packet engine",
        "fluid", FluidScenario,
        (
            flag("--scheme", default="xmp", choices=FLUID_SCHEMES),
            flag("--topology", default="bottleneck", choices=TOPOLOGIES),
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
            flag("--solver", default="reference", choices=SOLVERS,
                 help="reference (pure python) or vector (numpy)"),
        ),
    )


#: name -> the function that builds its row, in ``python -m repro list``
#: order.  Each imports only its own row's driver module.
ROWS: Dict[str, Callable[[], Experiment]] = {
    "fig1": partial(
        _figure, "fig1", "Fig. 1: convergence on one bottleneck", "fig1_convergence", "Fig1Config",
        flag("--scheme", choices=("dctcp", "bos"), default="dctcp"),
        _threshold(10),
        flag("--beta", type=float, default=2.0),
        flag("--interval", type=float, default=1.0,
             help="seconds between joins/leaves (paper: 5)"),
    ),
    "fig4": partial(
        _figure, "fig4", "Fig. 4: traffic shifting testbed", "fig4_traffic_shifting", "Fig4Config",
        BETA, flag("--time-scale", type=float, default=0.2),
    ),
    "fig6": partial(
        _figure, "fig6", "Fig. 6: fairness vs subflow count", "fig6_fairness", "Fig6Config",
        BETA, flag("--time-scale", type=float, default=0.2),
    ),
    "fig7": partial(
        _figure, "fig7", "Fig. 7: torus rate compensation", "fig7_rate_compensation", "Fig7Config",
        BETA, _threshold(20), flag("--time-scale", type=float, default=0.05),
    ),
    "table1": partial(
        _fattree, "table1", "Table 1: goodput per scheme per pattern", "table1_goodput",
        scenarios_for, pattern_flag("--patterns", nargs="+", default=list(PATTERNS)),
    ),
    "table2": partial(_fattree, "table2", "Table 2: XMP coexistence", "table2_coexistence", None),
    "fig8": partial(
        _fattree, "fig8", "Fig. 8: goodput distribution by category", "fig8_goodput_dist",
        partial(_scheme_cells, schemes=TABLE1_SCHEMES), PATTERN,
    ),
    "jct": partial(
        _fattree, "jct", "Fig. 9 / Table 3: incast job completion times", "fig9_jct_cdf",
        partial(scenarios_for, patterns=("incast",)),
    ),
    "rtt": partial(
        _fattree, "rtt", "Fig. 10: RTT by category", "fig10_rtt", _scheme_cells, PATTERN,
    ),
    "utilization": partial(
        _fattree, "utilization", "Fig. 11: utilization by layer", "fig11_utilization",
        _scheme_cells, PATTERN,
    ),
    "workload": _workload, "incast": _incast, "fluid": _fluid,
}


@lru_cache(maxsize=None)
def experiment(name: str) -> Experiment:
    """Row ``name``, built (and its driver imported) on first use."""
    return ROWS[name]()


def experiments() -> Dict[str, Experiment]:
    """Every row, name -> row, in ``list`` order."""
    return {name: experiment(name) for name in ROWS}


__all__ = [
    "Experiment",
    "Flag",
    "PATTERN",
    "K",
    "ROWS",
    "SEED",
    "dest_of",
    "experiment",
    "experiments",
    "flag",
    "pattern_flag",
    "run",
]
