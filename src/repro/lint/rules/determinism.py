"""Determinism: seeded randomness (SIM001).

The whole reproduction rests on bit-for-bit deterministic replay (same
seed, same trace, same Fig. 3-11 curves).  The classic way to lose it is
drawing from the process-global ``random`` module (seeded from OS
entropy) or an unseeded ``random.Random()`` instead of routing through
:class:`repro.sim.random.RandomStreams`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import FileContext, Finding, Fix, Rule, Severity

#: Module-level functions of :mod:`random` that consume the global RNG.
GLOBAL_RNG_FUNCTIONS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


def _unseeded_random_call(node: ast.Call) -> bool:
    """``random.Random()`` / ``Random()`` with no seed argument at all."""
    return not node.args and not node.keywords


class UnseededRandomRule(Rule):
    """SIM001: all randomness must come from an explicitly seeded stream."""

    code = "SIM001"
    name = "unseeded-random"
    severity = Severity.ERROR
    rationale = (
        "unseeded RNGs break bit-for-bit replay; use "
        "repro.sim.random.RandomStreams or a seed-constructed random.Random"
    )
    fixable = True
    node_types = (ast.Call, ast.ImportFrom)
    # The one module that owns RNG construction may do as it likes.
    allowed_path_suffixes = ("repro/sim/random.py",)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    if alias.name == "*" or alias.name in GLOBAL_RNG_FUNCTIONS:
                        yield self.finding(
                            ctx,
                            node,
                            f"importing random.{alias.name} binds the "
                            "process-global RNG; pass a seeded "
                            "random.Random (see repro.sim.random)",
                        )
            return
        assert isinstance(node, ast.Call)
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "random":
                if func.attr in GLOBAL_RNG_FUNCTIONS:
                    yield self.finding(
                        ctx,
                        node,
                        f"random.{func.attr}() draws from the process-global "
                        "RNG; use a stream from "
                        "repro.sim.random.RandomStreams instead",
                    )
                elif func.attr == "Random" and _unseeded_random_call(node):
                    yield self.finding(
                        ctx,
                        node,
                        "random.Random() without a seed argument is "
                        "nondeterministic; construct it with an explicit seed",
                        fix=self._seed_fix(node, ctx),
                    )
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"numpy.random.{func.attr}() uses numpy's global RNG; "
                    "use numpy.random.Generator seeded from the RunSpec seed",
                )
        elif (
            isinstance(func, ast.Name)
            and func.id == "Random"
            and _unseeded_random_call(node)
        ):
            yield self.finding(
                ctx,
                node,
                "Random() without a seed argument is nondeterministic; "
                "construct it with an explicit seed",
                fix=self._seed_fix(node, ctx),
            )

    def _seed_fix(self, node: ast.Call, ctx: FileContext) -> "Fix | None":
        """Rewrite ``...Random()`` to ``...Random(0)`` when single-line."""
        if node.end_lineno != node.lineno or node.end_col_offset is None:
            return None
        segment = ctx.segment(node)
        if segment is None or not segment.endswith("()"):
            return None
        return Fix(
            lineno=node.lineno,
            col_start=node.col_offset,
            col_end=node.end_col_offset,
            expected=segment,
            replacement=segment[:-2] + "(0)",
        )
