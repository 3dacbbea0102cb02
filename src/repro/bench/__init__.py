"""Benchmark surface: experiments, campaigns, snapshots, and reports.

Quickstart
----------
Run one experiment programmatically (see :data:`EXPERIMENTS` for the
registry — a read-only mapping of name to experiment)::

    import repro.bench as bench

    result = bench.run("fig3", quick=True, names=["nd24k"])
    print(result.render())          # the paper-style text table
    doc = result.to_dict()          # schema-versioned JSON document

Run a declarative campaign (experiments x matrices x engines x
directions) across a worker pool and render the static HTML report::

    outcome = bench.orchestrate(
        {"experiments": ["fig3", "fig5"], "matrices": ["nd24k"],
         "quick": True},
        out="campaign-out",
    )
    bench.render_report("campaign-out")   # campaign-out/report/index.html

The same operations on the command line: ``repro-bench run fig3
--quick``, ``repro-bench orchestrate CONFIG --report``, ``repro-bench
report DIR``, plus ``repro-bench snapshot`` / ``compare`` for the perf
gate.  Import from here, not from ``repro.bench.harness`` internals.
"""

from types import MappingProxyType

from .api import run
from .breakdown import RCMBreakdown, breakdown_from_ledger
from .figures import stacked_bars
from .harness import EXPERIMENTS as _EXPERIMENTS
from .orchestrate import orchestrate
from .report import render_report
from .reporting import banner, format_kv, format_table, render_result
from .schema import (
    SCHEMA_VERSION,
    CampaignConfig,
    ExperimentResult,
    ResultTable,
    SchemaError,
)
from .sweep import ScalePoint, strong_scaling_rcm

#: Read-only experiment registry: name -> experiment function.
EXPERIMENTS = MappingProxyType(_EXPERIMENTS)

__all__ = [
    "run",
    "orchestrate",
    "render_report",
    "EXPERIMENTS",
    "SCHEMA_VERSION",
    "CampaignConfig",
    "ExperimentResult",
    "ResultTable",
    "SchemaError",
    "stacked_bars",
    "strong_scaling_rcm",
    "ScalePoint",
    "RCMBreakdown",
    "breakdown_from_ledger",
    "format_table",
    "format_kv",
    "banner",
    "render_result",
]
