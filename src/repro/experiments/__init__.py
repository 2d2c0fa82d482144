"""Experiment harnesses: one per table/figure of the paper's evaluation.

| Paper artifact | Harness |
|---|---|
| Table I        | :func:`repro.experiments.table1.run_table1` |
| Figure 4       | :func:`repro.experiments.structure.run_figure4` |
| Figure 5       | :func:`repro.experiments.curves.run_figure5` |
| Figure 6       | :func:`repro.experiments.latency.run_figure6` |
| Table II/III   | :func:`repro.experiments.latency.run_latency_comparison` |
| Figure 7       | :func:`repro.experiments.latency.run_figure7` |
| Figure 10      | :func:`repro.experiments.webar_exp.run_figure10` |
| §IV-D ablations| :mod:`repro.experiments.ablations` |
| §IV-D.1 instability | :func:`repro.experiments.faults_exp.run_degradation` |
| §I concurrency | :func:`repro.experiments.scale.run_concurrency` |
| §I edge capacity (workers × shards) | :func:`repro.experiments.fleet.run_capacity_sweep` |
| §I fleet failure and planning | :mod:`repro.experiments.fleet` |
| §III-C closed loop | :mod:`repro.experiments.adaptive_tau` |
"""

from .adaptive_tau import (
    AdaptiveTauResult,
    OverloadStream,
    TauDrillResult,
    adaptive_tau_study,
    build_overload_stream,
    congested_edge_model,
    default_drill_control,
    run_adaptive_tau,
    run_tau_drill,
)
from .ablations import (
    BranchCountResult,
    BranchLocationResult,
    DeviceSensitivityResult,
    run_branch_count,
    run_branch_location,
    run_device_sensitivity,
)
from .curves import Figure5Result, run_figure5
from .faults_exp import (
    SWEEP_RETRY_POLICY,
    DegradationPoint,
    DegradationResult,
    run_degradation,
)
from .fleet import (
    CapacityPlanRow,
    CapacityPoint,
    CapacityResult,
    FleetPartitionResult,
    FleetSloResult,
    capacity_planning_table,
    render_capacity_table,
    run_capacity_sweep,
    run_fleet_partition,
    run_fleet_slo,
)
from .latency import (
    DEFAULT_EXIT_RATES,
    Figure6Result,
    Figure7Result,
    LatencyComparison,
    build_network_assets,
    build_plans,
    run_figure6,
    run_figure7,
    run_latency_comparison,
)
from .paper_values import (
    PAPER_CLAIMS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    Table1Row,
    paper_table1_row,
)
from .reporting import render_series, render_table, shape_check
from .scale import (
    FULL,
    QUICK,
    SCALES,
    STANDARD,
    ConcurrencyPoint,
    ConcurrencyResult,
    ConcurrencySweepConfig,
    ExperimentScale,
    run_concurrency,
)
from .structure import Figure4Result, StructurePoint, run_figure4
from .table1 import Table1Cell, Table1Result, run_table1, run_table1_cell
from .webar_exp import Figure10Result, run_figure10

__all__ = [
    "AdaptiveTauResult",
    "BranchCountResult",
    "BranchLocationResult",
    "CapacityPlanRow",
    "CapacityPoint",
    "CapacityResult",
    "ConcurrencyPoint",
    "ConcurrencyResult",
    "ConcurrencySweepConfig",
    "DEFAULT_EXIT_RATES",
    "DegradationPoint",
    "DegradationResult",
    "DeviceSensitivityResult",
    "ExperimentScale",
    "FULL",
    "Figure10Result",
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "Figure7Result",
    "FleetPartitionResult",
    "FleetSloResult",
    "LatencyComparison",
    "OverloadStream",
    "PAPER_CLAIMS",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "QUICK",
    "SCALES",
    "STANDARD",
    "SWEEP_RETRY_POLICY",
    "StructurePoint",
    "Table1Cell",
    "Table1Result",
    "Table1Row",
    "TauDrillResult",
    "adaptive_tau_study",
    "build_network_assets",
    "build_overload_stream",
    "build_plans",
    "capacity_planning_table",
    "congested_edge_model",
    "default_drill_control",
    "paper_table1_row",
    "render_capacity_table",
    "render_series",
    "render_table",
    "run_adaptive_tau",
    "run_branch_count",
    "run_branch_location",
    "run_capacity_sweep",
    "run_concurrency",
    "run_degradation",
    "run_device_sensitivity",
    "run_figure10",
    "run_fleet_partition",
    "run_fleet_slo",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_latency_comparison",
    "run_table1",
    "run_table1_cell",
    "run_tau_drill",
    "shape_check",
]
