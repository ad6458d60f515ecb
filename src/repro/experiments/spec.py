"""Declarative experiment specs: sweeps compiled to campaign-point batches.

The paper's evaluation is one big cross product (workloads x schemes x L1D
prefetchers x system overrides x budgets); every figure is a *view* of some
slice of it.  This module splits every experiment into two declarative
halves:

* a :class:`SweepSpec` -- plain data describing the swept axes.  It
  *compiles* to a flat ``list[CampaignPoint]`` which the engine executes as
  one batch (``repro figure <name> --jobs N``);
* a pure ``reduce(config, results) -> FigureResult`` function that folds the
  executed batch (a :class:`SweepResults` lookup view) into the figure's
  numbers without running anything.

An :class:`ExperimentSpec` pairs the two, names the paper's claims about
the reduced result (:class:`Claim`, checked by :func:`evaluate_claims`) and
registers under a name; :data:`FIGURE_IDS` maps each of the paper's figure
ids to one.  The registry drives ``repro figure <id>|all`` and the parity
test suite.
User-defined sweeps (``repro sweep``) build a :class:`SweepSpec` straight
from CLI flags or JSON (:func:`sweep_spec_from_dict`) -- including
``imported.*`` trace-store workloads -- without writing a module.

Every point is named by its cache key, built from an experiment
configuration by :func:`config_single_core_point` /
:func:`config_multi_core_point`.  Sweep compilation and
:class:`SweepResults` lookups both use them, so a lookup finds the point
the sweep ran.  Making a point checks its inputs, so a sweep naming an
unknown workload, scheme or prefetcher fails to compile with ``ValueError``
before any point runs.

Layering: this module sits on :mod:`repro.sim.engine` only;
:mod:`repro.experiments.common` layers the in-process memo
(:class:`~repro.experiments.common.CampaignCache`) on top and the figure
modules plug their specs in from above.
"""

from __future__ import annotations

import importlib
import operator
from dataclasses import dataclass, fields
from typing import Any, Callable, Optional, Sequence

from repro.common.config import SystemConfig, system_config_from_dict
from repro.sim.engine import (
    CampaignPoint,
    multi_core_point,
    single_core_point,
)
from repro.sim.results import MultiCoreResult, SingleCoreResult


# ----------------------------------------------------------------------
# Points and mixes of an experiment configuration
# ----------------------------------------------------------------------
def config_single_core_point(
    config,
    workload: str,
    scheme: str,
    l1d_prefetcher: str = "ipcp",
    memory_accesses: Optional[int] = None,
    system: Optional[SystemConfig] = None,
    trace_store=None,
) -> CampaignPoint:
    """One single-core point at ``config``'s warm-up and graph scale.

    ``memory_accesses`` defaults to the configured single-core budget.
    """
    return single_core_point(
        workload,
        scheme,
        l1d_prefetcher,
        memory_accesses=(
            memory_accesses
            if memory_accesses is not None
            else config.memory_accesses
        ),
        warmup_fraction=config.warmup_fraction,
        gap_scale=config.gap_scale,
        system=system,
        trace_store=trace_store,
    )


def config_multi_core_point(
    config,
    mix_name: str,
    workloads: Sequence[str],
    scheme: str,
    l1d_prefetcher: str = "ipcp",
    per_core_bandwidth_gbps: float = 3.2,
    memory_accesses: Optional[int] = None,
    trace_store=None,
) -> CampaignPoint:
    """One multi-core mix point at ``config``'s warm-up and graph scale.

    ``memory_accesses`` (per core) defaults to the configured
    ``multicore_memory_accesses``.
    """
    return multi_core_point(
        mix_name,
        workloads,
        scheme,
        l1d_prefetcher,
        memory_accesses=(
            memory_accesses
            if memory_accesses is not None
            else config.multicore_memory_accesses
        ),
        warmup_fraction=config.warmup_fraction,
        gap_scale=config.gap_scale,
        per_core_bandwidth_gbps=per_core_bandwidth_gbps,
        trace_store=trace_store,
    )


def multicore_mixes(config, suite: str) -> list[tuple[str, list[str]]]:
    """Multi-core mixes of one suite (half homogeneous, half rotated).

    Pure function of the experiment configuration, so sweep compilation and
    reducers enumerate exactly the same mixes.
    """
    names = list(config.workloads(suite))
    mixes: list[tuple[str, list[str]]] = []
    if not names:
        return mixes
    for index in range(config.mixes_per_suite):
        if index % 2 == 0:
            workload = names[index % len(names)]
            mixes.append((f"{suite}.homog.{workload}", [workload] * config.cores))
        else:
            selection = [
                names[(index + offset) % len(names)] for offset in range(config.cores)
            ]
            mixes.append((f"{suite}.heter.{index}", selection))
    return mixes


# ----------------------------------------------------------------------
# Sweep axes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SingleCoreSweep:
    """One single-core cross-product block of a sweep.

    ``None`` axes inherit from the :class:`~repro.experiments.common.
    ExperimentConfig` the sweep is compiled against, so the same spec
    adapts from the quick test configuration to the full campaign.
    """

    #: Workload names; None means every configured workload (all suites,
    #: including ``imported.*`` traces named by the config).
    workloads: Optional[tuple[str, ...]] = None
    schemes: tuple[str, ...] = ("baseline",)
    #: L1D prefetchers; None means the configured sweep.
    l1d_prefetchers: Optional[tuple[str, ...]] = None
    #: Memory-access budget per point; None means the configured budget.
    memory_accesses: Optional[int] = None
    #: System-config overrides; None entries use the default single-core
    #: system (and keep the pre-spec cache keys).
    systems: tuple[Optional[SystemConfig], ...] = (None,)


@dataclass(frozen=True)
class MultiCoreSweep:
    """One multi-core cross-product block of a sweep.

    Mixes come from the configured suites (the same enumeration as
    :func:`multicore_mixes`) unless ``mixes`` names them explicitly.
    ``isolated_baselines`` also compiles the single-core baseline run of
    every mixed workload at the multi-core budget -- the denominators of
    the weighted-speedup metric every multi-core figure reports.
    """

    suites: tuple[str, ...] = ("gap", "spec")
    #: Explicit ``(mix name, workloads)`` pairs overriding ``suites``.
    mixes: Optional[tuple[tuple[str, tuple[str, ...]], ...]] = None
    schemes: tuple[str, ...] = ("baseline",)
    l1d_prefetchers: Optional[tuple[str, ...]] = None
    #: Memory-access budget per core; None means the configured
    #: ``multicore_memory_accesses``.
    memory_accesses: Optional[int] = None
    per_core_bandwidths: tuple[float, ...] = (3.2,)
    isolated_baselines: bool = True

    def resolved_mixes(self, config) -> list[tuple[str, list[str]]]:
        """The ``(mix name, workloads)`` pairs this block sweeps."""
        if self.mixes is not None:
            return [(name, list(workloads)) for name, workloads in self.mixes]
        mixes: list[tuple[str, list[str]]] = []
        for suite in self.suites:
            mixes.extend(multicore_mixes(config, suite))
        return mixes


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: axis blocks that compile to campaign points.

    A spec may hold several blocks (e.g. a multi-core bandwidth sweep plus
    the single-core isolated baselines it normalises against); compilation
    concatenates them and deduplicates by cache key.
    """

    single_core: tuple[SingleCoreSweep, ...] = ()
    multi_core: tuple[MultiCoreSweep, ...] = ()

    def swept_l1d_prefetchers(self, config) -> set[str]:
        """Every L1D prefetcher this sweep would simulate.

        Derived from the axis blocks directly (``None`` inherits the
        configured sweep) so callers probing the prefetcher axis -- e.g.
        the CLI's pinned-prefetcher warning -- need not compile the points.
        Empty for sweeps that simulate nothing.
        """
        swept: set[str] = set()
        for block in self.single_core + self.multi_core:
            swept.update(
                block.l1d_prefetchers
                if block.l1d_prefetchers is not None
                else config.l1d_prefetchers
            )
        return swept

    def compile(self, config, trace_store=None) -> list[CampaignPoint]:
        """Flatten every axis block into a deduplicated point list."""
        points: list[CampaignPoint] = []
        seen: set[str] = set()

        def add(point: CampaignPoint) -> None:
            key = point.key()
            if key not in seen:
                seen.add(key)
                points.append(point)

        for block in self.single_core:
            workloads = (
                block.workloads if block.workloads is not None else config.workloads()
            )
            prefetchers = (
                block.l1d_prefetchers
                if block.l1d_prefetchers is not None
                else config.l1d_prefetchers
            )
            for prefetcher in prefetchers:
                for scheme in block.schemes:
                    for system in block.systems:
                        for workload in workloads:
                            add(
                                config_single_core_point(
                                    config,
                                    workload,
                                    scheme,
                                    prefetcher,
                                    memory_accesses=block.memory_accesses,
                                    system=system,
                                    trace_store=trace_store,
                                )
                            )

        for block in self.multi_core:
            mixes = block.resolved_mixes(config)
            prefetchers = (
                block.l1d_prefetchers
                if block.l1d_prefetchers is not None
                else config.l1d_prefetchers
            )
            budget = (
                block.memory_accesses
                if block.memory_accesses is not None
                else config.multicore_memory_accesses
            )
            if block.isolated_baselines:
                for prefetcher in prefetchers:
                    for _, workloads in mixes:
                        for workload in workloads:
                            add(
                                config_single_core_point(
                                    config,
                                    workload,
                                    "baseline",
                                    prefetcher,
                                    memory_accesses=budget,
                                    trace_store=trace_store,
                                )
                            )
            for prefetcher in prefetchers:
                for bandwidth in block.per_core_bandwidths:
                    for scheme in block.schemes:
                        for mix_name, workloads in mixes:
                            add(
                                config_multi_core_point(
                                    config,
                                    mix_name,
                                    workloads,
                                    scheme,
                                    prefetcher,
                                    per_core_bandwidth_gbps=bandwidth,
                                    memory_accesses=budget,
                                    trace_store=trace_store,
                                )
                            )
        return points


# ----------------------------------------------------------------------
# JSON form (repro sweep --spec-json)
# ----------------------------------------------------------------------
def _lists_to_tuples(value):
    if isinstance(value, list):
        return tuple(_lists_to_tuples(item) for item in value)
    return value


def _parse_system(cls, system) -> Optional[SystemConfig]:
    """One ``systems`` entry: null or a serialized system config."""
    if system is None:
        return None
    if not isinstance(system, dict):
        raise ValueError(
            f"{cls.__name__} axis 'systems' entries must be null or system "
            f"config objects, got {system!r}"
        )
    try:
        return system_config_from_dict(system)
    except (KeyError, TypeError) as error:
        raise ValueError(
            f"{cls.__name__} axis 'systems' entry {system!r} is not a "
            f"system config: {error!r}"
        ) from error


def sweep_spec_from_dict(payload: dict) -> SweepSpec:
    """Parse the JSON form of a sweep spec (see ``repro sweep --spec-json``).

    Unknown keys raise instead of being ignored, so a typo in an axis name
    (``scheme`` for ``schemes``) fails loudly rather than silently sweeping
    the defaults; so does a scalar where a list axis is expected
    (``"workloads": "bfs.urand"`` would otherwise sweep one workload per
    *character*).
    """
    if not isinstance(payload, dict):
        raise ValueError(f"sweep spec must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {"single_core", "multi_core"}
    if unknown:
        raise ValueError(f"unknown sweep spec sections: {sorted(unknown)}")

    def parse_block(cls, block: dict):
        if not isinstance(block, dict):
            raise ValueError(f"sweep block must be a JSON object, got {block!r}")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(block) - known
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} axes: {sorted(unknown)} "
                f"(expected a subset of {sorted(known)})"
            )
        kwargs = {}
        for name, value in block.items():
            # The budget, the one scalar axis besides this flag, is checked
            # with every other point input when the sweep compiles.
            if name == "isolated_baselines":
                if not isinstance(value, bool):
                    raise ValueError(
                        f"{cls.__name__} axis 'isolated_baselines' must be "
                        f"a boolean, got {value!r}"
                    )
            elif name != "memory_accesses" and not isinstance(value, list):
                raise ValueError(
                    f"{cls.__name__} axis {name!r} must be a JSON array, "
                    f"got {value!r} (omit the key to use the default)"
                )
            elif name in ("workloads", "schemes", "l1d_prefetchers", "suites"):
                for item in value:
                    if not isinstance(item, str):
                        raise ValueError(
                            f"{cls.__name__} axis {name!r} entries must be "
                            f"strings, got {item!r}"
                        )
            elif name == "per_core_bandwidths":
                for item in value:
                    if isinstance(item, bool) or not isinstance(item, (int, float)):
                        raise ValueError(
                            f"{cls.__name__} axis 'per_core_bandwidths' "
                            f"entries must be numbers, got {item!r}"
                        )
            elif name == "mixes":
                for mix in value:
                    if (
                        not isinstance(mix, list)
                        or len(mix) != 2
                        or not isinstance(mix[0], str)
                        or not isinstance(mix[1], list)
                        or not all(isinstance(w, str) for w in mix[1])
                    ):
                        raise ValueError(
                            f"{cls.__name__} axis 'mixes' entries must be "
                            f"[name, [workload, ...]] pairs, got {mix!r}"
                        )
            if name == "systems":
                value = tuple(_parse_system(cls, system) for system in value)
            else:
                value = _lists_to_tuples(value)
            kwargs[name] = value
        return cls(**kwargs)

    return SweepSpec(
        single_core=tuple(
            parse_block(SingleCoreSweep, block)
            for block in payload.get("single_core", ())
        ),
        multi_core=tuple(
            parse_block(MultiCoreSweep, block)
            for block in payload.get("multi_core", ())
        ),
    )


# ----------------------------------------------------------------------
# Executed-sweep view handed to reducers
# ----------------------------------------------------------------------
class SweepResults:
    """Pure lookup view over one executed sweep.

    Wraps ``{point key: result}`` and resolves semantic lookups (workload/
    scheme/prefetcher, or mix/scheme/bandwidth) by rebuilding the campaign
    point with the exact helpers sweep compilation used -- same key, no
    simulation.  A lookup outside the executed sweep raises ``KeyError``:
    reducers consume batches, they never trigger simulations.
    """

    def __init__(
        self,
        config,
        results: dict[str, SingleCoreResult | MultiCoreResult],
        trace_store=None,
    ) -> None:
        self.config = config
        self._results = dict(results)
        self._trace_store = trace_store

    def __len__(self) -> int:
        return len(self._results)

    def _lookup(self, point: CampaignPoint) -> SingleCoreResult | MultiCoreResult:
        key = point.key()
        if key not in self._results:
            raise KeyError(
                f"point {point.label} ({point.kind}, {point.memory_accesses} "
                f"accesses) was not part of the executed sweep"
            )
        return self._results[key]

    def single_core(
        self,
        workload: str,
        scheme: str,
        l1d_prefetcher: str = "ipcp",
        memory_accesses: Optional[int] = None,
        system: Optional[SystemConfig] = None,
    ) -> SingleCoreResult:
        """Result of one single-core point of the sweep."""
        return self._lookup(
            config_single_core_point(
                self.config,
                workload,
                scheme,
                l1d_prefetcher,
                memory_accesses=memory_accesses,
                system=system,
                trace_store=self._trace_store,
            )
        )

    def multi_core(
        self,
        mix_name: str,
        workloads: Sequence[str],
        scheme: str,
        l1d_prefetcher: str = "ipcp",
        per_core_bandwidth_gbps: float = 3.2,
        memory_accesses: Optional[int] = None,
    ) -> MultiCoreResult:
        """Result of one multi-core mix point of the sweep."""
        return self._lookup(
            config_multi_core_point(
                self.config,
                mix_name,
                workloads,
                scheme,
                l1d_prefetcher,
                per_core_bandwidth_gbps=per_core_bandwidth_gbps,
                memory_accesses=memory_accesses,
                trace_store=self._trace_store,
            )
        )


# ----------------------------------------------------------------------
# Claims
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ref:
    """A number read from a reduced result: the sum of the values at
    ``paths`` (each an attribute name, then mapping keys), plus ``offset``."""

    paths: tuple[tuple, ...]
    offset: float = 0.0

    def read(self, result) -> float:
        total = 0.0
        for attribute, *keys in self.paths:
            value = getattr(result, attribute)
            for key in keys:
                value = value[key]
            total += value
        return total + self.offset

    def __str__(self) -> str:
        text = " + ".join(
            path[0] + "".join(f"[{key}]" for key in path[1:]) for path in self.paths
        )
        if self.offset:
            text += f" {'-' if self.offset < 0 else '+'} {abs(self.offset):g}"
        return text


def ref(*path, offset: float = 0.0) -> Ref:
    """One path's value: ``ref("overall", "LLC")`` reads ``overall["LLC"]``."""
    return Ref((path,), offset)


_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Claim:
    """A paper claim: a chained comparison over a reduced result.

    ``Claim(5.0, "<", ref("total"), "<", 9.0)`` alternates terms (a
    :class:`Ref` or a constant) and operators, and holds when every link
    holds.  Its name is the comparison itself, ``5 < total < 9``; its margin
    is the signed distance from the tightest link's bound, positive on the
    passing side.
    """

    def __init__(self, *chain) -> None:
        self.chain = chain
        self.name = " ".join(
            f"{term:g}" if isinstance(term, float) else str(term) for term in chain
        )

    def evaluate(self, result) -> tuple[str, Optional[float]]:
        """``(verdict, margin)``; ``("not evaluated", None)`` when the result
        lacks a key the claim reads (e.g. an IPCP claim on a Berti-only run)."""
        try:
            values = [term.read(result) if isinstance(term, Ref) else term
                      for term in self.chain[::2]]
        except KeyError:
            return "not evaluated", None
        links = list(zip(values, self.chain[1::2], values[1:]))
        holds = all(_COMPARISONS[op](left, right) for left, op, right in links)
        margin = min(left - right if op[0] == ">" else right - left
                     for left, op, right in links)
        return ("PASS" if holds else "FAIL"), margin


def evaluate_claims(spec: ExperimentSpec, result) -> list[tuple]:
    """``(name, verdict, margin)`` of each of ``spec``'s claims on ``result``."""
    return [(claim.name, *claim.evaluate(result)) for claim in spec.claims]


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: a sweep builder, a pure reducer and its claims.

    ``build_sweep(config, **params)`` returns the :class:`SweepSpec`;
    ``reduce(config, results, **params)`` folds the executed
    :class:`SweepResults` into the figure's result object.  Both receive
    the same keyword parameters (a figure's knobs, e.g. Figure 16's
    bandwidth points); :func:`run_experiment` forwards them from its
    caller.  ``claims`` are the paper's claims about that result;
    ``repro figure`` prints their verdicts (:func:`evaluate_claims`).
    """

    name: str
    title: str
    build_sweep: Callable[..., SweepSpec]
    reduce: Callable[..., Any]
    format_table: Callable[[Any], str]
    claims: tuple[Claim, ...] = ()


_REGISTRY: dict[str, ExperimentSpec] = {}

#: Figure id -> registered experiment name (``repro figure <id>``).
#: Figures that are views of one shared campaign (10/11/12, 3/13/14, 5/6)
#: alias the same spec.  A constant, so listing the ids imports no figure
#: module.
FIGURE_IDS = {
    "fig01": "fig01",
    "fig02": "fig02",
    "fig03": "fig13",
    "fig04": "fig04",
    "fig05": "fig05",
    "fig06": "fig05",
    "fig10": "fig10",
    "fig11": "fig10",
    "fig12": "fig10",
    "fig13": "fig13",
    "fig14": "fig13",
    "fig15": "fig15",
    "fig16": "fig16",
    "fig17": "fig17",
    "table02": "table02",
}

#: Modules that register figure specs on import (order = ``figure all``).
_FIGURE_MODULES = (
    "fig01_mpki",
    "fig02_hermes_dram_sc",
    "fig04_offchip_breakdown",
    "fig05_06_prefetch_location",
    "fig10_12_singlecore",
    "fig13_14_multicore",
    "fig15_ablation",
    "fig16_bandwidth",
    "fig17_storage_budget",
    "table02_storage",
)


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` under its name (figure modules call this on import)."""
    _REGISTRY[spec.name] = spec
    return spec


def ensure_registered() -> None:
    """Import every figure module so the registry is fully populated."""
    for module in _FIGURE_MODULES:
        importlib.import_module(f"repro.experiments.{module}")


def registered_experiments() -> dict[str, ExperimentSpec]:
    """``{name: spec}`` of every registered experiment, in sweep order."""
    ensure_registered()
    return dict(_REGISTRY)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up one registered experiment by name or figure id
    (:data:`FIGURE_IDS`: ``fig11`` is ``fig10``)."""
    ensure_registered()
    spec = _REGISTRY.get(FIGURE_IDS.get(name, name))
    if spec is None:
        raise KeyError(
            f"unknown experiment {name!r}; choose from "
            f"{sorted({*FIGURE_IDS, *_REGISTRY})}"
        )
    return spec


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_experiments(
    specs: Sequence[ExperimentSpec | str],
    cache=None,
    config=None,
    jobs: Optional[int] = None,
    progress=None,
    **params,
) -> list:
    """Execute several experiment specs as one batch; return their results.

    Compiles every spec's sweep against the campaign's configuration, runs
    the deduplicated union of their points through one
    :meth:`~repro.experiments.common.CampaignCache.run_points` call (one
    process pool at ``jobs`` > 1), then reduces each spec over its own
    points.  ``params`` go to every spec's sweep builder and reducer.
    ``cache`` is any :class:`~repro.experiments.common.CampaignCache`; one
    cache shared across calls deduplicates their points in-process; a
    ``config`` given with it must equal ``cache.config``.  A failing point
    raises :class:`~repro.sim.engine.PointFailedError` naming it; finished
    points are in the result cache, so a re-run executes only the
    remainder.
    """
    from repro.experiments.common import campaign_for

    campaign = campaign_for(config, cache)
    trace_store = campaign.engine.trace_store
    compiled = []
    for spec in specs:
        if isinstance(spec, str):
            spec = get_experiment(spec)
        sweep = spec.build_sweep(campaign.config, **params)
        compiled.append((spec, sweep.compile(campaign.config, trace_store=trace_store)))
    results = campaign.run_points(
        [point for _, points in compiled for point in points],
        jobs=jobs,
        progress=progress,
    )
    reduced = []
    for spec, points in compiled:
        view = SweepResults(
            campaign.config,
            {point.key(): results[point.key()] for point in points},
            trace_store=trace_store,
        )
        reduced.append(spec.reduce(campaign.config, view, **params))
    return reduced


def run_experiment(
    spec: ExperimentSpec | str,
    cache=None,
    config=None,
    jobs: Optional[int] = None,
    progress=None,
    **params,
):
    """Execute one experiment spec end to end (see :func:`run_experiments`)."""
    (result,) = run_experiments(
        [spec], cache=cache, config=config, jobs=jobs, progress=progress,
        **params,
    )
    return result
