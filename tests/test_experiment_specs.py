"""Declarative experiment-spec layer tests.

The registry parity suite is the contract of the PR-5 refactor: every
registered figure, executed through its declarative sweep spec and pure
reducer, must be **bit-identical** to the committed pre-refactor outputs in
``tests/fixtures/expected_figures_quick.json`` (generated from the original
hand-rolled harness loops at the quick configuration; see
``tests/fixtures/generate_expected_figures.py``).

The rest pins the batch machinery: one engine fan-out per figure, the
in-process memo deduplicating across specs, parallel (``jobs > 1``)
execution matching serial and the sweep-spec JSON round trip -- and the
paper's claims each spec carries: all hold at the default configuration,
and each fails on a result moved just past its bound.
"""

import dataclasses
import json
import types
from pathlib import Path

import pytest

from repro import api
from repro.experiments.common import (
    CampaignCache,
    default_experiment_config,
    quick_experiment_config,
)
from repro.experiments.spec import (
    Claim,
    MultiCoreSweep,
    Ref,
    SingleCoreSweep,
    SweepResults,
    SweepSpec,
    evaluate_claims,
    get_experiment,
    multicore_mixes,
    ref,
    registered_experiments,
    run_experiment,
    run_experiments,
    FIGURE_IDS,
    sweep_spec_from_dict,
)
from repro.sim.engine import single_core_point


def baseline_mix(cache, mix_name, workloads):
    """One baseline/IPCP mix at the config budget, through ``api.run_sweep``."""
    spec = SweepSpec(multi_core=(MultiCoreSweep(
        mixes=((mix_name, tuple(workloads)),),
        l1d_prefetchers=("ipcp",),
        isolated_baselines=False,
    ),))
    results = api.run_sweep(spec, cache=cache)
    return results.multi_core(mix_name, workloads, "baseline", "ipcp")


FIXTURE_PATH = Path(__file__).parent / "fixtures" / "expected_figures_quick.json"

#: Figure 16's pinned bandwidth points (must match the fixture generator).
FIG16_BANDWIDTHS = (1.6, 6.4)


def json_ready(result) -> dict:
    """Result dataclass -> the canonical JSON payload the fixture stores."""
    return json.loads(json.dumps(dataclasses.asdict(result), sort_keys=True))


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def campaign():
    """One shared campaign cache so overlapping figure sweeps dedupe."""
    return CampaignCache(quick_experiment_config(), use_result_cache=False)


#: Figure name -> the parameters its parity run pins.
PARITY_RUNS = {
    "fig01": {},
    "fig02": {},
    "fig04": {},
    "fig05": {},
    "fig10": {},
    "fig13": {},
    "fig15": {},
    "fig16": {"bandwidths": FIG16_BANDWIDTHS},
    "fig17": {},
    "table02": {},
}


class TestRegistryParity:
    """Spec-driven outputs == committed pre-refactor outputs, bitwise."""

    @pytest.mark.parametrize("name", sorted(PARITY_RUNS))
    def test_bit_identical_to_pre_refactor(self, name, campaign, expected):
        result = run_experiment(name, cache=campaign, **PARITY_RUNS[name])
        assert json_ready(result) == expected[name]

    def test_fixture_covers_every_registered_experiment(self, expected):
        assert set(registered_experiments()) == set(expected) == set(PARITY_RUNS)


class TestRegistry:
    def test_lookup_and_unknown_name(self):
        spec = get_experiment("fig01")
        assert spec.name == "fig01"
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_figure_ids_name_registered_experiments(self, campaign):
        """A figure id that is a view of another figure's campaign names
        that figure's spec, in the registry and through ``api.run_figure``."""
        for figure_id, name in FIGURE_IDS.items():
            assert get_experiment(figure_id) is get_experiment(name)
        assert get_experiment("fig11").name == "fig10"
        assert get_experiment("fig03").name == "fig13"
        assert json_ready(api.run_figure("fig11", cache=campaign)) == json_ready(
            api.run_figure("fig10", cache=campaign)
        )

    def test_specs_carry_render_and_sweep(self):
        for name, spec in registered_experiments().items():
            assert callable(spec.build_sweep)
            assert callable(spec.reduce)
            assert callable(spec.format_table)
            assert spec.title


class Doctored:
    """A reduced result with the value at one path (an attribute name, then
    mapping keys) replaced; every other read passes through."""

    def __init__(self, inner, path, value):
        self._inner, self._path, self._value = inner, path, value

    def _step(self, key, inner):
        if key != self._path[0]:
            return inner
        if len(self._path) == 1:
            return self._value
        return Doctored(inner, self._path[1:], self._value)

    def __getattr__(self, name):
        return self._step(name, getattr(self._inner, name))

    def __getitem__(self, key):
        return self._step(key, self._inner[key])


def just_past_bound(claim, result, delta=1e-6):
    """``result`` doctored so the claim's first link fails by ``delta``.

    Moves the first path of the link's left term (its right term when the
    left is a constant) to the wrong side of the other term.
    """
    left, op, right = claim.chain[:3]
    if isinstance(left, Ref):
        term, other, sign = left, right, -1.0 if op.startswith(">") else 1.0
    else:
        term, other, sign = right, left, 1.0 if op.startswith(">") else -1.0
    target = (other.read(result) if isinstance(other, Ref) else other) + sign * delta
    path = term.paths[0]
    leaf = ref(*path).read(result)
    return Doctored(result, path, leaf + target - term.read(result))


@pytest.fixture(scope="module")
def default_results():
    """``{name: (spec, reduced result)}`` of the whole registry at the
    default configuration, run as one batch (a few seconds cold)."""
    specs = list(registered_experiments().values())
    results = run_experiments(specs, config=default_experiment_config(), jobs=2)
    return {spec.name: (spec, result) for spec, result in zip(specs, results)}


class TestClaims:
    def test_every_claim_holds_at_default_config(self, default_results):
        verdicts = {
            (name, claim_name): (verdict, margin)
            for name, (spec, result) in default_results.items()
            for claim_name, verdict, margin in evaluate_claims(spec, result)
        }
        assert all(spec.claims for spec, _ in default_results.values())
        failed = {key: row for key, row in verdicts.items() if row[0] != "PASS"}
        assert not failed
        assert all(margin >= 0.0 for _, margin in verdicts.values())

    def test_every_claim_fails_just_past_its_bound(self, default_results):
        for spec, result in default_results.values():
            for claim in spec.claims:
                verdict, margin = claim.evaluate(just_past_bound(claim, result))
                assert verdict == "FAIL", (spec.name, claim.name)
                assert -1e-3 < margin < 0.0, (spec.name, claim.name, margin)

    def test_strictness_at_the_bound(self):
        result = types.SimpleNamespace(share={"dram": 40.0})
        at_bound = ref("share", "dram")
        assert Claim(at_bound, ">", 40.0).evaluate(result) == ("FAIL", 0.0)
        assert Claim(at_bound, ">=", 40.0).evaluate(result) == ("PASS", 0.0)
        chain = Claim(30.0, "<", at_bound, "<=", 41.0)
        assert chain.name == "30 < share[dram] <= 41"
        assert chain.evaluate(result) == ("PASS", 1.0)

    def test_missing_key_is_not_evaluated(self, campaign):
        # The quick configuration sweeps IPCP only: Berti claims read keys
        # the result lacks, and are reported rather than raised.
        spec = get_experiment("fig10")
        rows = evaluate_claims(spec, run_experiment(spec, cache=campaign))
        for name, verdict, margin in rows:
            if "[berti]" in name:
                assert (verdict, margin) == ("not evaluated", None)
            else:
                assert verdict in ("PASS", "FAIL") and margin is not None
        assert any("[berti]" in name for name, _, _ in rows)


class TestSweepCompilation:
    def test_axes_cross_product_and_config_defaults(self):
        config = quick_experiment_config()
        spec = SweepSpec(
            single_core=(SingleCoreSweep(schemes=("baseline", "tlp")),)
        )
        points = spec.compile(config)
        assert len(points) == (
            len(config.workloads()) * 2 * len(config.l1d_prefetchers)
        )
        assert {point.memory_accesses for point in points} == {
            config.memory_accesses
        }

    def test_compilation_deduplicates_by_key(self):
        config = quick_experiment_config()
        block = SingleCoreSweep(schemes=("baseline", "baseline", "tlp"))
        points = SweepSpec(single_core=(block, block)).compile(config)
        assert len(points) == len(config.workloads()) * 2

    def test_multicore_block_includes_isolated_baselines(self):
        config = quick_experiment_config()
        points = SweepSpec(
            multi_core=(MultiCoreSweep(schemes=("baseline", "tlp")),)
        ).compile(config)
        mixes = multicore_mixes(config, "gap") + multicore_mixes(config, "spec")
        singles = [p for p in points if p.kind == "single_core"]
        multis = [p for p in points if p.kind == "multi_core"]
        assert len(multis) == len(mixes) * 2
        # Isolated runs: every distinct mixed workload, baseline scheme, at
        # the multi-core budget.
        assert singles
        assert {p.scheme for p in singles} == {"baseline"}
        assert {p.memory_accesses for p in singles} == {
            config.multicore_memory_accesses
        }

    def test_explicit_mixes_override_suites(self):
        config = quick_experiment_config()
        mix = ("custom", ("bfs.urand", "bfs.urand", "pr.urand", "pr.urand"))
        points = SweepSpec(
            multi_core=(
                MultiCoreSweep(mixes=(mix,), isolated_baselines=False),
            )
        ).compile(config)
        assert [p.mix_name for p in points] == ["custom"]
        assert points[0].workloads == mix[1]

    def test_compiled_points_match_campaign_cache_keys(self):
        """Spec-compiled points keep the engine's point keys."""
        config = quick_experiment_config()
        point = SweepSpec(
            single_core=(
                SingleCoreSweep(
                    workloads=("bfs.urand",),
                    schemes=("tlp",),
                    l1d_prefetchers=("ipcp",),
                ),
            )
        ).compile(config)[0]
        direct = single_core_point(
            "bfs.urand",
            "tlp",
            "ipcp",
            memory_accesses=config.memory_accesses,
            warmup_fraction=config.warmup_fraction,
            gap_scale=config.gap_scale,
        )
        assert point.key() == direct.key()


class TestPointInputs:
    """The API rejects a bad point input with ``ValueError`` before any
    point simulates."""

    @pytest.mark.parametrize("budget", [0, -5])
    def test_simulate_point_rejects_a_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="memory_accesses must be an integer >= 1"):
            api.simulate_point("bfs.urand", "baseline", memory_accesses=budget)

    @pytest.mark.parametrize("spec, named", [
        (SweepSpec(single_core=(SingleCoreSweep(
            workloads=("bfs.urand", "bfs.urnd")),)), "unknown workloads: bfs.urnd"),
        (SweepSpec(single_core=(SingleCoreSweep(
            workloads=("bfs.urand",), schemes=("baseline", "magic")),)),
         "unknown scheme 'magic'"),
        (SweepSpec(multi_core=(MultiCoreSweep(
            mixes=(("m", ("bfs.urand", "bfs.urnd")),)),)),
         "unknown workloads: bfs.urnd"),
    ], ids=["workload", "scheme", "mix_workload"])
    def test_run_sweep_rejects_unknown_names_before_simulating(self, spec, named):
        cache = CampaignCache(quick_experiment_config(), use_result_cache=False)
        with pytest.raises(ValueError, match=named):
            api.run_sweep(spec, cache=cache)
        assert cache.engine.simulations_run == 0


class TestBatchExecution:
    def test_figure_runs_as_one_engine_batch(self, monkeypatch):
        """A spec-driven figure issues exactly one ``CampaignEngine.run``."""
        cache = CampaignCache(quick_experiment_config(), use_result_cache=False)
        calls = []
        original = cache.engine.run

        def counting_run(points, jobs=None, progress=None):
            points = list(points)
            calls.append(len(points))
            return original(points, jobs=jobs, progress=progress)

        monkeypatch.setattr(cache.engine, "run", counting_run)
        run_experiment("fig01", cache=cache)
        assert len(calls) == 1
        assert calls[0] == len(cache.config.workloads())

    def test_memo_dedupes_across_specs(self):
        """A second figure over the same points simulates nothing new."""
        cache = CampaignCache(quick_experiment_config(), use_result_cache=False)
        run_experiment("fig01", cache=cache)
        simulated = cache.engine.simulations_run
        assert simulated > 0
        # Figure 1's baseline points are a subset of Figure 2's sweep.
        run_experiment("fig02", cache=cache)
        assert (
            cache.engine.simulations_run - simulated
            == len(cache.config.workloads())  # only the hermes points
        )

    def test_config_differing_from_cache_config_is_rejected(self):
        """A ``config`` the given cache would not run at raises, naming both."""
        from repro.experiments.common import default_experiment_config

        cache = CampaignCache(quick_experiment_config(), use_result_cache=False)
        default = default_experiment_config()
        with pytest.raises(ValueError) as error:
            run_experiment("fig01", cache=cache, config=default)
        assert repr(default) in str(error.value)
        assert repr(cache.config) in str(error.value)
        for call in (
            lambda: api.run_figure("fig01", config=default, cache=cache),
            lambda: api.run_sweep(SweepSpec(), config=default, cache=cache),
        ):
            with pytest.raises(ValueError, match="differs from the given cache"):
                call()
        assert cache.engine.simulations_run == 0
        # The cache's own config (or none) is accepted.
        run_experiment("fig01", cache=cache, config=quick_experiment_config())

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_run_sweep_rejects_a_worker_count_below_one(self, jobs):
        cache = CampaignCache(quick_experiment_config(), use_result_cache=False)
        spec = SweepSpec(single_core=(
            SingleCoreSweep(schemes=("baseline",), l1d_prefetchers=("ipcp",)),
        ))
        with pytest.raises(ValueError, match=f"got {jobs}$"):
            api.run_sweep(spec, cache=cache, jobs=jobs)
        assert cache.engine.simulations_run == 0

    def test_parallel_jobs_bit_identical_to_serial(self, expected):
        """The pool fan-out path produces the exact pre-refactor outputs."""
        cache = CampaignCache(quick_experiment_config(), use_result_cache=False)
        result = run_experiment(get_experiment("fig01"), cache=cache, jobs=2)
        assert json_ready(result) == expected["fig01"]

    def test_custom_budget_batch_does_not_poison_multi_core_memo(self):
        """A batch at a non-config budget must not satisfy config-budget calls."""
        config = quick_experiment_config()
        cache = CampaignCache(config, use_result_cache=False)
        mix_name, workloads = multicore_mixes(config, "gap")[0]
        custom_budget = config.multicore_memory_accesses // 2
        points = SweepSpec(
            multi_core=(
                MultiCoreSweep(
                    mixes=((mix_name, tuple(workloads)),),
                    schemes=("baseline",),
                    l1d_prefetchers=("ipcp",),
                    memory_accesses=custom_budget,
                    isolated_baselines=False,
                ),
            )
        ).compile(config)
        batch = cache.run_points(points)
        assert len(batch) == 1
        # A lookup at the config budget is a fresh run, not the memoized
        # half-budget result.
        simulated = cache.engine.simulations_run
        result = baseline_mix(cache, mix_name, workloads)
        assert cache.engine.simulations_run == simulated + 1
        (custom_result,) = batch.values()
        assert sum(result.instructions) > sum(custom_result.instructions)

    def test_multi_core_memo_keys_on_workloads_not_mix_name(self):
        """One mix name over two workload lists is two simulations."""
        config = quick_experiment_config()
        cache = CampaignCache(config, use_result_cache=False)
        first = baseline_mix(cache, "m", ["bfs.urand"] * 4)
        second = baseline_mix(cache, "m", ["spec.mcf_like"] * 4)
        fresh = baseline_mix(
            CampaignCache(config, use_result_cache=False),
            "m", ["spec.mcf_like"] * 4,
        )
        assert cache.engine.simulations_run == 2
        assert second is not first
        assert second == fresh

    def test_run_points_returns_every_requested_key(self):
        config = quick_experiment_config()
        cache = CampaignCache(config, use_result_cache=False)
        points = SweepSpec(
            single_core=(
                SingleCoreSweep(schemes=("baseline",), l1d_prefetchers=("ipcp",)),
            )
        ).compile(config)
        results = cache.run_points(points)
        assert set(results) == {point.key() for point in points}
        # The memo was populated: a later sweep over one of the points is
        # free now.
        simulated = cache.engine.simulations_run
        workload = config.workloads()[0]
        view = api.run_sweep(
            SweepSpec(single_core=(SingleCoreSweep(
                workloads=(workload,), l1d_prefetchers=("ipcp",),
            ),)),
            cache=cache,
        )
        assert cache.engine.simulations_run == simulated
        assert view.single_core(workload, "baseline", "ipcp") is results[
            points[0].key()
        ]


class TestSweepResults:
    def test_lookup_outside_sweep_raises(self):
        config = quick_experiment_config()
        results = SweepResults(config, {})
        with pytest.raises(KeyError, match="not part of the executed sweep"):
            results.single_core("bfs.urand", "baseline", "ipcp")

    def test_lookup_finds_executed_point(self):
        config = quick_experiment_config()
        cache = CampaignCache(config, use_result_cache=False)
        points = SweepSpec(
            single_core=(
                SingleCoreSweep(
                    workloads=("bfs.urand",),
                    schemes=("baseline",),
                    l1d_prefetchers=("ipcp",),
                ),
            )
        ).compile(config)
        view = SweepResults(config, cache.run_points(points))
        result = view.single_core("bfs.urand", "baseline", "ipcp")
        assert result.ipc > 0


class TestSweepSpecJson:
    def test_round_trip(self):
        """The JSON form parses to the spec built in Python."""
        payload = {
            "single_core": [{
                "workloads": ["bfs.urand", "imported.astar"],
                "schemes": ["baseline", "tlp"],
                "memory_accesses": 4_000,
            }],
            "multi_core": [{
                "suites": ["gap"],
                "mixes": [["custom", ["a", "b", "c", "d"]]],
                "schemes": ["baseline", "hermes"],
                "per_core_bandwidths": [1.6, 3.2],
            }],
        }
        assert sweep_spec_from_dict(payload) == SweepSpec(
            single_core=(
                SingleCoreSweep(
                    workloads=("bfs.urand", "imported.astar"),
                    schemes=("baseline", "tlp"),
                    memory_accesses=4_000,
                ),
            ),
            multi_core=(
                MultiCoreSweep(
                    suites=("gap",),
                    schemes=("baseline", "hermes"),
                    per_core_bandwidths=(1.6, 3.2),
                    mixes=(("custom", ("a", "b", "c", "d")),),
                ),
            ),
        )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown SingleCoreSweep axes"):
            sweep_spec_from_dict({"single_core": [{"scheme": ["tlp"]}]})
        with pytest.raises(ValueError, match="unknown sweep spec sections"):
            sweep_spec_from_dict({"sweeps": []})

    def test_scalar_for_list_axis_rejected(self):
        # A bare string would otherwise sweep one workload per character.
        with pytest.raises(ValueError, match="'workloads' must be a JSON array"):
            sweep_spec_from_dict({"single_core": [{"workloads": "bfs.urand"}]})
        with pytest.raises(ValueError, match="'schemes' must be a JSON array"):
            sweep_spec_from_dict({"multi_core": [{"schemes": "tlp"}]})
        # JSON null is rejected too: omit the key to inherit the default.
        with pytest.raises(ValueError, match="'schemes' must be a JSON array"):
            sweep_spec_from_dict({"single_core": [{"schemes": None}]})
        # Per-point scalars stay scalars.
        spec = sweep_spec_from_dict(
            {"single_core": [{"memory_accesses": 4000}],
             "multi_core": [{"isolated_baselines": False}]}
        )
        assert spec.single_core[0].memory_accesses == 4000
        assert spec.multi_core[0].isolated_baselines is False

    def test_list_axis_elements_are_typed(self):
        with pytest.raises(ValueError, match="entries must be strings"):
            sweep_spec_from_dict({"single_core": [{"workloads": ["bfs.urand", 7]}]})
        with pytest.raises(ValueError, match="entries must be numbers"):
            sweep_spec_from_dict(
                {"multi_core": [{"per_core_bandwidths": ["3.2"]}]}
            )
        with pytest.raises(ValueError, match="must be .*pairs"):
            sweep_spec_from_dict({"multi_core": [{"mixes": [["m", "not-a-list"]]}]})
        # Well-formed mixes still parse.
        spec = sweep_spec_from_dict(
            {"multi_core": [{"mixes": [["m", ["a", "b", "c", "d"]]]}]}
        )
        assert spec.multi_core[0].mixes == (("m", ("a", "b", "c", "d")),)

    def test_scalar_axes_are_typed(self):
        with pytest.raises(ValueError, match="must be an integer"):
            sweep_spec_from_dict({"single_core": [{"memory_accesses": "4000"}]})
        with pytest.raises(ValueError, match="must be an integer"):
            sweep_spec_from_dict({"multi_core": [{"memory_accesses": [500]}]})
        with pytest.raises(ValueError, match="must be a boolean"):
            sweep_spec_from_dict({"multi_core": [{"isolated_baselines": 1}]})

    def test_defaults_omitted_from_serialization(self):
        """Axes left out of the JSON form take the dataclass defaults."""
        assert sweep_spec_from_dict(
            {"single_core": [{"schemes": ["tlp"]}], "multi_core": []}
        ) == SweepSpec(single_core=(SingleCoreSweep(schemes=("tlp",)),))

