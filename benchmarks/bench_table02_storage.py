"""Table II: storage overhead of TLP (~7KB per core)."""

from conftest import run_once

from repro.experiments import table02_storage, run_experiment


def test_table02_storage_breakdown(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("table02", cache=campaign))
    print()
    print("Table II: TLP storage overhead")
    print(table02_storage.format_table(result))
    # Paper claim: ~7KB per core, with FLP and SLP each close to 3.2-3.3KB.
    assert 5.0 < result.total < 9.0
    assert 2.5 < result.flp_total < 4.5
    assert 2.5 < result.slp_total < 4.7
    assert result.load_queue_metadata < 1.0
