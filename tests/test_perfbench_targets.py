"""The benchmark's spans still find every function they trace.

`perfbench/spans.py` names its targets by module and function.  Entering
`installed` looks each one up, so a renamed or removed target raises
`KeyError` here rather than only in the benchmark's own self-test.
"""

import importlib.util
import pathlib

import finiteweyl.basis as basis_mod
import finiteweyl.search as search_mod

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_wrapped_and_restored():
    spans = load_spans()
    originals = (basis_mod.cartan_partition_prime_power, basis_mod.find_commuting_partition)
    with spans.installed(spans.Tracer()) as tracer:
        assert basis_mod.find_commuting_partition is not originals[1]
        partition = basis_mod.cartan_partition_prime_power(2, 2)
    assert partition.class_count == 5
    assert set(tracer.spans) == {
        target.split(".")[0] + "." + target.split(".")[-1] for target in spans.TARGETS
    }
    assert tracer.spans["basis.cartan_partition_prime_power"][0] == 1
    # the adapter counts the search's commutation tests over the 15 labels
    assert tracer.spans["search.find_commuting_partition"][0] == 1
    assert tracer.counters["search.vertex_pairs"] == 15 * 14 // 2
    assert tracer.counters["search.commutation_tests"] > 0
    assert (basis_mod.cartan_partition_prime_power, basis_mod.find_commuting_partition) == originals
    assert search_mod.find_commuting_partition is originals[1]
