"""Self-tests of the benchmark: run with `python3 -m pytest perfbench`."""

import json
from pathlib import Path

import pytest

from pcmcat import category, cauchy, fincat, pcm

import expected
import run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def error_rate(workload) -> float:
    items = workload.items(0)
    done = run.check_pass(items, run.run_pass(items, lambda item: item.run()), workloads)
    return sum(c.error is not None for c in done.checked) / len(done.checked)


def restricted(workload, keep):
    """The workload with only the plan entries `keep` accepts."""
    full_plan = workload.plan
    workload.plan = lambda pass_index: [e for e in full_plan(pass_index) if keep(e)]
    return workload


def small_pcm_laws(seed):
    return restricted(workloads.PcmLaws(seed),
                      lambda entry: entry[0].startswith("kbounded") and entry[1] == 3)


def small_index_scale(seed):
    return restricted(workloads.IndexScale(seed), lambda entry: entry[0].size <= 4)


def off_by_one_k_bounded(k):
    """A k-bounded category whose oracle admits k + 1 nonzero entries."""
    carrier = pcm.make_k_bounded_pcm(pcm.INT_ADD, k + 1, family_grid=(0, 1, -1, 2, -2))
    return category.PcmCategory(f"kbounded:{k}", ("*",), lambda x, y: carrier,
                                lambda g, f: g * f, lambda x: 1)


def test_planted_k_bounded_mutant_raises_error_rate(monkeypatch):
    assert error_rate(small_pcm_laws(1)) == 0
    monkeypatch.setattr(category, "k_bounded_category", off_by_one_k_bounded)
    assert error_rate(small_pcm_laws(1)) > 0


def test_planted_dropped_factorization_raises_error_rate(monkeypatch):
    assert error_rate(small_index_scale(1)) == 0
    factorizations = cauchy.CauchyCategory._factorizations

    def drop_last_pair(self, u, v, w):
        return {c: pairs[:-1] for c, pairs in factorizations(self, u, v, w).items()}

    monkeypatch.setattr(cauchy.CauchyCategory, "_factorizations", drop_last_pair)
    assert error_rate(small_index_scale(1)) > 0


def test_vacuous_verdicts_and_added_detail_still_pass():
    verdicts = {kind: "PASS" for kind in expected.laws_verdicts("pfn:3")}
    verdicts.update({"full-pa": expected.SIGMA, "positivity": expected.POSITIVE,
                     "monoid-sums": "VACUOUS"})
    lines = [f"CHECK {kind}[partial-fns[3]] {verdict}  # 12 families tried"
             for kind, verdict in verdicts.items()]
    assert workloads.check_laws_output("pfn:3", 0, "\n".join(lines)) == (13, None)
    verdicts["reordering"] = "FAIL"
    wrong = [f"CHECK {kind}[partial-fns[3]] {verdict}" for kind, verdict in verdicts.items()]
    assert workloads.check_laws_output("pfn:3", 0, "\n".join(wrong))[1] is not None


def test_pinned_witness_is_compared_by_value():
    assert workloads.witness_values("[{i0=1,i1=1};{j0=1,j1=1}]") == (("1", "1"), ("1", "1"))
    assert workloads.witness_values("{i0=1 mod 4,i1=3 mod 4}") == (("1 mod 4", "3 mod 4"),)


def test_self_time_on_synthetic_nested_spans():
    tracer = tracing.Tracer()
    root = tracer.add_span("root", -1, 0, 100)
    a = tracer.add_span("a", root, 10, 40)
    tracer.add_span("b", a, 15, 25)
    c = tracer.add_span("c", root, 50, 90)
    tracer.add_span("b", c, 60, 70)
    tracer.add_span("b", c, 75, 80)
    stats = tracing.self_times(tracer)
    assert stats["root"] == (1, 30, 100)
    assert stats["a"] == (1, 20, 30)
    assert stats["b"] == (3, 25, 25)
    assert stats["c"] == (1, 25, 40)
    assert tracing.calls_under(tracer, "b", "c") == 2
    assert tracing.calls_under(tracer, "b", "root") == 3


def test_wrappers_record_parents_and_restore_originals():
    tracer = tracing.Tracer()
    original = pcm.Pcm.sum
    with tracing.installed(tracer):
        cc = cauchy.cauchy_product(category.resolve_base("int"), fincat.cyclic_category(3))
        obj = cc.objects[0]
        f = cc.make_arrow(obj, obj, {"z1": 2})
        tracer.item("compose", lambda: cc.compose(f, f))
    assert pcm.Pcm.sum is original
    stats = tracing.self_times(tracer)
    assert stats["cauchy.compose"][0] == 1
    # three coefficient sums and one summability recheck in make_arrow
    assert tracing.calls_under(tracer, "pcm.sum", "cauchy.compose") == 4
    names = [tracer.names[k] for k in tracer.span_name]
    parents = [names[p] if p >= 0 else None for p in tracer.parent]
    assert parents[names.index("cauchy.compose")] == tracing.ITEM_SPAN


@pytest.mark.parametrize("make", [small_pcm_laws, small_index_scale])
def test_seeds_and_passes_give_different_inputs_and_identical_counts(make):
    counts = []
    plans = []
    for seed, pass_index in ((1, 0), (1, 1), (2, 0)):
        workload = make(seed)
        plans.append(repr(workload.plan(pass_index)))
        items = workload.items(pass_index)
        done = run.check_pass(items, run.run_pass(items, lambda item: item.run()), workloads)
        assert all(c.error is None for c in done.checked)
        counts.append((sum(c.checks for c in done.checked), sum(c.work for c in done.checked)))
    assert len(set(plans)) == 3
    assert counts[0] == counts[1] == counts[2]


def test_reported_metrics_match_benchmark_json():
    per_layer = tracing.per_layer_metrics(tracing.Tracer(), 0.0)
    assert list(per_layer) == [m["name"] for m in SPEC["per_layer"]]
    assert [per_layer[m["name"]][1] for m in SPEC["per_layer"]] == \
        [m["unit"] for m in SPEC["per_layer"]]
    done = run.Pass([0.1, 0.2], [0.1, 0.2], 0.3, [], [workloads.Checked(1, 1)])
    end_to_end = run.end_to_end_metrics([done], 0.5)
    assert list(end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
    assert [end_to_end[m["name"]][1] for m in SPEC["end_to_end"]] == \
        [m["unit"] for m in SPEC["end_to_end"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
