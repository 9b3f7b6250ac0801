"""Every attribute the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` wraps pcmcat's entry points by owner and attribute
name; a renamed function or a dropped import would otherwise show only when
a traced benchmark run fails.  The tracer's source is read and executed
here, so nothing is written under ``perfbench/``.
"""

import types
from pathlib import Path

from pcmcat import cauchy, laws
from pcmcat.category import resolve_base
from pcmcat.cauchy import cauchy_product
from pcmcat.fincat import cyclic_category
from pcmcat.pcm import INT_ADD, make_finite_families_pcm

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_wrap_point_resolves():
    points = load_tracing().wrap_points()
    assert points
    missing = [(name, getattr(owner, "__name__", owner), attr)
               for name, owner, attr in points if not hasattr(owner, attr)]
    assert missing == []


def test_the_pcm_suite_reports_its_partition_law_checkers():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        laws.run_pcm_suite(make_finite_families_pcm(INT_ADD), family_size=3, trials=20)
    stats = tracing.self_times(tracer)
    assert stats["laws.check_wpa"][0] > 0
    assert stats["laws.check_subfamilies"][0] > 0
    assert stats["laws.classify_full_pa"][0] > 0


def test_a_traced_compose_shows_its_base_compositions_and_product_sums():
    """``int[Z3]`` composition makes its 9 base compositions through
    ``PcmCategory.compose`` and its 3 coefficient sums, which check every
    factor product, through ``Pcm.sum``: no kernel bypasses either, so the
    benchmark's layer metrics see them."""
    tracing = load_tracing()
    cc = cauchy_product(resolve_base("int"), cyclic_category(3))
    obj = cc.objects[0]
    f = cc.make_arrow(obj, obj, {"z1": 2})
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.item("compose", lambda: cc.compose(f, f))
    assert tracing.self_times(tracer)["cauchy.compose"][0] == 1
    assert tracing.calls_under(tracer, "category.compose", "cauchy.compose") == 9
    assert tracing.calls_under(tracer, "pcm.sum", "cauchy.compose") == 3


def test_a_traced_associativity_check_shows_every_convolution():
    """``kbounded:1[Z2]`` has 343 triples of its 7 sample arrows: two outer
    composes per triple and one per pair of sample arrows, each through
    ``CauchyCategory.compose``, so its memo hides no convolution from the
    benchmark's ``cauchy.compose.calls``."""
    tracing = load_tracing()
    cc = cauchy_product(resolve_base("kbounded:1"), cyclic_category(2))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.item("associativity", lambda: cauchy.check_associativity(cc))
    assert tracing.calls_under(tracer, "cauchy.compose", "cauchy.check_associativity") == 735
