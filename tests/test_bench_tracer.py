"""The names bench/tracer.py wraps must exist, so that a refactor of the
library cannot break `bench/run.py --trace 1` without a tier-1 failure."""

import importlib.util
import os

from hgrcalc import forms, grassring, symfun

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts():
    bench_tracer = load_tracer()
    tracer = bench_tracer.Tracer()
    try:
        bench_tracer.install_layers(tracer)
        ring = grassring.present(2, 5)
        ring.schur((2, 1)) * ring.schur((1,))
        ring.normal_form(ring.poly_ring().gen(0, 3))
        symfun.schur_in_elementary(symfun.Partition((3, 1)), 2)
        forms.sp_reduce_unimodular([2, 3, 0, 0])
        metrics = bench_tracer.layer_metrics(tracer)
    finally:
        tracer.close()
    for name in ("grassring.mul", "grassring.normal_form",
                 "symfun.schur_in_elementary", "symfun.poly_to_schur_coords",
                 "forms.sp_reduce_unimodular"):
        assert metrics[name + "_calls"] >= 1, name
    assert metrics["forms.transvections"] >= 1
    assert "symfun.monomial_cache_hits" in metrics
    # close() puts every original back
    for fn in (grassring.GrassElement.__mul__, grassring.GrassRing.normal_form,
               symfun.schur_in_elementary, symfun.poly_to_schur_coords):
        assert not hasattr(fn, "__wrapped__")
